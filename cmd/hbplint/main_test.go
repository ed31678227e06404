package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitStatus pins hbplint's exit codes and output: 0 on a clean
// package, 1 with findings printed relative to the module root, and 2 when
// the load fails, here on a pattern that names no package.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		pattern string
		code    int
		out     string
	}{
		{".", 0, ""},
		{"../../internal/lint/testdata/src/atomicmix", 1, "internal/lint/testdata/src/atomicmix/atomicmix.go:"},
		{"./nosuchdir", 2, ""},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{c.pattern}, &out, &errOut)
		if code != c.code || !strings.HasPrefix(out.String(), c.out) {
			t.Errorf("hbplint %s: exit %d, stdout %q, stderr %q; want exit %d, stdout starting %q",
				c.pattern, code, out.String(), errOut.String(), c.code, c.out)
		}
	}
}
