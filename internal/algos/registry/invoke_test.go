package registry

import (
	"math"
	"testing"

	"repro/internal/fj"
	"repro/internal/rt"
)

// runInvocable executes k.Run on a fresh 2-worker pool and returns the
// output payload — the serial-reference harness the serving layer's
// batched execution is compared against.
func runInvocable(t *testing.T, k Invocable, in []int64) []int64 {
	t.Helper()
	if err := k.Validate(in); err != nil {
		t.Fatalf("%s: valid payload rejected: %v", k.Name, err)
	}
	out := make([]int64, k.OutLen(in))
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	fj.RunReal(pool, func(c *fj.Ctx) { k.Run(c, in, out) })
	return out
}

// TestInvocableValidateTable drives every served kernel's decode path
// through valid payloads (including the n=0 and n=1 degenerates) and the
// malformed shapes a service client can ship; malformed payloads must come
// back as errors — never reach Run, never panic.
func TestInvocableValidateTable(t *testing.T) {
	cases := []struct {
		kernel  string
		name    string
		payload []int64
		ok      bool
	}{
		{"sort", "empty", []int64{}, true},
		{"sort", "single", []int64{7}, true},
		{"sort", "several", []int64{3, 1, 2}, true},
		{"sortx", "empty", []int64{}, true},
		{"sortx", "single", []int64{-9}, true},
		{"scan", "empty", []int64{}, true},
		{"scan", "single", []int64{5}, true},
		{"scan", "negatives", []int64{-1, 4, -2}, true},

		{"gather", "empty", []int64{}, true},
		{"gather", "single", []int64{0, 42}, true},
		{"gather", "sentinel", []int64{-1, 0, 10, 20}, true},
		{"gather", "odd-length", []int64{0, 10, 20}, false},
		{"gather", "index-out-of-range", []int64{2, 0, 10, 20}, false},
		{"gather", "index-far-out", []int64{1 << 40, 0, 10, 20}, false},

		{"strassen", "empty", []int64{}, true},
		{"strassen", "1x1", []int64{3, 5}, true},
		{"strassen", "2x2", []int64{1, 2, 3, 4, 5, 6, 7, 8}, true},
		{"strassen", "odd-words", []int64{1, 2, 3}, false},
		{"strassen", "half-not-square", []int64{1, 2, 3, 4, 5, 6}, false},
		{"strassen", "dim-not-pow2", make([]int64, 2*9), false}, // 3×3

		{"matmul", "empty", []int64{}, true},
		{"matmul", "1x1", f64ToWords([]float64{3, 5}), true},
		{"matmul", "2x2", f64ToWords([]float64{1, 2, 3, 4, 5, 6, 7, 8}), true},
		{"matmul", "odd-words", []int64{1, 2, 3}, false},
		{"matmul", "dim-not-pow2", make([]int64, 2*9), false}, // 3×3

		{"transpose", "empty", []int64{}, true},
		{"transpose", "1x1", f64ToWords([]float64{7}), true},
		{"transpose", "2x2", f64ToWords([]float64{1, 2, 3, 4}), true},
		{"transpose", "not-square", make([]int64, 3), false},

		{"fft", "empty", []int64{}, true},
		{"fft", "single", f64ToWords([]float64{0.5, -0.5}), true},
		{"fft", "two-samples", f64ToWords([]float64{1, 0, 0, 1}), true},
		{"fft", "odd-words", []int64{1, 2, 3}, false},
		{"fft", "len-not-pow2", make([]int64, 6), false}, // n = 3

		{"listrank", "empty", []int64{}, true},
		{"listrank", "single", []int64{-1}, true},
		{"listrank", "chain", []int64{1, 2, -1}, true},
		{"listrank", "out-of-range", []int64{5}, false},
		{"listrank", "two-tails", []int64{-1, -1}, false},
		{"listrank", "two-preds", []int64{1, 1, -1}, false},
		{"listrank", "cycle", []int64{1, 0, -1}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kernel+"/"+tc.name, func(t *testing.T) {
			k, ok := FindInvocable(tc.kernel)
			if !ok {
				t.Fatalf("kernel %q not in the invocable catalog", tc.kernel)
			}
			err := k.Validate(tc.payload)
			if tc.ok && err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("malformed payload accepted")
				}
				return
			}
			// Valid payloads must run to a verifiable output.
			out := runInvocable(t, k, tc.payload)
			if !k.Verify(tc.payload, out) {
				t.Fatalf("output fails verification: in=%v out=%v", tc.payload, out)
			}
		})
	}
}

// TestInvocableGen pins the seeded-generator path: generated payloads
// validate, run and verify; equal seeds reproduce, distinct seeds differ;
// bad sizes are errors, not panics.
func TestInvocableGen(t *testing.T) {
	for _, k := range Invocables() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			n := int64(64)
			a, err := k.Gen(n, 7)
			if err != nil {
				t.Fatalf("Gen(%d, 7): %v", n, err)
			}
			if err := k.Validate(a); err != nil {
				t.Fatalf("generated payload invalid: %v", err)
			}
			b, _ := k.Gen(n, 7)
			c, _ := k.Gen(n, 8)
			if !equalWords(a, b) {
				t.Fatal("same seed produced different payloads")
			}
			if equalWords(a, c) {
				t.Fatal("different seeds produced identical payloads")
			}
			out := runInvocable(t, k, a)
			if !k.Verify(a, out) {
				t.Fatalf("generated run fails verification")
			}
			if _, err := k.Gen(-1, 0); err == nil {
				t.Fatal("negative n accepted")
			}
		})
	}
	// The power-of-two kernels' generators must reject other dimensions.
	for _, name := range []string{"strassen", "matmul", "fft"} {
		k, _ := FindInvocable(name)
		if _, err := k.Gen(3, 0); err == nil {
			t.Fatalf("%s Gen accepted a non-power-of-two dimension", name)
		}
	}
}

func equalWords(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInvocableReusedBuffers pins the contract the zero-copy float adapters
// rely on: Run defines every word of out whatever out held before (matmul
// accumulates, so its adapter must clear it) and never writes in.  Every
// kernel runs twice into the same out — the second time over its own first
// result — and must verify both times with in bit-identical afterwards.
func TestInvocableReusedBuffers(t *testing.T) {
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	for _, k := range Invocables() {
		n := int64(64)
		if k.Name == "strassen" || k.Name == "matmul" {
			n = 16
		}
		in, err := k.Gen(n, 5)
		if err != nil {
			t.Fatalf("%s: Gen: %v", k.Name, err)
		}
		orig := append([]int64(nil), in...)
		out := make([]int64, k.OutLen(in))
		for i := range out {
			out[i] = int64(math.Float64bits(1e9)) // garbage a kernel must not build on
		}
		for round := 1; round <= 2; round++ {
			fj.RunReal(pool, func(c *fj.Ctx) { k.Run(c, in, out) })
			if !k.Verify(in, out) {
				t.Errorf("%s: run %d into the same out fails verification", k.Name, round)
			}
			if !equalWords(in, orig) {
				t.Fatalf("%s: run %d wrote its input", k.Name, round)
			}
		}
	}
}

// TestFloatVerifiersRejectNaN: an all-NaN or a doubled output of the
// tolerance-checked kernels must fail Verify on finite input (|out−want| >
// tol is false for NaN, so the comparison has to be written the other way).
func TestFloatVerifiersRejectNaN(t *testing.T) {
	for _, name := range []string{"matmul", "fft"} {
		k, _ := FindInvocable(name)
		in, err := k.Gen(16, 3)
		if err != nil {
			t.Fatal(err)
		}
		out := runInvocable(t, k, in)
		if !k.Verify(in, out) {
			t.Fatalf("%s: correct output fails verification", name)
		}
		nan := make([]int64, len(out))
		doubled := make([]int64, len(out))
		for i, w := range out {
			nan[i] = int64(math.Float64bits(math.NaN()))
			doubled[i] = int64(math.Float64bits(2 * math.Float64frombits(uint64(w))))
		}
		if k.Verify(in, nan) {
			t.Errorf("%s: an all-NaN output verifies", name)
		}
		if k.Verify(in, doubled) {
			t.Errorf("%s: a doubled output verifies", name)
		}
		// Non-finite input has no finite answer: it must still verify
		// without panicking, and the kernel's own output must pass.
		in[0] = int64(math.Float64bits(math.Inf(1)))
		in[1] = int64(math.Float64bits(math.NaN()))
		if out := runInvocable(t, k, in); !k.Verify(in, out) {
			t.Errorf("%s: the kernel's output on NaN/Inf input fails verification", name)
		}
	}
}

// f64ToWords encodes float64s as the IEEE-754 bit words of the wire.
func f64ToWords(v []float64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(math.Float64bits(x))
	}
	return out
}
