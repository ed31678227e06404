package registry

import (
	"slices"

	"repro/internal/fj"
)

// Invocation-by-name: the service-facing face of the fj catalog.  The rest
// of the registry assumes in-process callers that name a size and a seed;
// an Invocable also accepts a caller-supplied payload — a flat []int64 word
// vector, the same canonical encoding the cross-backend equality gate
// compares — validates its shape *before* any kernel code touches it, and
// writes the kernel's output into a separate word vector.  Malformed
// payloads come back as errors (the serving layer maps them to 400), never
// as panics.
//
// Every fj kernel is invocable: define (catalog.go) derives the Invocable
// from the kernel's one description — the element codec from the run
// adapter's view type (I64; F64 as IEEE-754 bit words; C128 as interleaved
// re/im word pairs), the payload geometry from its shape (codec.go) — so
// the catalog, not per-kernel glue, defines what is servable.  Each
// entry's Payload field states its encoding, and GET /kernels lists them.
//
// Invocables run on the real backend only (payloads are native Go memory,
// wrapped zero-copy via fj.WrapWords); the serving layer schedules Run
// inside a fork-join invocation on its shared rt.Pool.

// Invocable is a kernel callable by name with a caller-supplied payload.
type Invocable struct {
	Name string
	Desc string
	// Payload documents the wire encoding (surfaced on /kernels).
	Payload string
	// Validate checks the payload's shape (length, encoded-dimension and
	// index-range constraints).  A nil error guarantees Run will not panic
	// on this input; n = 0 and n = 1 degenerates are valid for every kernel.
	Validate func(in []int64) error
	// OutLen gives the output word count for a valid payload.
	OutLen func(in []int64) int64
	// Run executes the kernel on c, reading in and writing all of out
	// (len(out) = OutLen(in)).  It must only be called after Validate
	// accepted in, with a real-backend Ctx.
	Run func(c *fj.Ctx, in, out []int64)
	// InWords gives the payload word count Gen would build for size n
	// (saturating instead of overflowing), so callers can enforce payload
	// caps before anything is allocated.
	InWords func(n int64) int64
	// Gen builds the seeded size-n payload the catalog's experiments use —
	// the serving layer's per-request-seeding path for clients that want a
	// workload without shipping one.
	Gen func(n int64, seed uint64) ([]int64, error)
	// Verify checks out against in from scratch (serially, independent of
	// the kernel) — the serving layer's output-verification hook.
	Verify func(in, out []int64) bool
}

// Invocables returns the service-callable catalog sorted by name.
func Invocables() []Invocable { return slices.Clone(invocables) }

// FindInvocable returns the service-callable kernel with the given name.
func FindInvocable(name string) (Invocable, bool) {
	for _, k := range invocables {
		if k.Name == name {
			return k, true
		}
	}
	return Invocable{}, false
}
