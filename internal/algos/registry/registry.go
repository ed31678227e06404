// Package registry is the single kernel catalog of the repo: every
// algorithm — whether it runs on the *simulated* multicore of
// internal/machine (the paper's model, Sections 1–2) or on *real hardware*
// via the internal/rt work-stealing runtime — is registered here under a
// (name, backend) key.  The experiment drivers (internal/bench), both
// commands (cmd/hbpbench, cmd/hbptrace) and the analytical cost model
// (internal/model) all resolve kernels through this package, so the
// scenario surface has one source of truth.
//
// Two kinds of entries feed the catalog:
//
//   - Table-1 sim kernels (sim.go): the paper's HBP algorithms built as
//     hand-shaped core.Node trees with the exact structural parameters
//     (locals on the execution stack, up-tree layouts, gapping) the bound
//     lemmas analyze.  Sim backend only.
//   - fj-unified kernels (catalog.go): one fork-join source per kernel,
//     written against internal/fj, and one table entry describing it —
//     names, payload geometry, sizes, one seeded generator, one run adapter
//     on fj views, one verifier.  Three faces are derived from each entry,
//     once, at package init: an FJKernel whose Setup places the generated
//     payload in a sim or a real fj.Env (registered under BOTH backends:
//     the sim lowering builds a core.Node tree for the simulated
//     multicore, the real lowering schedules the identical source on
//     internal/rt); the SimKernel the simulator-side drivers sweep; and the
//     Invocable (invoke.go) the kernel service calls by name on
//     caller-supplied payloads.  The cross-backend equality gate holds the
//     two lowerings to byte-identical outputs.  A simulator-only entry
//     (spms, the paper's SPMS sort) is registered under Sim alone and is
//     not served.
//
// All returns the union sorted by (name, backend), so listings and -canon
// diffs are byte-stable; the union and every derived face are built once,
// so a lookup allocates nothing.  Input generation is seeded (FillRand,
// RandPermList, an LCG) so repeats are distinct yet reproducible; seed 0
// reproduces the historical fixed inputs of the earliest experiments.
package registry

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Backend tags where a kernel runs.
type Backend string

const (
	// Sim kernels run on the simulated multicore (internal/machine).
	Sim Backend = "sim"
	// Real kernels run on real hardware via internal/rt.
	Real Backend = "real"
)

// SimKernel is a Table-1 catalog algorithm on the simulated machine: the
// paper's structural parameters plus a builder that allocates inputs on a
// fresh machine and returns the computation root.
type SimKernel struct {
	Name string
	Desc string // one-line description for listings
	Typ  string // HBP type (Definition 3.4)
	F    string // f(r) column of Table 1
	L    string // L(r) column of Table 1
	W    string // W(n) column of Table 1
	TInf string // T∞(n) column of Table 1
	Q    string // Q(n,M,B) column of Table 1
	// Sizes are the n-sweep used by experiments (ascending).
	Sizes []int64
	// InputWords converts n to the input size in words (n² for matrices).
	InputWords func(n int64) int64
	// Build allocates seeded inputs in m's address space and returns the
	// root task.  seed 0 reproduces the historical fixed inputs.
	Build func(m *machine.Machine, n int64, seed uint64) *core.Node
}

// Kernel is one registry entry: a (name, backend) key plus what that
// lowering runs.  FJ is non-nil on both entries of an fj-unified kernel (the
// marker listings print, and the real entry's whole descriptor), nil on the
// hand-built Table-1 sim kernels.
type Kernel struct {
	Name    string
	Backend Backend
	Desc    string
	Sim     *SimKernel // non-nil iff Backend == Sim
	FJ      *FJKernel  // non-nil iff the entry is lowered from a unified fj source
}

// The catalog's read-only views, built once from simCatalog and fjCatalog.
var (
	all        []Kernel    // sorted by (name, backend)
	fjKernels  []FJKernel  // catalog order
	realFJ     []FJKernel  // catalog order, simulator-only kernels left out
	invocables []Invocable // sorted by name
)

func init() {
	for i := range simCatalog {
		k := &simCatalog[i]
		all = append(all, Kernel{Name: k.Name, Backend: Sim, Desc: k.Desc, Sim: k})
	}
	for _, e := range fjCatalog {
		all = append(all, Kernel{Name: e.fj.Name, Backend: Sim, Desc: e.fj.Desc, Sim: &e.sim, FJ: &e.fj})
		fjKernels = append(fjKernels, e.fj)
		if len(e.inv) == 0 { // simulator-only
			continue
		}
		all = append(all, Kernel{Name: e.fj.Name, Backend: Real, Desc: e.fj.Desc, FJ: &e.fj})
		realFJ = append(realFJ, e.fj)
		invocables = append(invocables, e.inv...)
	}
	slices.SortFunc(all, func(a, b Kernel) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Backend, b.Backend))
	})
	slices.SortFunc(invocables, func(a, b Invocable) int { return cmp.Compare(a.Name, b.Name) })
}

// All returns every registered kernel — the Table-1 sim catalog plus the
// lowerings of every fj-unified kernel — sorted by (name, backend) so the
// listing order is deterministic and -canon comparisons stay byte-stable.
func All() []Kernel { return slices.Clone(all) }

// Find returns the kernel registered under (name, backend).
func Find(name string, b Backend) (Kernel, bool) {
	for _, k := range all {
		if k.Name == name && k.Backend == b {
			return k, true
		}
	}
	return Kernel{}, false
}

// SimKernels returns the hand-built Table-1 catalog in paper order (the
// sweep set of the sim experiments and the analytical model; the fj sim
// lowerings are additional sim entries reachable via All and Find).
func SimKernels() []SimKernel { return slices.Clone(simCatalog) }

// FJKernels returns the fj-unified catalog in order: every fj source the
// simulator runs.
func FJKernels() []FJKernel { return slices.Clone(fjKernels) }

// RealKernels returns the fj kernels with a real lowering, in catalog
// order: FJKernels without the simulator-only ones.
func RealKernels() []FJKernel { return slices.Clone(realFJ) }

// LCG is a tiny deterministic generator for reproducible inputs.
type LCG uint64

// Next returns the next nonnegative pseudo-random value.
func (g *LCG) Next() int64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int64(*g >> 33)
}

// FillRand fills a with seeded values in [0, mod).
func FillRand(a mem.Array, seed uint64, mod int64) {
	g := LCG(seed)
	for i := int64(0); i < a.Len(); i++ {
		a.Set(i, g.Next()%mod)
	}
}

// RandPermList allocates the list-ranking input of permList in sp.
func RandPermList(sp *mem.Space, n int64, seed uint64) mem.Array {
	succ := mem.NewArray(sp, n)
	succ.CopyIn(permList(n, seed))
	return succ
}
