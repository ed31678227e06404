package gather

// Unified fork-join source: the Gather primitive (out[i] = vals[idx[i]],
// with a sentinel where idx[i] < 0) written once against internal/fj as a
// parallel map.  Unlike the simulated sort-based EREW Gather above — whose
// point is the sort-bound cache complexity — the fj kernel reads vals
// directly, which is how a real machine gathers; running it on *both*
// backends lets the simulator price exactly that irregular-access shortcut
// (Θ(n) scattered reads vs the sort bound) while real hardware measures its
// wall-clock.

import "repro/internal/fj"

// FJGatherGrainSim is the simulator's leaf length of the parallel map;
// hardware splits the map on demand (fj.Ctx.ForRange).
const FJGatherGrainSim = 32

// FJGather computes out[i] = vals[idx[i]] for 0 ≤ i < idx.Len(), writing
// sentinel where idx[i] < 0.  A real leaf runs the map on the native slices;
// a simulated one makes the same reads and writes through charged accesses.
func FJGather(c *fj.Ctx, idx, vals, out fj.I64, sentinel int64) {
	c.ForRange(0, idx.Len(), FJGatherGrainSim, func(c *fj.Ctx, lo, hi int64) {
		if ix := idx.Raw(); ix != nil {
			vs, os := vals.Raw(), out.Raw()[lo:hi]
			for i, k := range ix[lo:hi] {
				v := sentinel
				if k >= 0 {
					v = vs[k]
				}
				os[i] = v
			}
			return
		}
		for i := lo; i < hi; i++ {
			k := idx.Get(c, i)
			v := sentinel
			if k >= 0 {
				v = vals.Get(c, k)
			}
			out.Set(c, i, v)
		}
	})
}
