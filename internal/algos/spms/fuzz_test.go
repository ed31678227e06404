package spms

import (
	"slices"
	"testing"

	"repro/internal/algos/sortutil"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/rt"
	"repro/internal/sched"
)

// FuzzKWayMerge drives FJMergeK with arbitrary run counts, run lengths, and
// duplicate densities and holds the output byte-identical to the sortutil
// serial k-way reference on BOTH lowerings.  The seed corpus below runs as
// plain tests (including under -race in CI); the fuzzer then mutates the
// encoding.
//
// Encoding: byte 0 picks the run count (1..maxFuzzRuns), byte 1 picks the
// value modulus from fuzzMods (low moduli flood the merge with duplicates),
// byte 2+3r picks run r's length (0..63), and the remaining bytes feed the
// value stream.  Every decoded run is sorted before the merge, as FJMergeK
// requires.

const maxFuzzRuns = 12

var fuzzMods = []int64{1, 2, 3, 7, 64, 1 << 30}

// decodeRuns expands the fuzz bytes into sorted runs.
func decodeRuns(data []byte) [][]int64 {
	if len(data) < 2 {
		return nil
	}
	k := int(data[0])%maxFuzzRuns + 1
	mod := fuzzMods[int(data[1])%len(fuzzMods)]
	pos := 2
	next := func() int64 {
		if len(data) <= 2 {
			return 0 // no value bytes at all
		}
		if pos >= len(data) {
			pos = 2 // wrap: short inputs still produce full runs
		}
		b := int64(data[pos])
		pos++
		return b
	}
	runs := make([][]int64, k)
	for r := range runs {
		n := next() % 64
		run := make([]int64, n)
		for i := range run {
			// Two bytes per value so moduli above 256 see spread keys.
			run[i] = (next()<<8 | next()) % mod
		}
		slices.Sort(run)
		runs[r] = run
	}
	return runs
}

// mergeKReal runs FJMergeK on the real backend and returns the output.
func mergeKReal(runs [][]int64, p int) []int64 {
	env := fj.NewRealEnv()
	views, total := loadRuns(env, runs)
	out := env.I64(total)
	pool := rt.NewPoolLayout(p, rt.LayoutPadded)
	defer pool.Close()
	fj.RunReal(pool, func(c *fj.Ctx) { FJMergeK(c, views, out) })
	return dumpView(out)
}

// mergeKSim runs FJMergeK under the simulator and returns the output.
func mergeKSim(runs [][]int64) []int64 {
	m := machine.New(machine.Default(4))
	env := fj.NewSimEnv(m)
	views, total := loadRuns(env, runs)
	out := env.I64(total)
	fj.RunSim(m, sched.NewPWS(), core.Options{}, 2*total+1, "fuzzmerge", func(c *fj.Ctx) {
		FJMergeK(c, views, out)
	})
	return dumpView(out)
}

// mergeKSerialRef is the reference: the sortutil serial heap merge on the
// real backend.
func mergeKSerialRef(runs [][]int64) []int64 {
	env := fj.NewRealEnv()
	views, total := loadRuns(env, runs)
	out := env.I64(total)
	pool := rt.NewPoolLayout(1, rt.LayoutPadded)
	defer pool.Close()
	fj.RunReal(pool, func(c *fj.Ctx) { sortutil.MergeK(c, views, out) })
	return dumpView(out)
}

func loadRuns(env *fj.Env, runs [][]int64) ([]fj.I64, int64) {
	views := make([]fj.I64, len(runs))
	var total int64
	for r, run := range runs {
		v := env.I64(int64(len(run)))
		for i, x := range run {
			v.Store(int64(i), x)
		}
		views[r] = v
		total += int64(len(run))
	}
	return views, total
}

func dumpView(v fj.I64) []int64 {
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Load(int64(i))
	}
	return out
}

func FuzzKWayMerge(f *testing.F) {
	// Seed corpus: tiny/empty shapes, duplicate floods across many runs,
	// uneven lengths, and enough volume to cross the sample-partition path
	// (4k ≤ m with m above the serial grain).
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 0, 5, 1, 2, 3, 4, 5, 0, 7})             // empty runs among live ones
	f.Add([]byte{11, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})   // 12 runs, all-equal flood
	f.Add([]byte{7, 2, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63})  // binary keys, uneven lengths
	f.Add([]byte{5, 3, 63, 62, 61, 60, 59, 17, 4, 200, 90}) // few keys, near-max runs
	f.Add([]byte{9, 5, 63, 63, 63, 63, 63, 63, 63, 63, 63,
		1, 22, 240, 9, 180, 33, 77, 250, 128, 64, 32, 16, 8}) // spread keys, 9 full runs
	f.Fuzz(func(t *testing.T, data []byte) {
		runs := decodeRuns(data)
		if runs == nil {
			return
		}
		want := mergeKSerialRef(runs)
		for _, p := range []int{1, 4} {
			if got := mergeKReal(runs, p); !slices.Equal(got, want) {
				t.Fatalf("real p=%d: FJMergeK diverges from serial reference\n got %v\nwant %v", p, got, want)
			}
		}
		if got := mergeKSim(runs); !slices.Equal(got, want) {
			t.Fatalf("sim: FJMergeK diverges from serial reference\n got %v\nwant %v", got, want)
		}
	})
}
