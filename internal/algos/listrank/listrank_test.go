package listrank

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// makeList builds a random list over n nodes: order is a random permutation;
// order[k] is the k-th node from the head.  Returns succ and want-ranks.
func makeList(n int, rng *rand.Rand) (succ, want []int64) {
	order := rng.Perm(n)
	succ = make([]int64, n)
	want = make([]int64, n)
	for k := 0; k < n; k++ {
		v := order[k]
		if k == n-1 {
			succ[v] = -1
		} else {
			succ[v] = int64(order[k+1])
		}
		want[v] = int64(n - 1 - k)
	}
	return succ, want
}

func runRank(t *testing.T, p int, succ []int64, s core.Scheduler, opt Options, eopt core.Options) ([]int64, core.Result) {
	t.Helper()
	n := int64(len(succ))
	m := machine.New(machine.Default(p))
	sa := mem.NewArray(m.Space, n)
	ra := mem.NewArray(m.Space, n)
	sa.CopyIn(succ)
	res := core.NewEngine(m, s, eopt).Run(Rank(sa, ra, opt))
	return ra.CopyOut(), res
}

func checkRanks(t *testing.T, label string, got, want []int64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

func TestRankTiny(t *testing.T) {
	// n=1: single node is its own tail.
	got, _ := runRank(t, 2, []int64{-1}, sched.NewPWS(), Options{}, core.Options{})
	if got[0] != 0 {
		t.Fatalf("n=1: rank = %d, want 0", got[0])
	}
	// n=3 chain 2→0→1.
	succ := []int64{1, -1, 0}
	want := []int64{1, 0, 2}
	got, _ = runRank(t, 2, succ, sched.NewPWS(), Options{}, core.Options{})
	checkRanks(t, "n=3", got, want)
}

func TestRankSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, n := range []int{2, 5, 8, 16, 33, 64} {
		succ, want := makeList(n, rng)
		got, _ := runRank(t, 4, succ, sched.NewPWS(), Options{}, core.Options{})
		checkRanks(t, "pws", got, want)
	}
}

func TestRankMediumPWS(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	for _, n := range []int{128, 300} {
		for _, p := range []int{1, 8} {
			succ, want := makeList(n, rng)
			got, _ := runRank(t, p, succ, sched.NewPWS(), Options{}, core.Options{})
			checkRanks(t, "pws-med", got, want)
		}
	}
}

func TestRankRWS(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	succ, want := makeList(150, rng)
	got, _ := runRank(t, 4, succ, sched.NewRWS(7), Options{}, core.Options{})
	checkRanks(t, "rws", got, want)
}

func TestRankNoGap(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	succ, want := makeList(200, rng)
	got, _ := runRank(t, 4, succ, sched.NewPWS(), Options{NoGap: true}, core.Options{})
	checkRanks(t, "nogap", got, want)
}

func TestRankForcedContraction(t *testing.T) {
	// A low jump threshold forces several contraction phases.
	rng := rand.New(rand.NewSource(500))
	succ, want := makeList(120, rng)
	got, _ := runRank(t, 4, succ, sched.NewPWS(), Options{JumpThreshold: 10}, core.Options{})
	checkRanks(t, "contract", got, want)
}

func TestRankDeterministicUnderPWS(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	succ, _ := makeList(100, rng)
	_, r1 := runRank(t, 4, succ, sched.NewPWS(), Options{}, core.Options{})
	_, r2 := runRank(t, 4, succ, sched.NewPWS(), Options{}, core.Options{})
	if r1.Makespan != r2.Makespan || r1.Steals != r2.Steals {
		t.Error("PWS list-ranking runs are not deterministic")
	}
}

func TestGapStridesGrow(t *testing.T) {
	// With gapping, the contracted list of size ~n/x² uses stride ~x.
	// Verify via the isqrt helper the strides the algorithm would pick.
	if isqrt(1024/256) != 2 || isqrt(1024/64) != 4 || isqrt(1024/16) != 8 {
		t.Error("isqrt strides wrong")
	}
}

func TestIsqrt(t *testing.T) {
	for x := int64(0); x < 200; x++ {
		r := isqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("isqrt(%d) = %d", x, r)
		}
	}
}
