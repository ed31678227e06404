package sortx

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

func runSort(p int, keys []int64, s core.Scheduler, opts core.Options) ([]int64, core.Result) {
	m := machine.New(machine.Default(p))
	n := int64(len(keys))
	src := NewRecs(m.Space, n, 1)
	dst := NewRecs(m.Space, n, 1)
	for i, k := range keys {
		src.Set(m.Space, int64(i), k)
	}
	res := core.NewEngine(m, s, opts).Run(Sort(src, dst))
	out := make([]int64, n)
	for i := range out {
		out[i] = m.Space.Load(dst.Addr(int64(i), 0))
	}
	return out, res
}

func TestSortSmall(t *testing.T) {
	cases := [][]int64{
		{},
		{5},
		{2, 1},
		{1, 2},
		{3, 3, 3},
		{5, 4, 3, 2, 1},
		{1, 1, 2, 2, 0, 0},
		{9, -3, 7, -3, 0, 9, 1},
	}
	for _, in := range cases {
		got, _ := runSort(4, in, sched.NewPWS(), core.Options{})
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %v: got %v, want %v", in, got, want)
			}
		}
	}
}

func TestSortRandomSizesAndProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{3, 17, 64, 255, 1024} {
		for _, p := range []int{1, 2, 8} {
			in := make([]int64, n)
			for i := range in {
				in[i] = int64(rng.Intn(100) - 50)
			}
			got, _ := runSort(p, in, sched.NewPWS(), core.Options{})
			want := append([]int64(nil), in...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: mismatch at %d: got %d want %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortQuickProperty(t *testing.T) {
	// Property: for arbitrary inputs, the computation sorts and preserves
	// the multiset, under both schedulers.
	f := func(in []int16, seed int64) bool {
		if len(in) > 300 {
			in = in[:300]
		}
		keys := make([]int64, len(in))
		for i, v := range in {
			keys[i] = int64(v)
		}
		var s core.Scheduler
		if seed%2 == 0 {
			s = sched.NewPWS()
		} else {
			s = sched.NewRWS(seed)
		}
		got, _ := runSort(4, keys, s, core.Options{})
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSortStability(t *testing.T) {
	// Records (key, id): equal keys must keep their original order.
	m := machine.New(machine.Default(8))
	n := int64(64)
	src := NewRecs(m.Space, n, 2)
	dst := NewRecs(m.Space, n, 2)
	for i := int64(0); i < n; i++ {
		src.Set(m.Space, i, i%4, i) // many duplicate keys
	}
	core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Sort(src, dst))
	var lastKey, lastID int64 = -1, -1
	for i := int64(0); i < n; i++ {
		rec := dst.Get(m.Space, i)
		if rec[0] < lastKey {
			t.Fatalf("not sorted at %d: %v", i, rec)
		}
		if rec[0] == lastKey && rec[1] < lastID {
			t.Fatalf("unstable at %d: id %d after %d for key %d", i, rec[1], lastID, rec[0])
		}
		lastKey, lastID = rec[0], rec[1]
	}
}

func TestSortPayloadIntegrity(t *testing.T) {
	// Payloads must travel with their keys.
	m := machine.New(machine.Default(4))
	n := int64(200)
	rng := rand.New(rand.NewSource(31))
	src := NewRecs(m.Space, n, 3)
	dst := NewRecs(m.Space, n, 3)
	for i := int64(0); i < n; i++ {
		k := int64(rng.Intn(1000))
		src.Set(m.Space, i, k, k*7+1, k*13+2) // payload derived from key
	}
	core.NewEngine(m, sched.NewPWS(), core.Options{}).Run(Sort(src, dst))
	for i := int64(0); i < n; i++ {
		rec := dst.Get(m.Space, i)
		if rec[1] != rec[0]*7+1 || rec[2] != rec[0]*13+2 {
			t.Fatalf("payload corrupted at %d: %v", i, rec)
		}
	}
	if !IsSorted(m.Space, dst) {
		t.Fatal("output not sorted")
	}
}

func TestSortWorkNLogN(t *testing.T) {
	work := func(n int) int64 {
		in := make([]int64, n)
		for i := range in {
			in[i] = int64((i * 2654435761) % 1000)
		}
		_, res := runSort(1, in, sched.NewPWS(), core.Options{})
		return res.Work
	}
	w1, w2 := work(512), work(2048)
	// W(4n)/W(n) ≈ 4·(log 4n / log n) ≈ 4.9 for n=512; allow slack.
	if ratio := float64(w2) / float64(w1); ratio < 3.5 || ratio > 6.5 {
		t.Errorf("work ratio W(2048)/W(512) = %.2f, want ≈4–5 (n log n)", ratio)
	}
}

func TestSortObservation43(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	in := make([]int64, 512)
	for i := range in {
		in[i] = int64(rng.Intn(1000))
	}
	for _, p := range []int{2, 4, 8} {
		_, res := runSort(p, in, sched.NewPWS(), core.Options{})
		if max := res.MaxStealsPerPrio(); max > int64(p-1) {
			t.Errorf("p=%d: %d steals at one priority, want ≤ %d", p, max, p-1)
		}
	}
}
