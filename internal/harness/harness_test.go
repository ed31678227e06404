package harness

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGridSpecsCrossProduct(t *testing.T) {
	g := Grid{
		Ps: []int{1, 8}, Ms: []int{1024}, Bs: []int{8, 16, 32},
		Scheds: []string{"pws", "rws"}, Padded: []bool{false, true},
		Repeats: 3, Seed: 100, MissLatency: 8,
	}
	specs := g.Specs()
	if want := 2 * 1 * 3 * 2 * 2 * 3; len(specs) != want {
		t.Fatalf("got %d specs, want %d", len(specs), want)
	}
	seen := map[Spec]bool{}
	for _, s := range specs {
		if seen[s] {
			t.Fatalf("duplicate spec %+v", s)
		}
		seen[s] = true
		if s.Seed != 100+uint64(s.Repeat) {
			t.Errorf("spec %+v: seed %d, want %d", s, s.Seed, 100+uint64(s.Repeat))
		}
	}
}

func TestGridSpecsDefaults(t *testing.T) {
	specs := Grid{}.Specs()
	if len(specs) != 1 {
		t.Fatalf("zero grid expands to %d specs, want 1", len(specs))
	}
	want := Spec{P: 8, M: 1024, B: 16, MissLatency: 8, Sched: "pws"}
	if specs[0] != want {
		t.Errorf("zero grid spec = %+v, want %+v", specs[0], want)
	}
	if d := DefaultGrid().Specs()[0]; d != want {
		t.Errorf("DefaultGrid spec = %+v, want %+v", d, want)
	}
}

// buildCells makes n cells that each emit two rows tagged with their index.
func buildCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell{
			Exp:       "EXPTEST",
			Exclusive: i%7 == 3, // a few exclusive cells mixed in
			Run: func() []Row {
				return []Row{
					{Exp: "EXPTEST", Algo: fmt.Sprintf("cell%03d", i), N: int64(i), Note: "a"},
					{Exp: "EXPTEST", Algo: fmt.Sprintf("cell%03d", i), N: int64(i), Note: "b"},
				}
			},
		}
	}
	return cells
}

func TestExecuteOrderIndependentOfParallelism(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		rows := Execute(buildCells(50), par)
		if len(rows) != 100 {
			t.Fatalf("parallel=%d: %d rows, want 100", par, len(rows))
		}
		for i, r := range rows {
			if r.N != int64(i/2) {
				t.Fatalf("parallel=%d: row %d is from cell %d, want %d", par, i, r.N, i/2)
			}
		}
	}
}

func TestExecuteParallelMatchesSerial(t *testing.T) {
	serial := Execute(buildCells(40), 1)
	parallel := Execute(buildCells(40), 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("row sets differ between parallel=1 and parallel=8")
	}
}

// trackedCells makes n cells that hold a slot in inFlight for a moment and
// hand the count they saw (themselves included) to seen.
func trackedCells(n int, exclusive func(i int) bool, inFlight *atomic.Int64, seen func(i int, running int64)) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Exp: "EXPTEST", Exclusive: exclusive(i), Run: func() []Row {
			seen(i, inFlight.Add(1))
			time.Sleep(200 * time.Microsecond)
			seen(i, inFlight.Load())
			inFlight.Add(-1)
			return []Row{{Exp: "EXPTEST", Algo: "tracked", N: int64(i)}}
		}}
	}
	return cells
}

func TestExecuteBoundsConcurrency(t *testing.T) {
	for _, par := range []int{2, 8} {
		var inFlight atomic.Int64
		var mu sync.Mutex
		var peak int64
		cells := trackedCells(40, func(int) bool { return false }, &inFlight, func(_ int, running int64) {
			mu.Lock()
			peak = max(peak, running)
			mu.Unlock()
		})
		Execute(cells, par)
		if peak > int64(par) || peak < 1 {
			t.Errorf("parallel=%d: peak %d cells in flight", par, peak)
		}
	}
}

func TestExecuteExclusiveRunsAlone(t *testing.T) {
	exclusive := func(i int) bool { return i%5 == 2 }
	var inFlight atomic.Int64
	var ran atomic.Int32
	cells := trackedCells(30, exclusive, &inFlight, func(i int, running int64) {
		if !exclusive(i) {
			return
		}
		ran.Add(1)
		if running != 1 {
			t.Errorf("exclusive cell %d ran beside %d other cells", i, running-1)
		}
	})
	Execute(cells, 8)
	if ran.Load() != 2*6 {
		t.Errorf("exclusive cells checked %d times, want 12", ran.Load())
	}
}

func TestExecuteEmpty(t *testing.T) {
	if rows := Execute(nil, 8); len(rows) != 0 {
		t.Errorf("empty cell list produced %d rows", len(rows))
	}
}

func TestNormalizeZeroesVolatile(t *testing.T) {
	rows := []Row{
		{Exp: "EXP01", Makespan: 5, WallNS: 123, Ratio: 1.5},
		{Exp: "EXP13", Makespan: 5, WallNS: 123, Steals: 9, Aux1: 3.2, Volatile: true},
	}
	norm := Normalize(rows)
	if rows[0].WallNS != 123 {
		t.Error("Normalize mutated its input")
	}
	if norm[0].WallNS != 0 || norm[0].Makespan != 5 || norm[0].Ratio != 1.5 {
		t.Errorf("non-volatile row over-normalized: %+v", norm[0])
	}
	if norm[1].Steals != 0 || norm[1].Aux1 != 0 || norm[1].Makespan != 0 || !norm[1].Volatile {
		t.Errorf("volatile row under-normalized: %+v", norm[1])
	}
}
