package repro

// Steady-state allocation pins for the served sort's real lowering.  The arena
// discipline (internal/arena slabs + internal/fj frame pooling) is supposed
// to make a warmed pool's per-sort allocation a small constant instead of
// O(recursion nodes); these tests pin that with testing.AllocsPerRun so a
// future change that quietly reintroduces per-node heap traffic fails loudly.
//
// What the pins cover and what remains: slab and fork-frame reuse removes
// the O(n/grain) view and task allocations — fj recycles its frames, rt
// hands a joined task frame to the next fork on the same worker, and the
// arena's bounded free lists pass the slabs stealing moves between workers
// back through a shared spill — but each Parallel node still heap-allocates
// its captured branch closures, a small, size-stable residue per sort.  The
// pools here have GOMAXPROCS workers, so the closure count follows the
// host's steals: on 2 workers sortx makes 6 allocs / ~0.6 KB a sort at 2^14
// and 37 / ~6.1 KB at 2^17, and the ceilings leave room for wider hosts.
// Before slab reuse the real spms sort at 2^17 made ~1195 allocs / 1.88 MB
// per op.
// TestKernelAllocRegression pins every catalog kernel's objects and bytes, and
// TestInvokeAllocRegression, at the end, the service's HTTP edge.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/algos/sortx"
	"repro/internal/arena"
	"repro/internal/fj"
	"repro/internal/rt"
	"repro/internal/serve"
)

type allocCase struct {
	name      string
	n         int
	kernel    func(*fj.Ctx, fj.I64)
	maxAllocs float64 // allocations per sort, warmed pool
	maxBytes  uint64  // heap bytes per sort, warmed pool
}

func sortAllocCases() []allocCase {
	return []allocCase{
		{"sortx/2^14", 1 << 14, func(c *fj.Ctx, v fj.I64) { sortx.FJSort(c, v) }, 32, 32 << 10},
		{"sortx/2^17", 1 << 17, func(c *fj.Ctx, v fj.I64) { sortx.FJSort(c, v) }, 128, 64 << 10},
	}
}

func TestSortAllocRegression(t *testing.T) {
	for _, tc := range sortAllocCases() {
		t.Run(tc.name, func(t *testing.T) {
			src := benchKeys(tc.n, 7)
			env := fj.NewRealEnv()
			data := env.I64(int64(tc.n))
			pool := rt.NewPool(0, rt.Random)
			t.Cleanup(pool.Close)
			run := func() {
				copy(data.Raw(), src)
				fj.RunReal(pool, func(c *fj.Ctx) { tc.kernel(c, data) })
			}
			// Warm the worker shards to steady state: the first runs populate
			// the size-class free lists that later runs recycle.
			for i := 0; i < 3; i++ {
				run()
			}
			if arena.Poisoning {
				// Race build: the detector's shadow state allocates per
				// synchronization op, so numeric pins are meaningless — but
				// the warmed runs above still exercised slab recycling under
				// the detector, which is what the race gate is for.
				t.Skip("allocation pins are for the non-instrumented build")
			}
			allocs := testing.AllocsPerRun(5, run)
			if allocs > tc.maxAllocs {
				t.Errorf("steady-state allocs/op = %v, want <= %v", allocs, tc.maxAllocs)
			}
			const rounds = 5
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < rounds; i++ {
				run()
			}
			runtime.ReadMemStats(&m1)
			bytes := (m1.TotalAlloc - m0.TotalAlloc) / rounds
			t.Logf("%.0f allocs, %d bytes a sort", allocs, bytes)
			if bytes > tc.maxBytes {
				t.Errorf("steady-state bytes/op = %d, want <= %d", bytes, tc.maxBytes)
			}
		})
	}
}

// TestKernelAllocRegression pins what one fj.RunReal of each served kernel,
// at the size of its quick sweep, allocates on a warmed, reused 2-worker
// pool: objects and bytes.  What is left once scratch comes from the arena
// and fork frames are reused after their joins is one closure per
// Parallel/ForRange call site executed — so the count follows the number of
// forking recursion nodes, not the input size: tens for the flat parallel
// maps, a few hundred for the recursions.
// Before the fft got its table-driven real path it allocated closures at
// every recursion node down to single elements: 131 081 objects a run at the
// benchmark's n = 2¹⁶.
//
// Objects alone did not show two leaks: rt carved a fresh 128-byte frame
// for every fork, and a shard kept every slab a stolen task released to it,
// so a thief went on making slabs while its victim's list grew (strassen at
// side 256, p = 2: 240 KB a run and a heap that never stopped growing).
// Neither changes the object count much — a frame slab is one object per
// 256 forks, a slab one per miss — so bytes are pinned too.
//
// A loop forks on demand, so its closure count follows steals: on 2 workers
// scan and gather read 7 and 6 every time, but with more workers than CPUs
// single measurements read up to 24.  Both counts are the least of three
// measurements, the least-disturbed schedule's, and each budget ~2× that.
func TestKernelAllocRegression(t *testing.T) {
	// Objects and bytes a run, each the least of three 5-run batches, on
	// the parent of the change that reused frames and bounded the free
	// lists, and after it.  The objects did not move.  The parent's bytes
	// ranged over four test runs, as a frame slab or a slab miss fell in a
	// batch or not:
	//
	//	kernel     objects  bytes before      bytes after
	//	matmul     11       1.7 KB            1.7 KB
	//	strassen   13       1.9 – 26.5 KB     1.8 – 2.0 KB
	//	sortx      53       9.8 KB            9.8 KB   (16 objects, 2.2 KB
	//	                                               at merge grain 16384)
	//	scan        7       0.6 KB            0.6 KB
	//	fft        69       16.0 – 22.5 KB    2.9 KB
	//	transpose  68       11.3 – 17.9 KB    11.3 KB
	//	gather      6       0.4 – 7.0 KB      0.4 – 0.5 KB
	//	listrank    8       0.7 – 7.3 KB      0.7 KB
	//
	// Object budgets are the earlier ones; byte budgets are ~2× the after
	// column.
	budget := map[string]struct {
		objs  float64
		bytes uint64
	}{
		"scan": {16, 1200}, "gather": {16, 1000},
		// 8 objects a run, three of them its loops' closures (26 under
		// pointer jumping, which ran one loop per round).
		"listrank": {16, 1500},
		// Side 128 over real grain 64 is one level of recursion (60 and 71
		// objects a run at grain 32).
		"matmul": {48, 3500}, "strassen": {48, 4000},
		// Side 512 over 64×64 leaves (261 objects over 32×32).
		"transpose": {160, 24000},
		"fft":       {160, 6000},
		// The sort at 2¹⁶ keys; TestSortAllocRegression explains its count.
		"sortx": {64, 6000},
	}
	pool := rt.NewPool(2, rt.Random)
	t.Cleanup(pool.Close)
	for _, k := range registry.RealKernels() {
		t.Run(k.Name, func(t *testing.T) {
			max, ok := budget[k.Name]
			if !ok {
				t.Fatal("no allocation budget for this kernel")
			}
			work := k.Setup(fj.NewRealEnv(), int64(k.Size(true)), 7)
			run := func() { fj.RunReal(pool, work.Root) }
			// Warm until the free lists are settled, not just stocked: the
			// slabs a thief makes pile up on its victim's list until that
			// list reaches its cap, and only its overflow reaches the
			// thief again, through the spill.
			for i := 0; i < 20; i++ {
				run()
			}
			if !work.Verify() {
				t.Fatal("warmed run does not verify")
			}
			if arena.Poisoning {
				t.Skip("allocation pins are for the non-instrumented build")
			}
			const rounds = 5
			objs, bytes := math.Inf(1), uint64(math.MaxUint64)
			for range 3 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for range rounds {
					run()
				}
				runtime.ReadMemStats(&m1)
				objs = min(objs, float64(m1.Mallocs-m0.Mallocs)/rounds)
				bytes = min(bytes, (m1.TotalAlloc-m0.TotalAlloc)/rounds)
			}
			t.Logf("%.0f objects, %d bytes a run", objs, bytes)
			if objs > max.objs {
				t.Errorf("steady-state allocs/run = %v, want <= %v", objs, max.objs)
			}
			if bytes > max.bytes {
				t.Errorf("steady-state bytes/run = %d, want <= %d", bytes, max.bytes)
			}
		})
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing, so the pins
// below count the service's allocations and not a recorder's.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestInvokeAllocRegression pins what one explicit-payload `sort` /invoke
// allocates through Service.Handler(), warmed.  A request runs as one root
// over recycled buffers: the body, the input and output word slabs and the
// encoded response all come from the service's free lists, so a large
// request costs what it costs in objects (its kernel's fork closures, its
// codec loops) and nothing of its size.  Under encoding/json the
// 65536-word request was 6.0 MB and 136 objects, the 256-word one 13.4 KB
// and 32 objects; with the hand-rolled codec but fresh word slabs, 1.07 MB
// and 4.7 KB.
//
// Objects are pinned against Submit on the same payload rather than as an
// absolute: the kernel's own count follows the schedule (sortx fork
// closures, see below) — most of this request's objects are Submit's.
func TestInvokeAllocRegression(t *testing.T) {
	if arena.Poisoning {
		t.Skip("allocation pins are for the non-instrumented build")
	}
	cases := []struct {
		n          int
		maxBytes   uint64 // per request, whole path
		maxObjects uint64 // per request, whole path
		maxOverSub uint64 // objects the HTTP edge may add to Submit's
	}{
		{256, 8 << 10, 20, 12},   // encoding/json: 13.4 KB, 32 objects
		{65536, 64 << 10, 0, 12}, // fresh word slabs: 1.07 MB
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("sort/%d", tc.n), func(t *testing.T) {
			svc := serve.New(serve.Config{})
			t.Cleanup(svc.Close)
			h := svc.Handler()
			in := benchKeys(tc.n, 7)
			body, err := json.Marshal(serve.Request{Kernel: "sort", Input: in})
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 10
			measure := func(run func(i int)) (bytes, objects uint64) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < rounds; i++ {
					run(i)
				}
				runtime.ReadMemStats(&m1)
				return (m1.TotalAlloc - m0.TotalAlloc) / rounds, (m1.Mallocs - m0.Mallocs) / rounds
			}
			w := &discardWriter{h: http.Header{}}
			overHTTP := func() (uint64, uint64) {
				reqs := make([]*http.Request, rounds) // built outside the measured region
				for i := range reqs {
					reqs[i], _ = http.NewRequest("POST", "/invoke", bytes.NewReader(body))
				}
				return measure(func(i int) { h.ServeHTTP(w, reqs[i]) })
			}
			overSubmit := func() (uint64, uint64) {
				return measure(func(int) {
					if _, err := svc.Submit(context.Background(), serve.Request{Kernel: "sort", Input: in}); err != nil {
						t.Fatal(err)
					}
				})
			}
			overHTTP() // warm the pool's arenas and the service's buffer list
			overHTTP()
			// A sort's fork closures follow how often a worker found its
			// deque empty, so one measurement's object count swings with
			// the schedule: each side is read off its least-disturbed
			// (minimum) of several, and the bytes off the largest.
			const reps = 5
			gotBytes, gotObjects, subObjects := uint64(0), uint64(math.MaxUint64), uint64(math.MaxUint64)
			for range reps {
				b, o := overHTTP()
				gotBytes, gotObjects = max(gotBytes, b), min(gotObjects, o)
				_, o = overSubmit()
				subObjects = min(subObjects, o)
			}
			if gotBytes > tc.maxBytes {
				t.Errorf("bytes/request = %d, want <= %d", gotBytes, tc.maxBytes)
			}
			if tc.maxObjects > 0 && gotObjects > tc.maxObjects {
				t.Errorf("objects/request = %d, want <= %d", gotObjects, tc.maxObjects)
			}
			if gotObjects > subObjects+tc.maxOverSub {
				t.Errorf("objects/request = %d over HTTP, %d through Submit: the edge adds more than %d", gotObjects, subObjects, tc.maxOverSub)
			}
		})
	}
}
