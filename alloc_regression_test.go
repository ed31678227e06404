package repro

// Steady-state allocation pins for the real sort lowerings.  The arena
// discipline (internal/arena slabs + internal/fj frame pooling) is supposed
// to make a warmed pool's per-sort allocation a small constant instead of
// O(recursion nodes); these tests pin that with testing.AllocsPerRun so a
// future change that quietly reintroduces per-node heap traffic fails loudly.
//
// What the pins cover and what remains: slab and fork-frame reuse removes
// the O(n/grain) view and task allocations, but each Parallel/Fork node
// still heap-allocates its captured branch closures, and internal/rt's task
// arena deliberately replaces (never rewinds) its use-once 256-frame slabs —
// together a small, size-stable residue per sort.  The ceilings below sit
// ~2× above the measured residue and ~10× below the pre-arena counts
// (spms at 2^17 was ~1195 allocs / 1.88 MB per op before slab reuse).
// TestKernelAllocRegression pins every catalog kernel the same way, and
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
	"repro/internal/algos/spms"
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
		{"spms/2^14", 1 << 14, func(c *fj.Ctx, v fj.I64) { spms.FJSort(c, v) }, 64, 128 << 10},
		// The spms recursion shape follows the sampled splitter values, so its
		// fork-closure count is input-dependent: ~45 allocs/op on the
		// benchmark's seed-3 keys, ~195 on these seed-7 keys.  The ceiling
		// covers the adversarial shape with ~30% slack.
		{"spms/2^17", 1 << 17, func(c *fj.Ctx, v fj.I64) { spms.FJSort(c, v) }, 256, 512 << 10},
		{"sortx/2^14", 1 << 14, func(c *fj.Ctx, v fj.I64) { sortx.FJSort(c, v) }, 96, 128 << 10},
		{"sortx/2^17", 1 << 17, func(c *fj.Ctx, v fj.I64) { sortx.FJSort(c, v) }, 448, 384 << 10},
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
			if bytes := (m1.TotalAlloc - m0.TotalAlloc) / rounds; bytes > tc.maxBytes {
				t.Errorf("steady-state bytes/op = %d, want <= %d", bytes, tc.maxBytes)
			}
		})
	}
}

// TestKernelAllocRegression pins what one fj.RunReal of each served kernel,
// at the size of its quick sweep, allocates on a warmed, reused pool.  What
// is left once scratch comes from the arena and fork frames from the
// workers' pools is one closure per Fork/Parallel/ForRange call site
// executed — so the count follows the number of forking recursion nodes, not
// the input size: tens for the flat parallel maps, a few hundred for the
// recursions.
// Before the fft got its table-driven real path it allocated closures at
// every recursion node down to single elements: 131 081 objects a run at the
// benchmark's n = 2¹⁶.
func TestKernelAllocRegression(t *testing.T) {
	budget := map[string]float64{
		"scan": 64, "gather": 64,
		// 8 objects a run, three of them its loops' closures (26 under
		// pointer jumping, which ran one loop per round).
		"listrank": 16,
		// Side 128 over real grain 64 is one level of recursion: 12 and 21
		// objects a run (60 and 71 at grain 32).
		"matmul": 48, "strassen": 48,
		"transpose": 600,
		"fft":       1000,
		// The sorts at 2¹⁶ keys; TestSortAllocRegression explains their counts.
		"spms": 256, "sortx": 448,
	}
	pool := rt.NewPool(0, rt.Random)
	t.Cleanup(pool.Close)
	for _, k := range registry.FJKernels() {
		t.Run(k.Name, func(t *testing.T) {
			max, ok := budget[k.Name]
			if !ok {
				t.Fatal("no allocation budget for this kernel")
			}
			work := k.Setup(fj.NewRealEnv(), int64(k.Size(true)), 7)
			run := func() { fj.RunReal(pool, work.Root) }
			for i := 0; i < 3; i++ {
				run()
			}
			if !work.Verify() {
				t.Fatal("warmed run does not verify")
			}
			if arena.Poisoning {
				t.Skip("allocation pins are for the non-instrumented build")
			}
			if allocs := testing.AllocsPerRun(5, run); allocs > max {
				t.Errorf("steady-state allocs/run = %v, want <= %v", allocs, max)
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
// absolute: the kernel's own count follows the input (spms fork closures,
// see sortAllocCases) — most of this request's objects are Submit's.
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
