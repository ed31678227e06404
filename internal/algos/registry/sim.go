package registry

import (
	"repro/internal/algos/fft"
	"repro/internal/algos/graph"
	"repro/internal/algos/listrank"
	"repro/internal/algos/mat"
	"repro/internal/algos/matmul"
	"repro/internal/algos/scan"
	"repro/internal/algos/sortx"
	"repro/internal/algos/strassen"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// simCatalog is every Table-1 algorithm, sized for simulator-scale runs.
var simCatalog = []SimKernel{
	{
		Name: "Scan(M-Sum)", Desc: "up-sweep sum over a balanced tree (BP scan)",
		Typ: "1", F: "1", L: "1",
		W: "O(n)", TInf: "O(log n)", Q: "O(n/B)",
		Sizes:      []int64{4096, 16384, 65536},
		InputWords: func(n int64) int64 { return n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			a := mem.NewArray(m.Space, n)
			FillRand(a, seed+1, 100)
			out := m.Space.Alloc(1)
			tree := mem.NewArray(m.Space, core.UpTreeLen(n))
			return scan.MSum(a, out, tree)
		},
	},
	{
		Name: "Scan(PS)", Desc: "prefix sums: up-sweep then down-sweep (BP scan)",
		Typ: "1", F: "1", L: "1",
		W: "O(n)", TInf: "O(log n)", Q: "O(n/B)",
		Sizes:      []int64{4096, 16384, 65536},
		InputWords: func(n int64) int64 { return n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			a := mem.NewArray(m.Space, n)
			FillRand(a, seed+2, 100)
			out := mem.NewArray(m.Space, n)
			tree := mem.NewArray(m.Space, core.UpTreeLen(n))
			scr := m.Space.Alloc(1)
			return scan.PrefixSums(a, out, tree, scr)
		},
	},
	{
		Name: "MT (BI)", Desc: "matrix transpose, bit-interleaved layout",
		Typ: "1", F: "1", L: "1",
		W: "O(n²)", TInf: "O(log n)", Q: "O(n²/B)",
		Sizes:      []int64{64, 128, 256},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := mat.AllocBI(m.Space, n, 1)
			dst := mat.AllocBI(m.Space, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: src.Base, N: n * n}, seed+3, 1000)
			return mat.MT(src, dst)
		},
	},
	{
		Name: "RM to BI", Desc: "row-major → bit-interleaved layout conversion",
		Typ: "1", F: "√r", L: "1",
		W: "O(n²)", TInf: "O(log n)", Q: "O(n²/B)",
		Sizes:      []int64{64, 128, 256},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := mat.AllocRM(m.Space, n, n, 1)
			dst := mat.AllocBI(m.Space, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: src.Base, N: n * n}, seed+4, 1000)
			return mat.RMtoBI(src, dst)
		},
	},
	{
		Name: "Direct BI-RM", Desc: "bit-interleaved → row-major, ungapped writes",
		Typ: "1", F: "√r", L: "√r",
		W: "O(n²)", TInf: "O(log n)", Q: "O(n²/B)",
		Sizes:      []int64{64, 128, 256},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := mat.AllocBI(m.Space, n, 1)
			dst := mat.AllocRM(m.Space, n, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: src.Base, N: n * n}, seed+5, 1000)
			return mat.DirectBItoRM(src, dst)
		},
	},
	{
		Name: "BI-RM (gap RM)", Desc: "bit-interleaved → gapped row-major (§3.2 gapping)",
		Typ: "1", F: "√r", L: "gap",
		W: "O(n²)", TInf: "O(log n)", Q: "O(n²/B)",
		Sizes:      []int64{64, 128, 256},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := mat.AllocBI(m.Space, n, 1)
			dst := mat.AllocRM(m.Space, n, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: src.Base, N: n * n}, seed+6, 1000)
			return mat.GapBItoRM(src, dst, mat.NewGapLayout(n))
		},
	},
	{
		Name: "BI-RM for FFT", Desc: "layout conversion staged for the FFT (Type-2 HBP)",
		Typ: "2", F: "√r", L: "1",
		W: "O(n² lglg n)", TInf: "O(log n)", Q: "O(n²/B · log_M n)",
		Sizes:      []int64{64, 128, 256},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := mat.AllocBI(m.Space, n, 1)
			dst := mat.AllocRM(m.Space, n, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: src.Base, N: n * n}, seed+7, 1000)
			return mat.BIRMforFFT(src, dst)
		},
	},
	{
		Name: "Strassen (BI)", Desc: "Strassen multiplication on bit-interleaved matrices",
		Typ: "2", F: "1", L: "1",
		W: "O(n^2.81)", TInf: "O(log² n)", Q: "O(n^λ/(B·M^(λ/2−1)))",
		Sizes:      []int64{16, 32, 64},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			a := mat.AllocBI(m.Space, n, 1)
			b := mat.AllocBI(m.Space, n, 1)
			out := mat.AllocBI(m.Space, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: a.Base, N: n * n}, seed+8, 10)
			FillRand(mem.Array{Space: m.Space, Base: b.Base, N: n * n}, seed+9, 10)
			return strassen.Mul(a, b, out)
		},
	},
	{
		Name: "Depth-n-MM", Desc: "cache-oblivious matrix multiply, depth-n recursion",
		Typ: "2", F: "1", L: "1",
		W: "O(n³)", TInf: "O(n)", Q: "O(n³/(B√M))",
		Sizes:      []int64{16, 32, 64},
		InputWords: func(n int64) int64 { return n * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			a := mat.AllocBI(m.Space, n, 1)
			b := mat.AllocBI(m.Space, n, 1)
			out := mat.AllocBI(m.Space, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: a.Base, N: n * n}, seed+10, 10)
			FillRand(mem.Array{Space: m.Space, Base: b.Base, N: n * n}, seed+11, 10)
			return matmul.Mul(a, b, out)
		},
	},
	{
		Name: "FFT", Desc: "cache-oblivious FFT (four-step recursion)",
		Typ: "2", F: "√r", L: "1",
		W: "O(n log n)", TInf: "O(log n·lglg n)", Q: "O(n/B·log_M n)",
		Sizes:      []int64{1024, 4096, 16384},
		InputWords: func(n int64) int64 { return 2 * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := mem.NewCArray(m.Space, n)
			dst := mem.NewCArray(m.Space, n)
			g := LCG(seed + 12)
			for i := int64(0); i < n; i++ {
				src.Set(i, complex(float64(g.Next()%1000)/1000, float64(g.Next()%1000)/1000))
			}
			return fft.Forward(src, dst)
		},
	},
	{
		Name: "Sort (HBP-MS)", Desc: "Type-2 HBP merge-sort sorting subroutine (its fj twin `sortx` is the served sort; the paper's SPMS is the sim-only fj kernel `spms`)",
		Typ: "2", F: "√r", L: "1",
		W: "O(n log n)", TInf: "O(log n·lglg n)*", Q: "O(n/B·log_M n)*",
		Sizes:      []int64{1024, 4096, 16384},
		InputWords: func(n int64) int64 { return n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			src := sortx.NewRecs(m.Space, n, 1)
			dst := sortx.NewRecs(m.Space, n, 1)
			FillRand(mem.Array{Space: m.Space, Base: src.Base, N: n}, seed+13, 1<<30)
			return sortx.Sort(src, dst)
		},
	},
	{
		Name: "LR", Desc: "list ranking with the gapping technique (Thm 4.1)",
		Typ: "3", F: "√r", L: "gap",
		W: "O(n log n)", TInf: "O(log² n·lglg n)", Q: "O(n/B·log_M n)",
		Sizes:      []int64{256, 512, 1024},
		InputWords: func(n int64) int64 { return n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			succ := RandPermList(m.Space, n, seed+14)
			rank := mem.NewArray(m.Space, n)
			return listrank.Rank(succ, rank, listrank.Options{})
		},
	},
	{
		Name: "CC", Desc: "connected components: log n rounds of LR-shaped work (§4.6)",
		Typ: "4", F: "√r", L: "gap",
		W: "O(n log² n)", TInf: "O(log³ n·lglg n)", Q: "O(n/B·log_M n·log n)",
		Sizes:      []int64{64, 128, 256},
		InputWords: func(n int64) int64 { return 3 * n },
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			mEdges := 2 * n
			eu := mem.NewArray(m.Space, mEdges)
			ev := mem.NewArray(m.Space, mEdges)
			FillRand(eu, seed+15, n)
			FillRand(ev, seed+16, n)
			comp := mem.NewArray(m.Space, n)
			return graph.CC(n, eu, ev, comp)
		},
	},
}
