package fj_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"repro/internal/algos/registry"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
	"repro/internal/sched"
)

// loweringSizes gives each fj kernel the two sizes the lowering fixture
// runs: one off every power of two where the kernel accepts any size.
var loweringSizes = map[string][2]int64{
	"matmul":    {8, 16},
	"strassen":  {8, 16},
	"fft":       {64, 128},
	"transpose": {17, 32},
	"sortx":     {300, 513},
	"spms":      {300, 517},
	"scan":      {600, 1025},
	"gather":    {300, 517},
	"listrank":  {200, 257},
}

// loweringProgram is one program of the lowering fixture: build places its
// inputs in a simulated Env and returns its root and its output words.
type loweringProgram struct {
	name, label string
	size        int64
	build       func(env *fj.Env) (root func(*fj.Ctx), out func() []int64)
}

// loweringPrograms are the fixture's 20 programs: the nine fj kernels at
// both their sizes, seed 7 (listrank's rows rank by wyllieRank, the source
// they were recorded from), plus two shapes the kernels do not reach.
func loweringPrograms(t *testing.T) []loweringProgram {
	var ps []loweringProgram
	for _, k := range registry.FJKernels() {
		sizes, ok := loweringSizes[k.Name]
		if !ok {
			t.Fatalf("no lowering-fixture sizes for %q — add them to loweringSizes", k.Name)
		}
		for _, n := range sizes {
			build := func(env *fj.Env) (func(*fj.Ctx), func() []int64) {
				w := k.Setup(env, n, 7)
				return w.Root, w.Output
			}
			if k.Name == "listrank" {
				build = wyllieProgram(t, n)
			}
			ps = append(ps, loweringProgram{
				name: fmt.Sprintf("%s/n%d", k.Name, n), label: k.Name, size: k.InputWords(n),
				build: build,
			})
		}
	}
	return append(ps,
		loweringProgram{name: "staggered", label: "staggered", size: 64, build: staggeredProgram},
		loweringProgram{name: "tree7", label: "tree7", size: 128, build: treeProgram},
	)
}

// wyllieProgram is the listrank rows' program: the catalog's seed-7
// payload placed as Setup places it (the successor view, then the rank
// view), ranked by wyllieRank.  The fixture holds the lowering, not the
// kernels, to its record, and these rows were recorded from the
// pointer-jumping source listrank served before its sublist ranking, so
// they keep running that source.
func wyllieProgram(t *testing.T, n int64) func(env *fj.Env) (func(*fj.Ctx), func() []int64) {
	inv, ok := registry.FindInvocable("listrank")
	if !ok {
		t.Fatal("no listrank invocable")
	}
	w, err := inv.Gen(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return func(env *fj.Env) (func(*fj.Ctx), func() []int64) {
		succ := fj.ViewOf[int64](env, w)
		rank := env.I64(n)
		return func(c *fj.Ctx) { wyllieRank(c, succ, rank) }, rank.Words
	}
}

// wyllieRankGrainSim is the simulator's leaf of wyllieRank's maps.
const wyllieRankGrainSim = 32

// wyllieRank ranks the list succ by Wyllie's pointer jumping: ⌈log₂ n⌉
// double-buffered rounds, each halving every node's distance to the tail.
func wyllieRank(c *fj.Ctx, succ, rank fj.I64) {
	n := succ.Len()
	if rank.Len() != n {
		panic("listrank: FJRank length mismatch")
	}
	nxt := c.ScratchI64(n)   // the init map below writes every slot
	rank2 := c.ScratchI64(n) // each round fully writes the next generation
	nxt2 := c.ScratchI64(n)
	c.ForRange(0, n, wyllieRankGrainSim, func(c *fj.Ctx, lo, hi int64) {
		if ss := succ.Raw(); ss != nil {
			ns, rs := nxt.Raw()[lo:hi], rank.Raw()[lo:hi]
			for i, s := range ss[lo:hi] {
				ns[i] = s
				if s >= 0 {
					rs[i] = 1
				} else {
					rs[i] = 0
				}
			}
			return
		}
		for i := lo; i < hi; i++ {
			s := succ.Get(c, i)
			nxt.Set(c, i, s)
			if s >= 0 {
				rank.Set(c, i, 1)
			} else {
				rank.Set(c, i, 0)
			}
		}
	})
	curR, curS, nextR, nextS := rank, nxt, rank2, nxt2
	rounds := 0
	for span := int64(1); span < n; span *= 2 {
		c.ForRange(0, n, wyllieRankGrainSim, func(c *fj.Ctx, lo, hi int64) {
			if cr := curR.Raw(); cr != nil {
				cs, nr, ns := curS.Raw(), nextR.Raw()[lo:hi], nextS.Raw()[lo:hi]
				for i, s := range cs[lo:hi] {
					r := cr[lo+int64(i)]
					if s >= 0 {
						r += cr[s]
						s = cs[s]
					}
					nr[i] = r
					ns[i] = s
				}
				return
			}
			for i := lo; i < hi; i++ {
				r, s := curR.Get(c, i), curS.Get(c, i)
				if s >= 0 {
					r += curR.Get(c, s)
					s = curS.Get(c, s)
				}
				nextR.Set(c, i, r)
				nextS.Set(c, i, s)
			}
		})
		curR, curS, nextR, nextS = nextR, nextS, curR, curS
		rounds++
	}
	// The ping-pong leaves the final generation in rank itself after an even
	// number of rounds; after an odd number it sits in the scratch buffer.
	if rounds%2 == 1 {
		c.ForRange(0, n, wyllieRankGrainSim, func(c *fj.Ctx, lo, hi int64) {
			if cr := curR.Raw(); cr != nil {
				copy(rank.Raw()[lo:hi], cr[lo:hi])
				return
			}
			for i := lo; i < hi; i++ {
				rank.Set(c, i, curR.Get(c, i))
			}
		})
	}
	c.FreeI64(nxt)
	c.FreeI64(rank2)
	c.FreeI64(nxt2)
}

// staggeredProgram forks twice, joins the inner fork, works, joins the outer
// one, then forks a child that allocates scratch and fills it in a ForRange.
func staggeredProgram(env *fj.Env) (func(*fj.Ctx), func() []int64) {
	in, out := env.I64(64), env.I64(64)
	for i := range int64(64) {
		in.Store(i, 3*i%11)
	}
	return func(c *fj.Ctx) {
		h0 := c.Fork(func(c *fj.Ctx) {
			for i := int64(0); i < 32; i++ {
				out.Set(c, i, 2*in.Get(c, i))
			}
		})
		h1 := c.Fork(func(c *fj.Ctx) {
			c.Op(5)
			out.Set(c, 40, in.Get(c, 40)+1)
		})
		c.Join(h1)
		for i := int64(48); i < 64; i++ {
			out.Set(c, i, in.Get(c, i)+out.Get(c, 40))
		}
		c.Join(h0)
		h2 := c.Fork(func(c *fj.Ctx) {
			s := c.AllocI64(32)
			c.ForRange(0, 32, 4, func(c *fj.Ctx, lo, hi int64) {
				for i := lo; i < hi; i++ {
					s.Set(c, i, out.Get(c, i)+i)
				}
			})
			var sum int64
			for i := int64(0); i < 32; i++ {
				sum += s.Get(c, i)
			}
			out.Set(c, 33, sum)
		})
		c.Join(h2)
	}, out.Words
}

// treeProgram is a depth-7 nested Parallel tree that allocates at every
// node.
func treeProgram(env *fj.Env) (func(*fj.Ctx), func() []int64) {
	const depth = 7
	out := env.I64(1 << depth)
	var tree func(c *fj.Ctx, d int, lo int64)
	tree = func(c *fj.Ctx, d int, lo int64) {
		s := c.AllocI64(2)
		s.Set(c, 0, lo+int64(d))
		if d == 0 {
			out.Set(c, lo, s.Get(c, 0))
			return
		}
		half := int64(1) << (d - 1)
		c.Parallel(func(c *fj.Ctx) { tree(c, d-1, lo) }, func(c *fj.Ctx) { tree(c, d-1, lo+half) })
		out.Set(c, lo, out.Get(c, lo)+s.Get(c, 0))
	}
	return func(c *fj.Ctx) { tree(c, depth, 0) }, out.Words
}

// loweredSum runs prog under the given configuration and hashes everything
// observable of the run: its core.Result, its TaskStart/TaskEnd stream and
// its output words.
func loweredSum(prog loweringProgram, p int, schedName string, padded bool) string {
	var s core.Scheduler = sched.NewPWS()
	if schedName == "rws" {
		s = sched.NewRWS(12345)
	}
	m := machine.New(machine.Default(p))
	root, out := prog.build(fj.NewSimEnv(m))
	node := fj.SimNode(m, prog.size, prog.label, root)
	h := sha256.New()
	eng := core.NewEngine(m, s, core.Options{Padded: padded})
	eng.Hooks = &core.Hooks{
		TaskStart: func(id, parent int64, prio int, size int64, proc int, now int64, stolen bool) {
			fmt.Fprintln(h, "start", id, parent, prio, size, proc, now, stolen)
		},
		TaskEnd: func(id int64, proc int, now int64) {
			fmt.Fprintln(h, "end", id, proc, now)
		},
	}
	fmt.Fprintf(h, "%#v\n", eng.Run(node)) // %#v: every field, not Result.String
	binary.Write(h, binary.LittleEndian, out())
	return hex.EncodeToString(h.Sum(nil))
}

// loweringLines is one fixture line per run: the run's hash and its name.
func loweringLines(t *testing.T) []string {
	var lines []string
	for _, prog := range loweringPrograms(t) {
		for _, p := range []int{1, 2, 8} {
			for _, schedName := range []string{"pws", "rws"} {
				for _, padded := range []bool{false, true} {
					name := fmt.Sprintf("%s/p%d/%s/padded=%v", prog.name, p, schedName, padded)
					lines = append(lines, loweredSum(prog, p, schedName, padded)+" "+name)
				}
			}
		}
	}
	return lines
}

// TestSimLoweringMatchesReference holds the sim lowering to the coroutine
// lowering it replaced, whose runs testdata/sim-lowering.sha256 records: 20
// programs, under PWS and RWS, at p = 1, 2 and 8, with padded and unpadded
// stacks, must give an identical core.Result, an identical TaskStart/TaskEnd
// stream and identical output words.  Never re-record the file to make a
// change pass.
func TestSimLoweringMatchesReference(t *testing.T) {
	f, err := os.Open("testdata/sim-lowering.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := loweringLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, the fixture holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs from the fixture:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
