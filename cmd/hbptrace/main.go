// Command hbptrace runs one kernel from the registry on the simulated
// multicore and dumps the full metric breakdown: per-proc counters, steal
// histogram by priority, and (with -trace) the f(r) and L(r) tables, the
// balance ratio and the most writes to one word, measured in a pass over
// the run's recording (internal/trace).
// -algos lists every registered kernel sorted by (name, backend) — entries
// tagged [fj] are lowered from a unified fork-join source and exist under
// both backends.  Only "sim" entries can be traced (the "real" backend has
// no simulated counters — run it via hbpbench -exp EXP13); that includes
// the fj sim lowerings, so `hbptrace -algo matmul` traces the same program
// text EXP13 times on hardware.
//
//	hbptrace -algo "FFT" -n 1024 -p 8
//	hbptrace -algo matmul -n 32 -p 8       # fj-unified kernel, sim lowering
//	hbptrace -algo "Scan(M-Sum)" -n 4096 -p 8 -sched rws -trace
//	hbptrace -algos
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/algos/registry"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hbptrace: %v\n", err)
		os.Exit(2)
	}
}

// run parses args as the command line and writes the dump to w.
func run(args []string, w io.Writer) error {
	def := machine.Default(8)
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		algoName = fs.String("algo", "Scan(M-Sum)", "catalog algorithm name (see -algos)")
		listOnly = fs.Bool("algos", false, "list algorithms and exit")
		n        = fs.Int64("n", 0, "problem size (0 = the algorithm's default)")
		p        = fs.Int("p", def.P, "number of simulated cores")
		mWords   = fs.Int("M", def.M, "private cache size in words")
		bWords   = fs.Int("B", def.B, "block size in words")
		lat      = fs.Int64("b", def.MissLatency, "cache-miss latency")
		schedStr = fs.String("sched", "pws", "scheduler: pws or rws")
		padded   = fs.Bool("padded", false, "use padded execution stacks (§4.7)")
		seed     = fs.Uint64("seed", 0, "input seed (0 = the historical fixed inputs)")
		doTrace  = fs.Bool("trace", false, "record the run and measure f(r), L(r), balance and writes per word")
	)
	fs.Parse(args)

	if *listOnly {
		// registry.All is sorted by (name, backend), so this listing is
		// deterministic and diffable run to run.
		for _, k := range registry.All() {
			tag := "    "
			if k.FJ != nil {
				tag = "[fj]"
			}
			switch k.Backend {
			case registry.Sim:
				a := k.Sim
				fmt.Fprintf(w, "%-16s %-5s %s type %-2s f=%-3s L=%-4s sizes %-22s %s\n",
					a.Name, k.Backend, tag, a.Typ, a.F, a.L, fmt.Sprintf("%v", a.Sizes), k.Desc)
			case registry.Real:
				fmt.Fprintf(w, "%-16s %-5s %s %s\n", k.Name, k.Backend, tag, k.Desc)
			}
		}
		return nil
	}
	kernel, ok := registry.Find(*algoName, registry.Sim)
	if !ok {
		return fmt.Errorf("no sim kernel %q in the registry (try -algos)", *algoName)
	}
	algo := *kernel.Sim
	size := *n
	if size == 0 {
		size = algo.Sizes[0]
	}

	spec := bench.Spec{P: *p, M: *mWords, B: *bWords, MissLatency: *lat, Sched: *schedStr, Padded: *padded, Seed: *seed}
	var res core.Result
	var tape *core.Tape
	if *doTrace {
		var err error
		if res, tape, err = bench.Record(algo, size, spec); err != nil {
			return err
		}
	} else {
		res = bench.Run(algo, size, spec)
	}

	fmt.Fprintf(w, "%s n=%d\n%s", algo.Name, size, res.String())
	fmt.Fprintln(w, "per-proc:")
	for i, ps := range res.PerProc {
		fmt.Fprintf(w, "  proc %2d: ops=%d rd=%d wr=%d hit=%d cold=%d block=%d upg=%d idle=%d steal=%d\n",
			i, ps.Ops, ps.Reads, ps.Writes, ps.Hits, ps.ColdMisses,
			ps.BlockMisses, ps.UpgradeMisses, ps.IdleTime, ps.StealTime)
	}
	fmt.Fprintln(w, "steals by priority:")
	fmt.Fprint(w, res.PrioHistogram())

	if tape != nil {
		pm := trace.Measure(tape)
		fmt.Fprintf(w, "f(r) excess by task size (worst case of %d tasks):\n", pm.Tasks)
		for _, pt := range pm.F {
			fmt.Fprintf(w, "  size %8d: blocks=%d excess=%d\n", pt.Size, pt.Blocks, pt.Excess)
		}
		fmt.Fprintln(w, "L(r) blocks shared with parallel tasks, by task size (worst case):")
		for _, pt := range pm.L {
			fmt.Fprintf(w, "  size %8d: shared=%d\n", pt.Size, pt.Shared)
		}
		fmt.Fprintf(w, "balance ratio (same-priority size spread): %.2f\n", pm.Balance)
		fmt.Fprintf(w, "max writes to one word (limited access): %d\n", pm.MaxWrites)
	}
	return nil
}
