package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"strings"
)

// DefaultGrainAuditSizes maps each fj kernel package (its final import-path
// segment) to the smallest problem size the registry's sim-backend sweep
// feeds it, expressed in the unit that package's Grain cutoffs compare
// against: the matrix side for matmul and strassen, the element count
// everywhere else (transpose grains on rows·cols, so the "mat" entry is the
// smallest swept side squared).  The registry drift test pins this table
// against registry.FJKernels()' SimSizes so a sweep change cannot silently
// stale the audit.
var DefaultGrainAuditSizes = map[string]int64{
	"matmul":   16,
	"strassen": 16,
	"sortx":    512,
	"spms":     4096,
	"scan":     1024,
	"fft":      128,
	"mat":      1024,
	"gather":   512,
	"listrank": 256,
}

// GrainAudit returns the grain-literal analyzer: inside the fj kernel
// packages it resolves the simulated-backend argument of every
// <ctx>.Grain(sim, real) call, and the grain (third) argument of every
// <ctx>.ForRange call — which only the simulator reads — to its constant
// value and flags any cutoff at or above the package's smallest registry
// sweep size.  A sim grain that large makes the kernel run serially at the
// sweep's low end, so the EXP14 constant fits and the EXP15 depth envelope
// would be fitted to a recursion that never forks — the measurements stay
// green while measuring nothing.
// Non-constant sim arguments are out of scope (none exist today; the grains
// are deliberately package-level constants so the audit can be static).
func GrainAudit(minFit map[string]int64) *Analyzer {
	return &Analyzer{
		Name: "grainaudit",
		Doc:  "sim Grain cutoff at or above the smallest registry sweep size, so the sim sweep's low end never forks",
		Run:  func(p *Package) []Finding { return runGrainAudit(p, minFit) },
	}
}

func runGrainAudit(p *Package, minFit map[string]int64) []Finding {
	segs := strings.Split(p.Path, "/")
	seg := strings.TrimSuffix(segs[len(segs)-1], "_test")
	limit, ok := minFit[seg]
	if !ok {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg := -1
			switch sel.Sel.Name {
			case "Grain":
				arg = 0
			case "ForRange":
				arg = 2
			}
			if arg < 0 || len(call.Args) <= arg {
				return true
			}
			tv, ok := p.Info.Types[sel.X]
			if !ok || !isCtxType(tv.Type) {
				return true
			}
			atv, ok := p.Info.Types[call.Args[arg]]
			if !ok || atv.Value == nil {
				return true
			}
			sim, ok := constant.Int64Val(constant.ToInt(atv.Value))
			if !ok || sim < limit {
				return true
			}
			out = append(out, Finding{
				Pos:      p.Fset.Position(call.Args[arg].Pos()),
				Analyzer: "grainaudit",
				Message: fmt.Sprintf("sim grain %d is at or above %d, the smallest size the registry sweep feeds %s: the sim lowering would run the sweep's low end serially and the EXP14/EXP15 fits would measure a recursion that never forks",
					sim, limit, seg),
			})
			return true
		})
	}
	return out
}
