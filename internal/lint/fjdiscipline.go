package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// FJDiscipline returns the fork-join discipline analyzer.  The fj frontend's
// portability contract assumes that all parallelism flows through the
// context a task received.  It reports an fj.Ctx or rt.Ctx escaping into a
// raw goroutine (captured by a go-launched function literal, or passed as
// an argument of a go call): work spawned that way is invisible to the join
// discipline and to the simulator's cost accounting.  Whether every fork is
// joined, once, rt checks at run time.
func FJDiscipline() *Analyzer {
	return &Analyzer{
		Name: "fjdiscipline",
		Doc:  "fj/rt contexts escaping into raw goroutines",
		Run:  runFJDiscipline,
	}
}

func runFJDiscipline(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		out = append(out, checkGoEscapes(p, f)...)
	}
	return out
}

// checkGoEscapes flags go statements that smuggle a fork-join context out
// of the structured world: a Ctx-typed argument to the go call, or a
// go-launched function literal capturing a Ctx-typed variable declared
// outside it.
func checkGoEscapes(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		for _, arg := range g.Call.Args {
			if tv, ok := p.Info.Types[arg]; ok && isCtxType(tv.Type) {
				out = append(out, Finding{
					Pos:      p.Fset.Position(arg.Pos()),
					Analyzer: "fjdiscipline",
					Message:  "fork-join context passed into a raw goroutine; spawn parallel work with Fork so the join discipline and the cost model see it",
				})
			}
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		reported := map[types.Object]bool{}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := p.Info.Uses[id].(*types.Var)
			if !ok || reported[obj] || !isCtxType(obj.Type()) {
				return true
			}
			// Captured means declared outside the literal.
			if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				return true
			}
			reported[obj] = true
			out = append(out, Finding{
				Pos:      p.Fset.Position(id.Pos()),
				Analyzer: "fjdiscipline",
				Message:  fmt.Sprintf("goroutine captures fork-join context %s; spawn parallel work with Fork so the join discipline and the cost model see it", id.Name),
			})
			return true
		})
		return true
	})
	return out
}
