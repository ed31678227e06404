package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// FJDiscipline returns the fork-join discipline analyzer.  The fj frontend's
// portability contract assumes that all parallelism flows through the
// context a task received, and a series-parallel computation that every
// fork is joined: fj's Parallel and ForRange guarantee the second, raw
// rt.Ctx Fork/Join calls only by convention.  Two classes of violation are
// reported:
//
//   - an fj.Ctx or rt.Ctx escaping into a raw goroutine (captured by a
//     go-launched function literal, or passed as an argument of a go call):
//     work spawned that way is invisible to the join discipline and to the
//     simulator's cost accounting;
//   - Fork results that can never be joined: a Fork called for its side
//     effect (result discarded or assigned to _), a handle variable that is
//     never passed to Join in its function, or handles stored into a
//     container in a function that contains no Join call at all.
func FJDiscipline() *Analyzer {
	return &Analyzer{
		Name: "fjdiscipline",
		Doc:  "fj/rt contexts escaping into raw goroutines; Fork paths that can miss their Join",
		Run:  runFJDiscipline,
	}
}

func runFJDiscipline(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		out = append(out, checkGoEscapes(p, f)...)
		out = append(out, checkForkJoin(p, f)...)
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

// isForkCall reports whether call is <ctx>.Fork(...) on an fj or rt context.
func isForkCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Fork" {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	return ok && isCtxType(tv.Type)
}

// isJoinCall reports whether call is <ctx>.Join(...).
func isJoinCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Join" {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	return ok && isCtxType(tv.Type)
}

// checkForkJoin flags Fork calls whose handle is discarded, and handle
// variables that no Join of the enclosing function ever receives.  A handle
// that leaves the function some other way (returned, stored into a struct,
// passed along) transfers the join obligation to the consumer and is only
// checked loosely: storing into a container still requires at least one
// Join call somewhere in the function.
func checkForkJoin(p *Package, f *ast.File) []Finding {
	var out []Finding
	// Walk each function body (declaration or literal) independently; nested
	// literals are visited in their own right and skipped in the parent.
	var visitBody func(body *ast.BlockStmt)
	visitBody = func(body *ast.BlockStmt) {
		var handleVars []*ast.Ident         // LHS idents assigned from Fork
		var containerStores []*ast.CallExpr // Forks stored into index/field targets
		var discards []*ast.CallExpr        // Forks whose result is dropped
		joined := map[types.Object]bool{}   // handle objects some Join receives
		joinCount := 0

		// Joins are collected over the whole body, nested literals included:
		// a Join inside a deferred closure still discharges an outer handle.
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isJoinCall(p, call) {
				return true
			}
			joinCount++
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil {
							joined[obj] = true
						}
					}
					return true
				})
			}
			return true
		})

		// Forks are classified per innermost enclosing function: nested
		// literals are visited in their own right.
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				visitBody(s.Body)
				return false
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && isForkCall(p, call) {
					discards = append(discards, call)
				}
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isForkCall(p, call) || i >= len(s.Lhs) {
						continue
					}
					switch lhs := s.Lhs[i].(type) {
					case *ast.Ident:
						if lhs.Name == "_" {
							discards = append(discards, call)
						} else {
							handleVars = append(handleVars, lhs)
						}
					default:
						containerStores = append(containerStores, call)
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range s.Values {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isForkCall(p, call) || i >= len(s.Names) {
						continue
					}
					if s.Names[i].Name == "_" {
						discards = append(discards, call)
					} else {
						handleVars = append(handleVars, s.Names[i])
					}
				}
			}
			return true
		}
		ast.Inspect(body, walk)

		for _, call := range discards {
			out = append(out, Finding{
				Pos:      p.Fset.Position(call.Pos()),
				Analyzer: "fjdiscipline",
				Message:  "Fork result discarded: this task can never be joined, so the computation is not series-parallel",
			})
		}
		for _, id := range handleVars {
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id] // plain = assignment to an existing var
			}
			if obj == nil || joined[obj] {
				continue
			}
			out = append(out, Finding{
				Pos:      p.Fset.Position(id.Pos()),
				Analyzer: "fjdiscipline",
				Message:  fmt.Sprintf("fork handle %s is never passed to Join in this function; every Fork needs a matching LIFO Join", id.Name),
			})
		}
		if joinCount == 0 {
			for _, call := range containerStores {
				out = append(out, Finding{
					Pos:      p.Fset.Position(call.Pos()),
					Analyzer: "fjdiscipline",
					Message:  "fork handle stored into a container but this function contains no Join call; every Fork needs a matching LIFO Join",
				})
			}
		}
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			visitBody(fd.Body)
		}
	}
	// Function literals outside function declarations (package-level vars).
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok {
			ast.Inspect(gd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visitBody(lit.Body)
					return false
				}
				return true
			})
		}
	}
	return out
}
