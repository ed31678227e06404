package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LIFOOrder returns the join-order analyzer.  A Join must discharge the
// most recent unjoined Fork — the LIFO discipline that makes a computation
// series-parallel and keeps the simulator's space and false-sharing
// accounting honest.  internal/fj holds it by construction (Parallel and
// ForRange are its only parallel forms); raw Fork/Join calls, rt.Ctx's,
// hold it only by convention, so this analyzer flags a violation
// statically, per function body, by replaying fork-handle assignments and
// Join calls in source order against a stack of open handles.
//
// The replay is deliberately conservative, so a finding is close to
// certainly a misordered join: only handles assigned to plain variables are
// tracked, and only a Join whose argument is a tracked handle sitting
// below the stack top is reported.  Handles stored into containers,
// joined inside deferred or go-launched closures, or flowing across
// function boundaries fall out of scope here — fjdiscipline covers those
// shapes — and each function literal is replayed with its own fresh
// stack.
func LIFOOrder() *Analyzer {
	return &Analyzer{
		Name: "lifoorder",
		Doc:  "Join calls discharging fork handles out of LIFO order, so the computation is not series-parallel",
		Run:  runLIFOOrder,
	}
}

func runLIFOOrder(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					lifoReplayBody(p, d.Body, &out)
				}
			case *ast.GenDecl:
				// Function literals in package-level var initializers.
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						lifoReplayBody(p, lit.Body, &out)
						return false
					}
					return true
				})
			}
		}
	}
	return out
}

// openHandle is one stack entry of the replay: the handle variable's
// object identity plus its spelling for the report.
type openHandle struct {
	obj  types.Object
	name string
}

// lifoReplayBody replays one function body in source order: Fork
// assignments push, Joins of the stack top pop, and a Join of anything
// deeper is the violation.  A reported handle is removed from the stack
// anyway so one mistake does not cascade into findings on every
// subsequent (correctly ordered) Join.
func lifoReplayBody(p *Package, body *ast.BlockStmt, out *[]Finding) {
	var stack []openHandle
	push := func(id *ast.Ident) {
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id] // plain = assignment to an existing var
		}
		if obj != nil {
			stack = append(stack, openHandle{obj: obj, name: id.Name})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			lifoReplayBody(p, s.Body, out)
			return false
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred joins run at return in their own (reversed) order and
			// goroutines out of any order; neither is a source-order replay.
			return false
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isForkCall(p, call) || i >= len(s.Lhs) {
					continue
				}
				if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					push(id)
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range s.Values {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isForkCall(p, call) || i >= len(s.Names) {
					continue
				}
				if s.Names[i].Name != "_" {
					push(s.Names[i])
				}
			}
		case *ast.CallExpr:
			if !isJoinCall(p, s) || len(s.Args) == 0 {
				return true
			}
			id, ok := s.Args[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil {
				return true
			}
			idx := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].obj == obj {
					idx = i
					break
				}
			}
			if idx < 0 {
				return true // not a tracked open handle: out of scope
			}
			if top := len(stack) - 1; idx != top {
				*out = append(*out, Finding{
					Pos:      p.Fset.Position(s.Pos()),
					Analyzer: "lifoorder",
					Message: fmt.Sprintf("Join(%s) out of LIFO order: %s is the most recent unjoined fork — join it first, so the computation stays series-parallel",
						id.Name, stack[top].name),
				})
			}
			stack = append(stack[:idx], stack[idx+1:]...)
		}
		return true
	})
}
