// Package lint is the repo's paper-aware static analysis suite: five
// analyzers that check, at compile time and on every package, the invariants
// the rest of the codebase otherwise enforces only dynamically (one
// unsafe-based layout test in internal/rt) or not at all.
//
//   - falseshare computes real field offsets for every struct (via
//     types.Sizes) and flags two or more contended words — fields of a
//     sync/atomic type, fields passed to sync/atomic functions, or fields
//     annotated //lint:contended — laid out within the same 64-byte cache
//     line.  This is §4.7 of the paper (pad contended scheduler state onto
//     private lines) checked statically; arxiv 1103.4142 quantifies the
//     delay term that appears when it is violated.
//   - atomicmix flags struct fields accessed both through sync/atomic
//     functions and by plain loads/stores — a latent race the -race
//     detector only reports when the bad interleaving actually happens.
//   - fjdiscipline flags fj.Ctx/rt.Ctx values escaping into raw goroutines,
//     where the work they spawn is invisible to the join discipline (which
//     rt checks at run time) and to the simulator's cost accounting.
//   - determinism flags, in the harness/bench/registry packages that feed
//     the -canon byte-stability gates, calls to time.Now, global (unseeded)
//     math/rand functions, and map-range iteration feeding Row output.
//   - grainaudit resolves the simulated-backend argument of every
//     ctx.Grain(sim, real) call, and the grain argument of every
//     ctx.ForRange call, in the fj kernel packages to its constant
//     value and flags cutoffs at or above the smallest size the registry's
//     sim sweep feeds that kernel — a grain that large serializes the
//     sweep's low end, so the EXP14/EXP15 fits would measure a recursion
//     that never forks.
//
// Findings can be suppressed with an annotation on the offending line or
// the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason text is mandatory: an allow without one is itself reported.
// The suite is stdlib-only (go/parser + go/types; no x/tools) and is run
// by cmd/hbplint as a blocking gate in CI and scripts/run_all.sh.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report, anchored to a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a typechecked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// Analyzers returns the default suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FalseShare(),
		AtomicMix(),
		FJDiscipline(),
		Determinism(DefaultDeterminismScope...),
		GrainAudit(DefaultGrainAuditSizes),
	}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Position
}

// directives extracts the //lint:allow and //lint:contended annotations of
// one file, keyed by the line they annotate: a directive on line L covers
// findings (or, for contended, field declarations) on lines L and L+1, so
// both trailing comments and own-line comments above the target work.
func directives(fset *token.FileSet, f *ast.File) (allows map[int][]allowDirective, contended map[int]bool) {
	allows = map[int][]allowDirective{}
	contended = map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			switch {
			case strings.HasPrefix(text, "lint:allow"):
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				d := allowDirective{analyzer: name, reason: strings.TrimSpace(reason), pos: pos}
				allows[pos.Line] = append(allows[pos.Line], d)
			case strings.HasPrefix(text, "lint:contended"):
				contended[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return allows, contended
}

// Check runs the analyzers over every package and applies the suppression
// convention.  It returns the active findings (sorted by file, line, column,
// analyzer — the order hbplint prints) and, separately, the findings that
// //lint:allow annotations suppressed, so a caller can assert the
// annotations are still load-bearing.  A //lint:allow with no reason text is
// itself reported as an active "allow" finding.
func Check(pkgs []*Package, analyzers []*Analyzer) (active, suppressed []Finding) {
	for _, p := range pkgs {
		allows := map[string]map[int][]allowDirective{} // filename -> line -> directives
		for _, f := range p.Files {
			a, _ := directives(p.Fset, f)
			name := p.Fset.Position(f.Pos()).Filename
			allows[name] = a
			for _, ds := range a {
				for _, d := range ds {
					if d.analyzer == "" || d.reason == "" {
						active = append(active, Finding{
							Pos:      d.pos,
							Analyzer: "allow",
							Message:  "lint:allow needs an analyzer name and a reason: //lint:allow <analyzer> <reason>",
						})
					}
				}
			}
		}
		for _, az := range analyzers {
			for _, fd := range az.Run(p) {
				if allowed(allows[fd.Pos.Filename], fd) {
					suppressed = append(suppressed, fd)
				} else {
					active = append(active, fd)
				}
			}
		}
	}
	sortFindings(active)
	sortFindings(suppressed)
	return active, suppressed
}

// allowed reports whether an allow directive on the finding's line or the
// line above it names the finding's analyzer (with a reason).
func allowed(lines map[int][]allowDirective, fd Finding) bool {
	for _, line := range []int{fd.Pos.Line, fd.Pos.Line - 1} {
		for _, d := range lines[line] {
			if d.analyzer == fd.Analyzer && d.reason != "" {
				return true
			}
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// isCtxType reports whether t is (a pointer to) one of the fork-join context
// types: repro/internal/fj.Ctx or repro/internal/rt.Ctx.
func isCtxType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Ctx" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return strings.HasSuffix(path, "/fj") || strings.HasSuffix(path, "/rt")
}
