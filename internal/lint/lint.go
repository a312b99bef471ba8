// Package lint is the repository's static-analysis framework: a stdlib-only
// (go/ast, go/parser, go/types + `go list -json` metadata) analyzer suite
// that turns the benchmark's test-observed contracts — deterministic
// results at any worker count, zero-allocation steady states, simulated
// rather than wall-clock time, context-first APIs — into build-time
// guarantees. The cmd/graphalint driver runs the suite over ./... and CI
// fails on any finding.
//
// Escape hatches are audited, not silent: a //graphalint:<kind> <reason>
// comment on (or directly above) the offending line waives one analyzer and
// records why the waiver is sound. Directives with a typo'd kind or a
// missing reason are themselves findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// Marker is the directive kind that suppresses this analyzer's
	// findings ("" if the analyzer has no escape hatch).
	Marker string
	Run    func(*Pass)
}

// Contracts selects which invariants a package has signed up for. The
// repo-wide mapping lives in DefaultContracts; the golden-file harness
// forces all contracts on for its testdata packages.
type Contracts struct {
	// Determinism: results must be bit-identical at any worker count
	// (mapiter, floatsum).
	Determinism bool
	// SimTime: the package computes simulated cost or stamps records and
	// must read internal/clock, never the wall clock itself (wallclock).
	SimTime bool
	// Internal: non-test library code that must thread the caller's
	// context instead of minting context.Background/TODO (ctxfirst).
	Internal bool
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Pkg       *Package
	Contracts Contracts
	analyzer  *Analyzer
	sink      *[]Diagnostic
}

// Report emits a finding anchored at n unless a matching suppression
// directive annotates n's line (or the line above).
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	if p.Marked(n) {
		return
	}
	pos := p.Pkg.Fset.Position(n.Pos())
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Marked reports whether the analyzer's suppression directive annotates
// n's first line or the line above it. Analyzers that honor loop- or
// function-level waivers call it on each enclosing node.
func (p *Pass) Marked(n ast.Node) bool {
	if p.analyzer.Marker == "" || n == nil {
		return false
	}
	pos := p.Pkg.Fset.Position(n.Pos())
	return p.Pkg.markerAt(pos.Filename, pos.Line, p.analyzer.Marker) != nil
}

// TypeOf returns the type of e, or nil if the expression was not typed.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter,
		FloatSum,
		WallClock,
		NoAlloc,
		CtxFirst,
	}
}

// Run applies the analyzers to every package and returns the findings
// sorted by position. The framework also validates the suppression
// directives themselves (see markerDiagnostics).
func Run(pkgs []*Package, analyzers []*Analyzer, contractsFor func(importPath string) Contracts) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, markerDiagnostics(pkg)...)
		c := contractsFor(pkg.ImportPath)
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, Contracts: c, analyzer: a, sink: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// calleeOf resolves the object a call expression invokes: a plain function,
// a method, or a qualified package function. It returns nil for builtins,
// conversions, and calls through function-typed values.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether t is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether t is an integer basic type.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isString reports whether t is a string basic type.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isLoop reports whether n is a for or range statement.
func isLoop(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

// loopBody returns the body of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// rootIdent walks to the base identifier of expressions like x, x.f[i],
// x[i].f, (*x).f — the variable whose storage the expression addresses.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
