package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Marker is one //graphalint:<kind> [reason] comment. Markers are the audit
// trail of the lint suite: every suppression must name the invariant it
// waives and argue, in one line, why the waiver is sound.
type Marker struct {
	Kind   string
	Reason string
	Line   int
}

// markerPrefix introduces a graphalint directive comment. Like go:build
// directives, the comment must start exactly with //graphalint: (no space).
const markerPrefix = "//graphalint:"

// Marker kinds. All except MarkerNoAlloc suppress one analyzer and require
// a reason; MarkerNoAlloc is an opt-in annotation that turns the noalloc
// analyzer ON for the function it documents.
const (
	// MarkerOrderFree waives mapiter and floatsum on the statement (or
	// enclosing loop/function) it annotates: the author asserts the fold is
	// order-insensitive or its order is fixed independently of worker count.
	MarkerOrderFree = "orderfree"
	// MarkerWallClock waives the wallclock analyzer: the annotated use of
	// the wall clock is outside simulated cost (internal/clock itself needs
	// no waiver; it is outside the contract).
	MarkerWallClock = "wallclock"
	// MarkerCtxBG waives the context.Background/TODO ban: the annotated
	// call is a process root or a documented compatibility shim.
	MarkerCtxBG = "ctxbg"
	// MarkerAlloc waives one noalloc finding, e.g. a cold error path.
	MarkerAlloc = "alloc"
	// MarkerNoAlloc annotates a function as a steady-state zero-allocation
	// hot path; the noalloc analyzer checks every function carrying it.
	MarkerNoAlloc = "noalloc"
)

// markerNeedsReason says whether a marker kind is a suppression (and so
// must carry a justification). MarkerNoAlloc is an annotation, not a
// waiver; its reason is optional.
var markerNeedsReason = map[string]bool{
	MarkerOrderFree: true,
	MarkerWallClock: true,
	MarkerCtxBG:     true,
	MarkerAlloc:     true,
	MarkerNoAlloc:   false,
}

// collectMarkers indexes every graphalint directive in f by line.
func collectMarkers(fset *token.FileSet, f *ast.File) map[int]*Marker {
	markers := make(map[int]*Marker)
	for _, group := range f.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, markerPrefix)
			if !ok {
				continue
			}
			kind, reason, _ := strings.Cut(rest, " ")
			line := fset.Position(c.Pos()).Line
			markers[line] = &Marker{
				Kind:   strings.TrimSpace(kind),
				Reason: strings.TrimSpace(reason),
				Line:   line,
			}
		}
	}
	return markers
}

// markerAt returns the marker of the given kind that annotates line: either
// a trailing comment on the line itself or a comment on the line above.
func (p *Package) markerAt(file string, line int, kind string) *Marker {
	byLine := p.Markers[file]
	if byLine == nil {
		return nil
	}
	for _, l := range [2]int{line, line - 1} {
		if m := byLine[l]; m != nil && m.Kind == kind {
			return m
		}
	}
	return nil
}

// markerDiagnostics validates the directives themselves: unknown kinds and
// suppressions without a reason are findings, so a typo can never silently
// disable an analyzer.
func markerDiagnostics(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for file, byLine := range pkg.Markers {
		for _, m := range byLine {
			needs, known := markerNeedsReason[m.Kind]
			pos := token.Position{Filename: file, Line: m.Line, Column: 1}
			switch {
			case !known:
				diags = append(diags, Diagnostic{
					Analyzer: "marker",
					Pos:      pos,
					Message:  "unknown graphalint directive //graphalint:" + m.Kind,
				})
			case needs && m.Reason == "":
				diags = append(diags, Diagnostic{
					Analyzer: "marker",
					Pos:      pos,
					Message:  "//graphalint:" + m.Kind + " requires a one-line justification: //graphalint:" + m.Kind + " <reason>",
				})
			}
		}
	}
	return diags
}
