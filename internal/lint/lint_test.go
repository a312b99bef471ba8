package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The golden-file harness: each testdata/src/<analyzer> package seeds
// deliberate violations, marked in the source with trailing
//
//	// want `regexp`
//
// comments. The named analyzer must report a matching diagnostic on
// exactly that line, and nothing anywhere else.

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// stdExports compiles (or pulls from the build cache) the export data of
// every stdlib package the testdata files import.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		exportsMap, exportsErr = StdExports(".", "context", "sort", "time")
	})
	if exportsErr != nil {
		t.Fatalf("loading stdlib export data: %v", exportsErr)
	}
	return exportsMap
}

// expectation is one `// want` comment: a diagnostic that must be
// reported at file:line and match re.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// collectWants scans the package sources for `// want` comments.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
			}
			wants = append(wants, &expectation{file: path, line: i + 1, re: re})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want comments under %s", dir)
	}
	return wants
}

// checkDiagnostics matches reported diagnostics against expectations:
// every want must be hit exactly once, and no diagnostic may be
// unexpected.
func checkDiagnostics(t *testing.T, wants []*expectation, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		s := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		hit := false
		for _, w := range wants {
			if w.matched || !sameFile(w.file, d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(s) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func sameFile(a, b string) bool {
	return filepath.Base(a) == filepath.Base(b)
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// runGolden type-checks testdata/src/<name> and runs the analyzer of the
// same name over it with every contract forced on.
func runGolden(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := CheckDir(dir, stdExports(t))
	if err != nil {
		t.Fatal(err)
	}
	allOn := func(string) Contracts {
		return Contracts{Determinism: true, SimTime: true, Internal: true}
	}
	diags := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, name)}, allOn)
	checkDiagnostics(t, collectWants(t, dir), diags)
}

func TestMapIterGolden(t *testing.T)   { runGolden(t, "mapiter") }
func TestFloatSumGolden(t *testing.T)  { runGolden(t, "floatsum") }
func TestWallClockGolden(t *testing.T) { runGolden(t, "wallclock") }
func TestNoAllocGolden(t *testing.T)   { runGolden(t, "noalloc") }
func TestCtxFirstGolden(t *testing.T)  { runGolden(t, "ctxfirst") }

// TestMarkerValidation checks that malformed directives are findings.
// The expected lines are located by content so the fixture can move.
func TestMarkerValidation(t *testing.T) {
	dir := filepath.Join("testdata", "src", "marker")
	pkg, err := CheckDir(dir, stdExports(t))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dir, "marker.go"))
	if err != nil {
		t.Fatal(err)
	}
	typoLine, bareLine := 0, 0
	for i, line := range strings.Split(string(src), "\n") {
		switch strings.TrimSpace(line) {
		case "//graphalint:orderfree":
			bareLine = i + 1
		default:
			if strings.HasPrefix(strings.TrimSpace(line), "//graphalint:ordrfree") {
				typoLine = i + 1
			}
		}
	}
	if typoLine == 0 || bareLine == 0 {
		t.Fatalf("fixture lines not found (typo=%d bare=%d)", typoLine, bareLine)
	}

	diags := markerDiagnostics(pkg)
	if len(diags) != 2 {
		t.Fatalf("got %d marker diagnostics, want 2: %v", len(diags), diags)
	}
	byLine := map[int]Diagnostic{}
	for _, d := range diags {
		byLine[d.Pos.Line] = d
	}
	if d, ok := byLine[typoLine]; !ok || !strings.Contains(d.Message, "unknown graphalint directive") {
		t.Errorf("line %d: want unknown-directive finding, got %v", typoLine, d)
	}
	if d, ok := byLine[bareLine]; !ok || !strings.Contains(d.Message, "requires a one-line justification") {
		t.Errorf("line %d: want missing-reason finding, got %v", bareLine, d)
	}
}

// TestRepoClean runs the full suite over the whole module with the
// production contract mapping — the same invocation as
// `go run ./cmd/graphalint ./...` — and demands a clean tree.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All(), DefaultContracts)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// waiverCeilings caps the audited waivers in non-test code. The numbers
// only ever go down: removing a waiver lowers its ceiling in the same
// change, and a new one needs a reviewer to raise it here.
var waiverCeilings = map[string]int{"ctxbg": 5, "orderfree": 17}

// TestWaiverBudget counts the waiver directives in the module's non-test
// sources (the analyzers' own fixtures aside) against waiverCeilings: a
// count above its ceiling fails, and so does one below it, until the
// ceiling comes down to meet it.
func TestWaiverBudget(t *testing.T) {
	counts := map[string]int{}
	err := filepath.WalkDir("../..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != "../..") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "//graphalint:"); ok {
				name, _, _ := strings.Cut(rest, " ")
				counts[name]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ceiling := range waiverCeilings {
		if counts[name] > ceiling {
			t.Errorf("%d //graphalint:%s waivers in non-test code, ceiling is %d", counts[name], name, ceiling)
		} else if counts[name] < ceiling {
			t.Errorf("%d //graphalint:%s waivers in non-test code: lower its ceiling from %d to keep the ratchet tight", counts[name], name, ceiling)
		}
	}
}

// TestEnginesKeepNoDriver holds the engines to their half of the split
// with internal/platform: no non-test file under internal/platforms
// declares one of the driver's methods or starts a Granula tracker —
// platform.New supplies both, once.
func TestEnginesKeepNoDriver(t *testing.T) {
	driverMethods := map[string]bool{"Execute": true, "Upload": true, "UploadContext": true, "Supports": true}
	err := filepath.WalkDir("../platforms", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && driverMethods[n.Name.Name] {
					t.Errorf("%s: engine declares its own %s method; the driver in internal/platform owns it", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "granula" && n.Sel.Name == "NewTracker" {
					t.Errorf("%s: engine starts its own Granula tracker; kernels get the job's from platform.Job", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// facadeCeiling caps the exported top-level identifiers of the root
// package graphalytics — the public surface every user sees. Like the
// waiver ceilings it only ever goes down: lower it when you remove a
// name; a new name needs a reviewer to raise it here.
const facadeCeiling = 121

// TestFacadeBudget counts the exported funcs, types, vars and consts the
// root package declares in its non-test files against facadeCeiling.
func TestFacadeBudget(t *testing.T) {
	paths, err := filepath.Glob("../../*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != "graphalytics" {
			t.Fatalf("%s: package %s at the module root, want graphalytics", path, f.Name.Name)
		}
		files = append(files, f)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	if len(names) > facadeCeiling {
		sort.Strings(names)
		t.Errorf("package graphalytics exports %d top-level identifiers, ceiling is %d (lower the ceiling when you remove one):\n%s",
			len(names), facadeCeiling, strings.Join(names, " "))
	} else if len(names) < facadeCeiling {
		t.Errorf("package graphalytics exports %d top-level identifiers: lower facadeCeiling from %d to keep the ratchet tight", len(names), facadeCeiling)
	}
}
