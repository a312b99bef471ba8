package workload_test

import (
	"testing"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/metrics"
	"graphalytics/internal/workload"
)

func TestCatalogClassesMatchPaperLabels(t *testing.T) {
	// The stand-ins are ~10^4 smaller; on the shifted scale they must
	// keep the paper's T-shirt labels.
	want := map[string]metrics.Class{
		"R1": metrics.Class2XS, "R2": metrics.ClassXS, "R3": metrics.ClassXS,
		"R4": metrics.ClassS, "R5": metrics.ClassXL, "R6": metrics.ClassXL,
		"D100": metrics.ClassM, "D300": metrics.ClassL, "D1000": metrics.ClassXL,
		"G22": metrics.ClassS, "G23": metrics.ClassM, "G24": metrics.ClassM,
		"G25": metrics.ClassL, "G26": metrics.ClassXL,
	}
	for id, class := range want {
		g, err := workload.Load(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := workload.Class(g); got != class {
			t.Errorf("%s: class %s, want %s (scale %.1f)", id, got, class, workload.Scale(g))
		}
	}
}

func TestLoadCaches(t *testing.T) {
	a, err := workload.Load("R1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Load("R1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Load must return the cached graph")
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := workload.ByID("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := workload.Load("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestBFSSourceExists(t *testing.T) {
	for _, d := range workload.Catalog() {
		g, err := workload.Load(d.ID)
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if _, ok := g.Index(d.Params.Source); !ok {
			t.Errorf("%s: BFS source %d not in graph", d.ID, d.Params.Source)
		}
		if d.Weighted != g.Weighted() || d.Directed != g.Directed() {
			t.Errorf("%s: catalog shape disagrees with generated graph", d.ID)
		}
	}
}

func TestUpToClass(t *testing.T) {
	upToL, err := workload.UpToClassWith(func(d workload.Dataset) (*graph.Graph, error) { return workload.Load(d.ID) }, metrics.ClassL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(upToL) == 0 {
		t.Fatal("no datasets up to class L")
	}
	for _, d := range upToL {
		g, _ := workload.Load(d.ID)
		if metrics.ClassOrder(workload.Class(g)) > metrics.ClassOrder(metrics.ClassL) {
			t.Errorf("%s exceeds class L", d.ID)
		}
	}
	// XL datasets (R5, R6, D1000, G26) must be excluded.
	for _, d := range upToL {
		if d.ID == "R5" || d.ID == "D1000" {
			t.Errorf("%s must not be in the up-to-L selection", d.ID)
		}
	}
}

func TestR2SmallComponentForBFS(t *testing.T) {
	// R2's BFS root sits in a small community so the search covers ~10%
	// of the graph — the property behind OpenG's queue-based BFS win.
	g, err := workload.Load("R2")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := workload.ByID("R2")
	src, ok := g.Index(d.Params.Source)
	if !ok {
		t.Fatal("R2 source missing")
	}
	reached := 0
	visited := make([]bool, g.NumVertices())
	queue := []int32{src}
	visited[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		reached++
		for _, u := range g.OutNeighbors(v) {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	frac := float64(reached) / float64(g.NumVertices())
	if frac < 0.02 || frac > 0.3 {
		t.Fatalf("BFS from R2 root covers %.0f%% of vertices, want ~10%%", 100*frac)
	}
}

func TestSurveyMatchesTable1(t *testing.T) {
	rows := workload.Survey()
	if len(rows) != 10 {
		t.Fatalf("survey has %d rows, want 10", len(rows))
	}
	var unweighted, weighted int
	for _, r := range rows {
		if r.Weighted {
			weighted += r.Count
		} else {
			unweighted += r.Count
		}
	}
	if unweighted != 141 { // 24+69+20+6+22 occurrences across 124 articles
		t.Errorf("unweighted survey total = %d, want 141", unweighted)
	}
	if weighted != 50 { // 17+7+5+5+16 across 44 articles
		t.Errorf("weighted survey total = %d, want 50", weighted)
	}
}

func TestRenewClassL(t *testing.T) {
	// A fake timer whose BFS time is proportional to graph size: with a
	// generous budget every class passes; with a tiny one only the
	// smallest class remains.
	timer := func(g *graph.Graph, source int64) (time.Duration, error) {
		return time.Duration(g.NumEdges()) * time.Nanosecond, nil
	}
	res, err := workload.RenewClassL(timer, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassL != metrics.ClassXL {
		t.Fatalf("generous budget: class L = %s, want XL (largest populated class)", res.ClassL)
	}
	res, err = workload.RenewClassL(timer, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.ClassOrder(res.ClassL) >= metrics.ClassOrder(metrics.ClassXL) {
		t.Fatalf("tiny budget: class L = %s, want below XL", res.ClassL)
	}
	if len(res.PerDataset) != len(workload.Catalog()) {
		t.Fatal("renewal must measure every dataset")
	}
}
