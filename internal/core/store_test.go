package core_test

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/workload"
)

// sourceRecorder collects dataset materialization events by source.
type sourceRecorder struct {
	mu      sync.Mutex
	sources map[string][]string // dataset -> sources in order
}

func newSourceRecorder() *sourceRecorder {
	return &sourceRecorder{sources: make(map[string][]string)}
}

func (r *sourceRecorder) Observe(e core.Event) {
	if e.Type != core.EventDatasetMaterialized {
		return
	}
	r.mu.Lock()
	r.sources[e.Dataset] = append(r.sources[e.Dataset], e.Source)
	r.mu.Unlock()
}

func (r *sourceRecorder) of(dataset string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.sources[dataset]...)
}

// TestCacheDirWarmRunSkipsGeneration is the end-to-end cold/warm
// assertion: a job in a fresh process-equivalent session over the same
// cache dir must materialize its dataset from the snapshot, never the
// generator.
func TestCacheDirWarmRunSkipsGeneration(t *testing.T) {
	dir := t.TempDir()
	spec := core.JobSpec{Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 2, Machines: 1}

	cold := newSourceRecorder()
	s1 := core.NewSession(core.WithCacheDir(dir), core.WithObserver(cold))
	res, err := runJob(context.Background(), s1, spec)
	if err != nil || res.Status != core.StatusOK {
		t.Fatalf("cold run: status=%v err=%v", res.Status, err)
	}
	got := cold.of("R1")
	if len(got) == 0 || got[0] != string(graphstore.SourceBuilt) {
		t.Fatalf("cold run sources = %v, want first load built", got)
	}

	warm := newSourceRecorder()
	s2 := core.NewSession(core.WithCacheDir(dir), core.WithObserver(warm))
	res, err = runJob(context.Background(), s2, spec)
	if err != nil || res.Status != core.StatusOK {
		t.Fatalf("warm run: status=%v err=%v", res.Status, err)
	}
	got = warm.of("R1")
	if len(got) == 0 {
		t.Fatal("warm run emitted no dataset events")
	}
	for i, src := range got {
		if src == string(graphstore.SourceBuilt) {
			t.Fatalf("warm run load %d regenerated the dataset; sources = %v", i, got)
		}
	}
	if got[0] != string(graphstore.SourceSnapshot) {
		t.Fatalf("warm run sources = %v, want first load from snapshot", got)
	}
}

// TestDefaultSessionsShareProcessStore pins the pre-refactor behavior:
// plain sessions keep sharing one in-memory dataset cache per process.
func TestDefaultSessionsShareProcessStore(t *testing.T) {
	a, b := core.NewSession(), core.NewSession()
	if a.GraphStore() != b.GraphStore() {
		t.Fatal("sessions without store options must share the default store")
	}
}

// TestRunAllBatchStorePrecedence pins the precedence of a per-batch
// store option: a batch WithCacheDir takes effect over the session's
// store.
func TestRunAllBatchStorePrecedence(t *testing.T) {
	s := core.NewSession()
	dir := t.TempDir()
	plan := core.PlanFromSpecs("batch", []core.JobSpec{{Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 2, Machines: 1}})
	results, err := s.RunPlan(context.Background(), plan, core.WithCacheDir(dir))
	if err != nil || results[0].Status != core.StatusOK {
		t.Fatalf("status=%v err=%v", results[0].Status, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("batch WithCacheDir alone must produce snapshots")
	}
}

// TestClassScanBuildsOnceAndCompilesOnePlan compiles a class selector on
// fresh cache dirs at GOMAXPROCS=4, where the class scan builds the
// catalog four datasets at a time: each dataset must be built exactly
// once, and the plan listing must not depend on the schedule — two
// concurrent compiles and a one-worker compile render the same bytes.
func TestClassScanBuildsOnceAndCompilesOnePlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	spec := core.BenchSpec{
		Name:       "classes",
		Platforms:  []string{"native"},
		Datasets:   core.DatasetSelector{MaxClass: "L"},
		Algorithms: []algorithms.Algorithm{algorithms.BFS},
	}
	compile := func(dir string, opts ...core.Option) (string, *sourceRecorder) {
		t.Helper()
		rec := newSourceRecorder()
		s := core.NewSession(append(opts, core.WithCacheDir(dir), core.WithObserver(rec))...)
		plan, err := s.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := plan.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec
	}
	dir := t.TempDir()
	first, rec := compile(dir)
	second, _ := compile(t.TempDir())
	sequential, _ := compile(dir, core.WithParallelism(1))
	for _, d := range workload.Catalog() {
		if got := rec.of(d.ID); !slices.Equal(got, []string{string(graphstore.SourceBuilt)}) {
			t.Errorf("%s materialized as %v during a cold compile, want built once", d.ID, got)
		}
	}
	if first != second || first != sequential {
		t.Errorf("class-selector plans differ between compiles:\n--- first ---\n%s\n--- second ---\n%s\n--- one worker ---\n%s", first, second, sequential)
	}
}
