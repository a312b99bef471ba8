package core_test

import (
	"context"
	"os"
	"sync"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/graphstore"
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
