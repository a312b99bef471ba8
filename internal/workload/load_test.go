package workload_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/metrics"
	"graphalytics/internal/workload"
)

func TestFingerprintDistinguishesDatasetsAndVersions(t *testing.T) {
	r1, err := workload.ByID("R1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := workload.ByID("R2")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint() == r2.Fingerprint() {
		t.Fatal("different datasets must have different fingerprints")
	}
	if r1.Fingerprint() != r1.Fingerprint() {
		t.Fatal("fingerprints must be stable")
	}
}

func TestByIDIsIndexedOnce(t *testing.T) {
	// ByID must agree with a linear catalog scan for every entry, and
	// repeated Catalog calls must return equal, independently mutable
	// slices.
	c1, c2 := workload.Catalog(), workload.Catalog()
	if len(c1) == 0 || len(c1) != len(c2) {
		t.Fatalf("catalog sizes: %d vs %d", len(c1), len(c2))
	}
	for i, d := range c1 {
		got, err := workload.ByID(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != d.ID || got.Name != d.Name {
			t.Fatalf("ByID(%s) disagrees with catalog scan", d.ID)
		}
		if c2[i].ID != d.ID {
			t.Fatalf("catalog order unstable at %d", i)
		}
	}
	c1[0] = workload.Dataset{ID: "mutated"}
	if workload.Catalog()[0].ID == "mutated" {
		t.Fatal("mutating a returned catalog slice must not affect the package")
	}
}

func TestLoadFromSnapshotDirSkipsGeneration(t *testing.T) {
	dir := t.TempDir()
	cold := graphstore.New(graphstore.Options{Dir: dir})
	r, err := workload.GetFrom(cold, "R1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceBuilt {
		t.Fatalf("cold load source = %v, want built", r.Source)
	}

	// A fresh store over the same dir simulates a new process: the graph
	// must come back from the snapshot, not the generator.
	warm := graphstore.New(graphstore.Options{Dir: dir})
	r2, err := workload.GetFrom(warm, "R1")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != graphstore.SourceSnapshot {
		t.Fatalf("warm load source = %v, want snapshot", r2.Source)
	}
	if r2.Graph.NumVertices() != r.Graph.NumVertices() || r2.Graph.NumEdges() != r.Graph.NumEdges() {
		t.Fatal("snapshot-loaded dataset differs from the generated one")
	}
	d, _ := workload.ByID("R1")
	if _, ok := r2.Graph.Index(d.Params.Source); !ok {
		t.Fatal("snapshot-loaded dataset lost the BFS source vertex")
	}
}

func TestWarmMaterializesWholeCatalog(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	var mu sync.Mutex
	sources := make(map[string]graphstore.Source)
	err := workload.Warm(context.Background(), s, 4, func(id string, r graphstore.Result, err error) {
		if err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		mu.Lock()
		sources[id] = r.Source
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != len(workload.Catalog()) {
		t.Fatalf("warmed %d datasets, want %d", len(sources), len(workload.Catalog()))
	}
	for id, src := range sources {
		if src != graphstore.SourceBuilt {
			t.Errorf("%s: first warm source = %v, want built", id, src)
		}
	}
	// A second warm over the same store is all memory hits.
	err = workload.Warm(context.Background(), s, 4, func(id string, r graphstore.Result, err error) {
		if err == nil && r.Source != graphstore.SourceMemory {
			t.Errorf("%s: second warm source = %v, want memory", id, r.Source)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWarmHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := graphstore.New(graphstore.Options{})
	if err := workload.Warm(ctx, s, 2, nil); err == nil {
		t.Fatal("warm with a canceled context must report the context error")
	}
}

// When several datasets fail, WarmIDs names the earliest in list order,
// not the first to finish failing.
func TestWarmIDsReturnsEarliestFailure(t *testing.T) {
	ids := []string{"nope1", "nope2", "nope3", "nope4"}
	s := graphstore.New(graphstore.Options{})
	for i := 0; i < 200; i++ {
		err := workload.WarmIDs(context.Background(), s, 4, ids, nil)
		if err == nil || !strings.Contains(err.Error(), `"nope1"`) {
			t.Fatalf("call %d: error %v, want the one naming nope1", i, err)
		}
	}
}

func TestUpToClassFromUsesGivenStore(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	upToL, err := workload.UpToClassWith(func(d workload.Dataset) (*graph.Graph, error) { return workload.LoadFrom(s, d.ID) }, metrics.ClassL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(upToL) == 0 {
		t.Fatal("no datasets up to class L")
	}
	if s.Len() != len(workload.Catalog()) {
		t.Fatalf("store holds %d graphs, want the whole catalog (%d) after classification", s.Len(), len(workload.Catalog()))
	}
}
