//go:build linux || darwin

// These tests assert that MapSnapshots serves mapped graphs, which only
// hosts with mmap do.

package graphstore_test

import (
	"fmt"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
)

// In mmap mode, a second process (here: a second store over the same
// directory) serves the snapshot as a mapped graph, charged to the mapped
// budget rather than the heap budget.
func TestMapSnapshotsResidency(t *testing.T) {
	dir := t.TempDir()
	s1 := graphstore.New(graphstore.Options{Dir: dir})
	want, err := s1.Load("k@g1", func() (*graph.Graph, error) { return testGraph(t, 3), nil })
	if err != nil {
		t.Fatal(err)
	}

	s2 := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	r, err := s2.Get("k@g1", func() (*graph.Graph, error) {
		t.Fatal("warm snapshot must not rebuild")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceSnapshot {
		t.Fatalf("source = %v, want snapshot", r.Source)
	}
	if !r.Graph.Mapped() {
		t.Fatal("mmap mode served a heap graph from a v2 snapshot")
	}
	if r.MappedBytes <= 0 {
		t.Fatalf("MappedBytes = %d, want > 0", r.MappedBytes)
	}
	if r.Bytes != want.SizeBytes() {
		t.Fatalf("Bytes = %d, want %d", r.Bytes, want.SizeBytes())
	}
	if s2.HeapBytes() != 0 {
		t.Fatalf("HeapBytes = %d, want 0 (graph is mapped)", s2.HeapBytes())
	}
	if s2.MappedBytes() != r.MappedBytes {
		t.Fatalf("store MappedBytes = %d, want %d", s2.MappedBytes(), r.MappedBytes)
	}
	// Element-wise identical to the built graph.
	if r.Graph.NumVertices() != want.NumVertices() || r.Graph.NumEdges() != want.NumEdges() {
		t.Fatal("mapped graph differs from built graph")
	}
}

// Evicting a mapped entry releases the store's reference; the graph a
// caller still holds stays readable (refcount), and re-loading maps the
// snapshot again.
func TestMappedEvictReleasesButKeepsCallerSafe(t *testing.T) {
	dir := t.TempDir()
	s1 := graphstore.New(graphstore.Options{Dir: dir})
	if _, err := s1.Load("k@g1", func() (*graph.Graph, error) { return testGraph(t, 4), nil }); err != nil {
		t.Fatal(err)
	}

	var evicts int
	s := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true, OnEvent: func(e graphstore.Event) {
		if e.Type == graphstore.EventEvict {
			evicts++
		}
	}})
	r, err := s.Get("k@g1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Evict("k@g1") {
		t.Fatal("Evict must drop the resident entry")
	}
	if s.MappedBytes() != 0 {
		t.Fatalf("MappedBytes = %d after evict, want 0", s.MappedBytes())
	}
	// The caller's handle still works: the mapping is refcounted.
	sum := int64(0)
	for v := int32(0); v < int32(r.Graph.NumVertices()); v++ {
		sum += r.Graph.VertexID(v) + int64(len(r.Graph.OutNeighbors(v)))
	}
	if sum == 0 {
		t.Fatal("mapped graph unreadable after evict")
	}
	r2, err := s.Get("k@g1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Graph.Mapped() || r2.Source != graphstore.SourceSnapshot {
		t.Fatal("re-load after evict must map the snapshot again")
	}
	r.Graph.Close()
	r2.Graph.Close()
}

// The mapped budget evicts mapped entries independently of the heap
// budget.
func TestMappedBudgetEvicts(t *testing.T) {
	dir := t.TempDir()
	warm := graphstore.New(graphstore.Options{Dir: dir})
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d@g1", i)
		seed := i
		if _, err := warm.Load(key, func() (*graph.Graph, error) { return testGraph(t, seed), nil }); err != nil {
			t.Fatal(err)
		}
	}
	one, err := graph.ReadSnapshotFile(warm.SnapshotPath("k0@g1"))
	if err != nil {
		t.Fatal(err)
	}
	// Budget below two mappings: the LRU holds at most one mapped graph
	// (plus the soft-by-one entry being returned).
	s := graphstore.New(graphstore.Options{
		Dir:          dir,
		MapSnapshots: true,
		MappedBudget: one.SizeBytes() + 1,
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Get(fmt.Sprintf("k%d@g1", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n > 2 {
		t.Fatalf("resident entries = %d, want <= 2 under mapped budget", n)
	}
}

func TestGetStreamed(t *testing.T) {
	dir := t.TempDir()
	var builds int
	buildTo := func(path string) error {
		builds++
		b := graph.NewBuilder(false, true)
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
		b.SetSpill(graph.SpillOptions{BudgetBytes: 1 << 12})
		for i := 0; i < 500; i++ {
			b.AddWeightedEdge(int64(i%40), int64((i*7+1)%40), float64(i))
		}
		return b.BuildTo(path)
	}

	s := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	r, err := s.GetStreamed("xl@g1", buildTo)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceBuilt || builds != 1 {
		t.Fatalf("source=%v builds=%d, want cold streamed build", r.Source, builds)
	}
	if !r.Graph.Mapped() {
		t.Fatal("streamed build must be served from the mapped snapshot")
	}
	// Second store over the same dir: pure snapshot hit, no rebuild.
	s2 := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	r2, err := s2.GetStreamed("xl@g1", func(string) error {
		t.Fatal("warm snapshot must not stream-build")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != graphstore.SourceSnapshot {
		t.Fatalf("source = %v, want snapshot", r2.Source)
	}
	if r2.Graph.NumEdges() != r.Graph.NumEdges() || r2.Graph.NumVertices() != r.Graph.NumVertices() {
		t.Fatal("streamed graph mismatch across stores")
	}
}
