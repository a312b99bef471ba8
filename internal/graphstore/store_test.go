package graphstore_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
)

// testGraph builds a small distinct graph per seed.
func testGraph(t testing.TB, seed int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(false, false)
	b.SetName(fmt.Sprintf("g%d", seed))
	for i := 0; i < 10+seed; i++ {
		b.AddEdge(int64(i), int64(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLoadCachesAndSingleFlights(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	var builds atomic.Int32
	build := func() (*graph.Graph, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return testGraph(t, 1), nil
	}
	const callers = 16
	got := make([]*graph.Graph, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Load("k", build)
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("materializer ran %d times, want 1 (single-flight)", n)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatal("all callers must share the one materialized graph")
		}
	}
	// A later call is a pure memory hit.
	r, err := s.Get("k", func() (*graph.Graph, error) { t.Fatal("must not rebuild"); return nil, nil })
	if err != nil || r.Source != graphstore.SourceMemory {
		t.Fatalf("source = %v err = %v, want memory hit", r.Source, err)
	}
}

// TestDistinctKeysMaterializeConcurrently is the regression test for the
// old workload cache, which held one global mutex across generation so
// unrelated datasets loaded strictly serially. Each build here blocks
// until the other has started: if loads serialized, this would deadlock
// (bounded by the watchdog) instead of completing.
func TestDistinctKeysMaterializeConcurrently(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	buildA := func() (*graph.Graph, error) {
		close(aStarted)
		select {
		case <-bStarted:
		case <-time.After(5 * time.Second):
			return nil, errors.New("build B never started: loads are serialized")
		}
		return testGraph(t, 1), nil
	}
	buildB := func() (*graph.Graph, error) {
		close(bStarted)
		select {
		case <-aStarted:
		case <-time.After(5 * time.Second):
			return nil, errors.New("build A never started: loads are serialized")
		}
		return testGraph(t, 2), nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = s.Load("a", buildA) }()
	go func() { defer wg.Done(); _, errs[1] = s.Load("b", buildB) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
}

func TestFailedBuildIsNotCached(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	boom := errors.New("boom")
	calls := 0
	_, err := s.Load("k", func() (*graph.Graph, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	g, err := s.Load("k", func() (*graph.Graph, error) { calls++; return testGraph(t, 1), nil })
	if err != nil || g == nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 2 {
		t.Fatalf("materializer ran %d times, want 2 (failure must not be cached)", calls)
	}
}

func TestLRUEvictionByByteBudget(t *testing.T) {
	g := testGraph(t, 1)
	budget := 2*g.MemoryFootprint() + g.MemoryFootprint()/2 // fits ~2 graphs
	var evicted []string
	var mu sync.Mutex
	s := graphstore.New(graphstore.Options{
		MemoryBudget: budget,
		OnEvent: func(e graphstore.Event) {
			if e.Type == graphstore.EventEvict {
				mu.Lock()
				evicted = append(evicted, e.Key)
				mu.Unlock()
			}
		},
	})
	load := func(key string) {
		t.Helper()
		if _, err := s.Load(key, func() (*graph.Graph, error) { return testGraph(t, 1), nil }); err != nil {
			t.Fatal(err)
		}
	}
	load("a")
	load("b")
	load("a") // touch a: b becomes the LRU victim
	load("c") // over budget: evicts b
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if s.Len() != 2 {
		t.Fatalf("resident entries = %d, want 2", s.Len())
	}
	if s.Bytes() > budget {
		t.Fatalf("resident bytes %d exceed budget %d", s.Bytes(), budget)
	}
}

func TestBudgetSoftForSingleEntry(t *testing.T) {
	s := graphstore.New(graphstore.Options{MemoryBudget: 1}) // smaller than any graph
	g, err := s.Load("k", func() (*graph.Graph, error) { return testGraph(t, 1), nil })
	if err != nil || g == nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("the just-loaded entry must stay resident, got Len=%d", s.Len())
	}
}

func TestSnapshotDirWarmAndReload(t *testing.T) {
	dir := t.TempDir()
	want := testGraph(t, 3)
	var writes atomic.Int32
	s1 := graphstore.New(graphstore.Options{Dir: dir, OnEvent: func(e graphstore.Event) {
		if e.Type == graphstore.EventSnapshotWrite {
			writes.Add(1)
		}
	}})
	r, err := s1.Get("R9@g1", func() (*graph.Graph, error) { return want, nil })
	if err != nil || r.Source != graphstore.SourceBuilt {
		t.Fatalf("cold load: source=%v err=%v", r.Source, err)
	}
	if writes.Load() != 1 {
		t.Fatalf("snapshot writes = %d, want 1", writes.Load())
	}
	if _, err := os.Stat(s1.SnapshotPath("R9@g1")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	// A fresh store (fresh process) must load from the snapshot without
	// running the materializer.
	s2 := graphstore.New(graphstore.Options{Dir: dir})
	r2, err := s2.Get("R9@g1", func() (*graph.Graph, error) {
		t.Fatal("materializer must not run on a warm snapshot")
		return nil, nil
	})
	if err != nil || r2.Source != graphstore.SourceSnapshot {
		t.Fatalf("warm load: source=%v err=%v", r2.Source, err)
	}
	if r2.Graph.NumEdges() != want.NumEdges() || r2.Graph.NumVertices() != want.NumVertices() {
		t.Fatal("snapshot-loaded graph differs from the built one")
	}
}

func TestCorruptSnapshotFallsBackToBuild(t *testing.T) {
	dir := t.TempDir()
	s1 := graphstore.New(graphstore.Options{Dir: dir})
	if _, err := s1.Load("k@g1", func() (*graph.Graph, error) { return testGraph(t, 4), nil }); err != nil {
		t.Fatal(err)
	}
	path := s1.SnapshotPath("k@g1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var corrupt, rewrote atomic.Int32
	s2 := graphstore.New(graphstore.Options{Dir: dir, OnEvent: func(e graphstore.Event) {
		switch e.Type {
		case graphstore.EventSnapshotCorrupt:
			corrupt.Add(1)
		case graphstore.EventSnapshotWrite:
			rewrote.Add(1)
		}
	}})
	rebuilt := false
	r, err := s2.Get("k@g1", func() (*graph.Graph, error) { rebuilt = true; return testGraph(t, 4), nil })
	if err != nil {
		t.Fatalf("corrupt snapshot must not fail the load: %v", err)
	}
	if !rebuilt || r.Source != graphstore.SourceBuilt {
		t.Fatalf("rebuilt=%v source=%v, want regeneration", rebuilt, r.Source)
	}
	if corrupt.Load() != 1 || rewrote.Load() != 1 {
		t.Fatalf("corrupt=%d rewrote=%d, want 1 and 1", corrupt.Load(), rewrote.Load())
	}
	// The rewritten snapshot decodes cleanly again.
	if _, err := graph.ReadSnapshotFile(path); err != nil {
		t.Fatalf("rewritten snapshot still bad: %v", err)
	}
}

func TestEvictKeepsSnapshotOnDisk(t *testing.T) {
	dir := t.TempDir()
	s := graphstore.New(graphstore.Options{Dir: dir})
	if _, err := s.Load("k@g1", func() (*graph.Graph, error) { return testGraph(t, 5), nil }); err != nil {
		t.Fatal(err)
	}
	if !s.Evict("k@g1") {
		t.Fatal("Evict must drop a resident entry")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("after evict: Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
	// The next load comes from the snapshot, not the builder.
	r, err := s.Get("k@g1", func() (*graph.Graph, error) {
		t.Fatal("must reload from snapshot")
		return nil, nil
	})
	if err != nil || r.Source != graphstore.SourceSnapshot {
		t.Fatalf("source=%v err=%v, want snapshot", r.Source, err)
	}
}

func TestSnapshotPathsDistinctAndStable(t *testing.T) {
	s := graphstore.New(graphstore.Options{Dir: t.TempDir()})
	a, b := s.SnapshotPath("R1@g1"), s.SnapshotPath("R1@g2")
	if a == b {
		t.Fatal("different fingerprints must map to different snapshot files")
	}
	if a != s.SnapshotPath("R1@g1") {
		t.Fatal("snapshot paths must be stable")
	}
	// Keys that sanitize to the same stem must still be distinct files.
	if s.SnapshotPath("a/b") == s.SnapshotPath("a:b") {
		t.Fatal("sanitization collisions must be disambiguated")
	}
	if filepath.Dir(a) != s.Dir() {
		t.Fatal("snapshots must live in the configured dir")
	}
}

func TestSnapshotWriteFailureIsBestEffort(t *testing.T) {
	// A regular file where a path component should be makes every
	// snapshot write fail (ENOTDIR), even when running as root — unlike
	// permission bits, which root bypasses.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(blocker, "cache")
	var writeFailed, corrupt atomic.Int32
	s := graphstore.New(graphstore.Options{Dir: dir, OnEvent: func(e graphstore.Event) {
		switch e.Type {
		case graphstore.EventSnapshotWriteFailed:
			writeFailed.Add(1)
		case graphstore.EventSnapshotCorrupt:
			corrupt.Add(1)
		}
	}})
	r, err := s.Get("k@g1", func() (*graph.Graph, error) { return testGraph(t, 6), nil })
	if err != nil {
		t.Fatalf("an unwritable snapshot dir must not fail the load: %v", err)
	}
	if r.Source != graphstore.SourceBuilt {
		t.Fatalf("source = %v, want built", r.Source)
	}
	// The unreadable path surfaces once as a read failure (corrupt) and
	// once as a write failure — never as a corruption event for the write.
	if writeFailed.Load() != 1 || corrupt.Load() != 1 {
		t.Fatalf("writeFailed=%d corrupt=%d, want 1 and 1", writeFailed.Load(), corrupt.Load())
	}
}

// A format-v1 file left in the directory by an older build is a corrupt
// snapshot like any other, in heap and mmap mode alike: the store falls
// back to one corrupt event, a rebuild, and a current-format file in its
// place.
func TestMapSnapshotsV1Fallback(t *testing.T) {
	// Magic, version 1, then a plausible v1 header tail.
	v1 := append([]byte("GLYTSNAP"), 1, 0, 0, 0)
	v1 = append(v1, make([]byte, 8+24)...)
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mapped=%v", mapped), func(t *testing.T) {
			var corrupt atomic.Int32
			s := graphstore.New(graphstore.Options{Dir: t.TempDir(), MapSnapshots: mapped, OnEvent: func(e graphstore.Event) {
				if e.Type == graphstore.EventSnapshotCorrupt {
					corrupt.Add(1)
					if !errors.Is(e.Err, graph.ErrBadSnapshot) {
						t.Errorf("corrupt event error = %v, want ErrBadSnapshot", e.Err)
					}
				}
			}})
			path := s.SnapshotPath("k@g1")
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := s.Get("k@g1", func() (*graph.Graph, error) { return testGraph(t, 2), nil })
			if err != nil {
				t.Fatalf("v1 snapshot must not fail the load: %v", err)
			}
			if r.Source != graphstore.SourceBuilt {
				t.Fatalf("source = %v, want built", r.Source)
			}
			if got := corrupt.Load(); got != 1 {
				t.Fatalf("%d corrupt events, want exactly 1", got)
			}
			g, err := graph.MapSnapshotFile(path)
			if err != nil {
				t.Fatalf("rewritten snapshot does not map: %v", err)
			}
			g.Close()
		})
	}
}

func TestGetStreamedRequiresDir(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	if _, err := s.GetStreamed("xl@g1", func(string) error { return nil }); err == nil {
		t.Fatal("GetStreamed without a snapshot dir must fail")
	}
}
