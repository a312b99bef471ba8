package gas

import (
	"context"
	"runtime"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-vertex, per-round or per-replica allocation would dwarf the
// assertion budget. Weights (when asked for) come from the same LCG
// stream.
func allocGraph(t testing.TB, n, deg int, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true, weighted)
	b.SetName("alloc-test")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	state := uint64(5)
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			state = state*6364136223846793005 + 1442695040888963407
			dst := int64(state>>33) % int64(n)
			if weighted {
				w := float64(state>>40&0xffffff)*0x1p-24 + 0.01
				b.AddWeightedEdge(int64(v), dst, w)
			} else {
				b.AddEdge(int64(v), dst)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oneHostWorker runs the test's uploads on one host goroutine, so every
// simulated thread's chunk runs inline and an exact allocation count is
// the engine's own: a region that borrows helpers takes its dispatch
// state from a sync.Pool, which the race detector empties at random.
func oneHostWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCDLPSteadyStateAllocs guards the frontier CDLP path: the dirty and
// changed masks, the per-thread histograms and broadcast partials all
// live in the pooled scratch, so after warm-up a run allocates only the
// label arrays plus a constant number of round descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := cdlpGAS(context.Background(), u, 10); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the pooled scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 64 {
		t.Fatalf("steady-state CDLP run allocated %.0f objects, want <= 64 "+
			"(per-round allocation has regressed)", allocs)
	}
}

// TestSSSPSteadyStateAllocs guards the pooled relaxation path: tentative
// distance bits, claim stamps, per-thread discovery buffers and the
// frontier all come from the scratch pool, so after warm-up a run
// allocates only the output vector plus one round descriptor per
// relaxation round.
func TestSSSPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := ssspGAS(context.Background(), u, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the pooled scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 128 {
		t.Fatalf("steady-state SSSP run allocated %.0f objects, want <= 128 "+
			"(per-round allocation has regressed)", allocs)
	}
}

// TestBFSSteadyStateAllocs guards the pooled discovery merge: every level
// collects each machine's discoveries into a buffer the run reuses, so
// after warm-up a run allocates its output, its per-run frontier lists and
// their growth, and no merge buffers per level.
func TestBFSSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := bfsGAS(context.Background(), u, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the threads' discovery buffers
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 128 {
		t.Fatalf("steady-state BFS run allocated %.0f objects, want <= 128 "+
			"(per-level allocation has regressed)", allocs)
	}
}

// TestPRSteadyStateAllocs guards the bound PageRank rounds: the round
// bodies are built once per run and the dangling partials pooled, so a
// run of 40 iterations allocates exactly what a run of 5 does.
func TestPRSteadyStateAllocs(t *testing.T) {
	oneHostWorker(t)
	g := allocGraph(t, 4000, 4, false)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	allocs := func(iterations int) float64 {
		run := func() {
			if _, err := prGAS(context.Background(), u, iterations, 0.85); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the pooled partials
		return testing.AllocsPerRun(3, run)
	}
	if short, long := allocs(5), allocs(40); short != long {
		t.Fatalf("PageRank allocated %.0f objects at 5 iterations and %.0f at 40 "+
			"(per-iteration allocation has regressed)", short, long)
	}
}

// TestLCCSteadyStateAllocs guards the pooled LCC gather: neighborhoods
// land in one buffer at the CDLP layout's offsets and are sorted and
// deduplicated in place, so after warm-up a run on 8 000 vertices
// allocates exactly what a run on 500 does.
func TestLCCSteadyStateAllocs(t *testing.T) {
	oneHostWorker(t)
	allocs := func(n int) float64 {
		up, err := New().Upload(allocGraph(t, n, 4, false), platform.RunConfig{Threads: 4, Machines: 2})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		defer u.Free()
		run := func() {
			if _, err := lccGAS(context.Background(), u); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the pooled scratch
		return testing.AllocsPerRun(3, run)
	}
	if small, large := allocs(500), allocs(8000); small != large {
		t.Fatalf("LCC allocated %.0f objects on 500 vertices and %.0f on 8 000 "+
			"(per-vertex allocation has regressed)", small, large)
	}
}
