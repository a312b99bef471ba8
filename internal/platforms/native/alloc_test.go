package native

import (
	"context"
	"errors"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-vertex, per-round or per-phase allocation would dwarf the assertion
// budget. Weights (when asked for) come from the same LCG stream.
func allocGraph(t testing.TB, n, deg int, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true, weighted)
	b.SetName("alloc-test")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	state := uint64(3)
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

// TestCDLPSteadyStateAllocs guards the frontier CDLP path: after a warm-up
// job has grown the pooled scratch (histogram, dirty stamps, changed
// flags), a whole run must allocate only the label arrays plus a constant
// number of round descriptors — nothing proportional to vertices or to
// the frontier churn.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := cdlp(context.Background(), u, 10); err != nil {
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

// TestSSSPSteadyStateAllocs guards the delta-stepping path: the bucket
// structure, claim stamps and per-worker relax buffers all live in the
// pooled scratch, so after warm-up a run allocates only the output vector
// plus one round descriptor per relax phase.
func TestSSSPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := sssp(context.Background(), u, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the pooled scratch and bucket arrays
	allocs := testing.AllocsPerRun(3, run)
	// Budget: the output array plus one cluster round per relax phase; the
	// phase count is graph-dependent but far below this ceiling.
	if allocs > 512 {
		t.Fatalf("steady-state SSSP run allocated %.0f objects, want <= 512 "+
			"(per-phase allocation has regressed)", allocs)
	}
}

// TestLCCSteadyStateAllocs guards the triangle kernel's pooling: the
// orientation lives on the upload and the numerators and per-thread marks
// in the pooled scratch, so a warm Execute allocates the output, the chunk
// bounds and the job's bookkeeping — a count that follows the thread
// budget, never the 4000 vertices.
func TestLCCSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	e := New()
	up, err := e.Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Free()
	run := func() {
		if _, err := e.Execute(context.Background(), up, algorithms.LCC, algorithms.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: builds the orientation and grows the pooled scratch
	if allocs := testing.AllocsPerRun(3, run); allocs > 64 {
		t.Fatalf("warm LCC Execute allocated %.0f objects, want <= 64 "+
			"(the orientation or the per-thread scratch is being rebuilt per job)", allocs)
	}
}

// TestBFSAllocsIndependentOfLevels guards the pooled frontier: a search
// down a path takes one level per vertex, and a warm run must allocate
// the same number of objects on a short path as on one thirty times
// longer.
func TestBFSAllocsIndependentOfLevels(t *testing.T) {
	warmAllocs := func(n int) float64 {
		b := graph.NewBuilder(true, false)
		for v := 1; v < n; v++ {
			b.AddEdge(int64(v-1), int64(v))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		defer u.Free()
		run := func() {
			depth, err := bfs(context.Background(), u, 0)
			if err != nil {
				t.Fatal(err)
			}
			if depth[n-1] != int64(n-1) {
				t.Fatalf("depth of the path's end = %d, want %d", depth[n-1], n-1)
			}
		}
		run() // warm-up: grows the pooled frontier and claim lists
		return testing.AllocsPerRun(3, run)
	}
	if short, long := warmAllocs(64), warmAllocs(2048); short != long {
		t.Fatalf("warm BFS allocated %.0f objects over 63 levels but %.0f over 2047: "+
			"allocation grows with the level count", short, long)
	}
}

// TestLCCMemoryAccounting checks that the triangle kernel's memory is
// charged as it is held: the orientation for the life of the upload, the
// numerators and marks for the job, and that a budget either does not fit
// fails the job as out of memory and leaves the upload usable.
func TestLCCMemoryAccounting(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	e := New()
	ctx := context.Background()
	const threads = 4
	orientation := algorithms.NewLCCOrientation(g, 1).Bytes()
	state := stateFootprint(g, algorithms.LCC, threads)

	up, err := e.Upload(g, platform.RunConfig{Threads: threads, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(ctx, up, algorithms.LCC, algorithms.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if want := g.MemoryFootprint() + orientation + state; res.PeakMemory != want {
		t.Errorf("PeakMemory = %d, want graph %d + orientation %d + job state %d = %d",
			res.PeakMemory, g.MemoryFootprint(), orientation, state, want)
	}
	up.Free()

	for name, budget := range map[string]int64{
		"orientation does not fit": g.MemoryFootprint() + orientation - 1,
		"job state does not fit":   g.MemoryFootprint() + orientation + state - 1,
	} {
		up, err := e.Upload(g, platform.RunConfig{Threads: threads, Machines: 1, MemoryPerMachine: budget})
		if err != nil {
			t.Fatalf("%s: upload: %v", name, err)
		}
		if _, err := e.Execute(ctx, up, algorithms.LCC, algorithms.Params{}); !errors.Is(err, cluster.ErrOutOfMemory) {
			t.Errorf("%s: LCC err = %v, want ErrOutOfMemory", name, err)
		}
		if _, err := e.Execute(ctx, up, algorithms.WCC, algorithms.Params{}); err != nil {
			t.Errorf("%s: WCC after the failed LCC job: %v", name, err)
		}
		up.Free()
		// Everything registered is released: the whole budget is free again.
		if err := up.(*uploaded).Cl.Alloc(0, budget); err != nil {
			t.Errorf("%s: after Free: %v", name, err)
		}
	}
}
