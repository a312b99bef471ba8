package native

import (
	"context"
	"errors"
	"math"
	"runtime"
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
// structure, sub-bucket lists, claim stamps and per-worker relax buffers
// all live in the pooled scratch, so after warm-up a run allocates the
// output vector and a constant number of job and round descriptors
// (11 objects), whatever the graph (TestSSSPAllocsIndependentOfPhases pins
// that part). The ceiling sits below the graph's ≈ 360 relax phases, so an
// allocation per phase fails it, but above what the race detector adds:
// it makes sync.Pool drop a quarter of the par regions it recycles, about
// one allocation per four phases.
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
	if allocs := testing.AllocsPerRun(3, run); allocs > 256 {
		t.Fatalf("steady-state SSSP run allocated %.0f objects, want <= 256 "+
			"(per-phase allocation has regressed)", allocs)
	}
}

// TestSSSPAllocsIndependentOfPhases guards the pooled bucket state across
// graphs of very different depth: a shortest-path search down a weighted
// path relaxes one vertex per phase, spread over buckets and sub-buckets,
// and a warm run must allocate the same on a path twenty times longer.
func TestSSSPAllocsIndependentOfPhases(t *testing.T) {
	warmAllocs := func(n int) float64 {
		b := graph.NewBuilder(true, true)
		state := uint64(5)
		for v := 1; v < n; v++ {
			state = state*6364136223846793005 + 1442695040888963407
			b.AddWeightedEdge(int64(v-1), int64(v), float64(state>>40&0xffffff)*0x1p-24+0.01)
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
			dist, err := sssp(context.Background(), u, 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(dist[n-1], 1) {
				t.Fatalf("the path's end is unreachable")
			}
		}
		run() // warm-up: grows the pooled bucket, sub-bucket and frontier lists
		return testing.AllocsPerRun(3, run)
	}
	if short, long := warmAllocs(200), warmAllocs(4000); short != long {
		t.Fatalf("warm SSSP allocated %.0f objects over a 200-vertex path but %.0f over 4000: "+
			"allocation grows with the phase or sub-bucket count", short, long)
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

// TestWCCSteadyStateAllocs guards Afforest's fixed-size sample: on graphs
// of vertex pairs, where every sampled vertex can have a root of its own,
// a warm WCC allocates the same on a graph sixteen times larger — its
// parent and label arrays, its round and chunk bodies and the job's
// bookkeeping, seven objects — so neither the sample nor the election of
// the giant tree allocates per call or per root. It runs on one thread:
// wider regions recycle through a sync.Pool, which the race detector
// makes drop at random.
func TestWCCSteadyStateAllocs(t *testing.T) {
	warmAllocs := func(n int) float64 {
		b := graph.NewBuilder(false, false)
		for v := 0; v < n; v += 2 {
			b.AddEdge(int64(v), int64(v+1))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		up, err := New().Upload(g, platform.RunConfig{Threads: 1, Machines: 1})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		defer u.Free()
		run := func() {
			if _, err := wcc(context.Background(), u); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the pooled scratch
		return testing.AllocsPerRun(3, run)
	}
	small, large := warmAllocs(500), warmAllocs(8000)
	if small != large {
		t.Fatalf("warm WCC allocated %.0f objects on 500 vertices but %.0f on 8000: "+
			"allocation grows with the graph", small, large)
	}
	if small > 7 {
		t.Fatalf("warm WCC allocated %.0f objects, want <= 7 (a per-call sample or map has crept in)", small)
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

// TestFreshUploadPageRankAllocs guards the engine-lifetime runtime pool:
// the cluster runtime and its Kernels (PageRank's second rank array and
// contributions, the dangling list) outlive the upload, so after one
// earlier job of the engine a PageRank on a fresh upload — of a graph as
// large as the earlier one, or of a smaller one — allocates its output and
// at most 8 KiB more.
func TestFreshUploadPageRankAllocs(t *testing.T) {
	const n = 4000
	warm := allocGraph(t, n, 4, false)
	for _, size := range []int{n, n / 4} {
		g := allocGraph(t, size, 4, false)
		p := New()
		cfg := platform.RunConfig{Threads: 4, Machines: 1}
		pr := func(up platform.Uploaded) {
			if _, err := run(context.Background(), up.(*uploaded), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
				return k.PageRank(rt, up.Graph(), 10, 0.85)
			}); err != nil {
				t.Fatal(err)
			}
		}
		up, err := p.Upload(warm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr(up)
		up.Free()
		up, err = p.Upload(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pr(up)
		runtime.ReadMemStats(&after)
		up.Free()
		if bytes, budget := after.TotalAlloc-before.TotalAlloc, uint64(size*8+8<<10); bytes > budget {
			t.Errorf("PageRank on a fresh upload of %d vertices allocated %d bytes, want <= %d (the output and 8 KiB)", size, bytes, budget)
		}
	}
}
