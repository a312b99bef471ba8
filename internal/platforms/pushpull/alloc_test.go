package pushpull

import (
	"context"
	"runtime"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-vertex, per-round or per-frontier allocation would dwarf the
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
	state := uint64(11)
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

// TestCDLPSteadyStateAllocs guards the frontier-masked label pull: the
// dirty and changed masks and the histogram live in the pooled scratch,
// so after warm-up a run allocates only the label arrays plus a constant
// number of round descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := run(context.Background(), u, 12, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) { return k.CDLP(rt, u.g, 10) }); err != nil {
			t.Fatal(err)
		}
	}
	job() // warm-up: grows the pooled scratch
	allocs := testing.AllocsPerRun(3, job)
	if allocs > 64 {
		t.Fatalf("steady-state CDLP run allocated %.0f objects, want <= 64 "+
			"(per-round allocation has regressed)", allocs)
	}
}

// TestSSSPSteadyStateAllocs guards the pooled push-relaxation path: the
// distance bits, claim stamps, round-start distances and frontiers live in
// the kernel state the upload pools and the relax buffers in the threads,
// so after warm-up a run allocates its output and a few per-job closures,
// however many rounds it runs.
func TestSSSPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := run(context.Background(), u, 16, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
			return k.BellmanFordSSSP(rt, u.g, 0)
		}); err != nil {
			t.Fatal(err)
		}
	}
	job() // warm-up: grows the pooled scratch
	allocs := testing.AllocsPerRun(3, job)
	if allocs > 128 {
		t.Fatalf("steady-state SSSP run allocated %.0f objects, want <= 128 "+
			"(per-round allocation has regressed)", allocs)
	}
}

// TestPageRankSteadyStateAllocs guards the pooled rank arrays: the second
// rank array, the contributions and the dangling list live in the kernel
// state the engine pools, so after warm-up a PageRank on one machine allocates its
// output and at most 8 KiB more, not a rank-sized array per job.
func TestPageRankSteadyStateAllocs(t *testing.T) {
	const n = 4000
	g := allocGraph(t, n, 4, false)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := run(context.Background(), u, 8, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
			return k.PageRank(rt, u.g, 10, 0.85)
		}); err != nil {
			t.Fatal(err)
		}
	}
	job() // warm-up: grows the pooled kernel state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	if bytes, budget := after.TotalAlloc-before.TotalAlloc, uint64(n*8+8<<10); bytes > budget {
		t.Errorf("warm PageRank of %d vertices allocated %d bytes, want <= %d (the output and 8 KiB)", n, bytes, budget)
	}
}

// TestBFSSteadyStateAllocs guards the pooled BFS state: the frontiers, the
// bitmap and the round closures live in the kernel state the engine pools,
// so a warm BFS job allocates the same on a directed path of 200 vertices
// (200 levels) as on one of 2 000, on one machine and on three.
func TestBFSSteadyStateAllocs(t *testing.T) {
	path := func(n int) *graph.Graph {
		b := graph.NewBuilder(true, false)
		b.SetName("path")
		for v := 0; v < n; v++ {
			b.AddVertex(int64(v))
		}
		for v := 1; v < n; v++ {
			b.AddEdge(int64(v-1), int64(v))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	e := New()
	for _, machines := range []int{1, 3} {
		var allocs []float64
		for _, n := range []int{200, 2000} {
			up, err := e.Upload(path(n), platform.RunConfig{Threads: 2, Machines: machines})
			if err != nil {
				t.Fatal(err)
			}
			job := func() {
				if _, err := e.Execute(context.Background(), up, algorithms.BFS, algorithms.Params{Source: 0}); err != nil {
					t.Fatal(err)
				}
			}
			job() // warm-up: grows the pooled kernel state
			allocs = append(allocs, testing.AllocsPerRun(3, job))
			up.Free()
		}
		if allocs[1] > allocs[0]+4 {
			t.Errorf("m%d: a warm BFS allocated %.0f objects on a 200-vertex path and %.0f on a 2000-vertex one, want the same within 4 "+
				"(per-level allocation has regressed)", machines, allocs[0], allocs[1])
		}
	}
}
