package spmv

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
	state := uint64(7)
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

// TestCDLPSteadyStateAllocs guards the frontier-masked column gather: the
// dirty and changed masks and the histogram live in the pooled scratch,
// so after warm-up a run allocates only the label arrays plus a constant
// number of round descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New(BackendS).Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := run(context.Background(), u, platform.Allgather(u.Cl, 12), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
			return k.CDLP(rt, u.g, 10)
		}); err != nil {
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

// TestSSSPSteadyStateAllocs guards the sparse Bellman-Ford SpMSpV: the
// distance bits, claim stamps, round-start distances and frontiers live in
// the kernel state the upload pools and the relax buffers in the threads,
// so after warm-up a run allocates its output, its routing counters and a
// few per-job closures, however many rounds it runs.
func TestSSSPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New(BackendD).Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := sssp(context.Background(), u, 0); err != nil {
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

// TestBFSSteadyStateAllocs guards the pooled discovery merge: every level
// collects each machine's discoveries into the pooled kernel state's next
// frontier, so after warm-up a run allocates its output and a few per-job
// closures, and no merge buffers per level.
func TestBFSSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New(BackendD).Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := bfs(context.Background(), u, 0); err != nil {
			t.Fatal(err)
		}
	}
	job() // warm-up: grows the threads' discovery buffers
	allocs := testing.AllocsPerRun(3, job)
	if allocs > 128 {
		t.Fatalf("steady-state BFS run allocated %.0f objects, want <= 128 "+
			"(per-level allocation has regressed)", allocs)
	}
}

// TestWCCAllocsIndependentOfRounds guards the min-label pull: its round
// and chunk body are bound once and its per-thread counts pooled, so WCC
// on a path, which runs one round per vertex, allocates the same at 50 and
// at 500 rounds.
func TestWCCAllocsIndependentOfRounds(t *testing.T) {
	allocs := func(n int) float64 {
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{Src: int64(v - 1), Dst: int64(v)})
		}
		g, err := graph.FromEdges("path", false, false, edges, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		up, err := New(BackendD).Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		defer u.Free()
		job := func() {
			u.Cl.ResetTime()
			if _, err := run(context.Background(), u, platform.Allgather(u.Cl, 4), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
				return k.MinLabelWCC(rt, u.g)
			}); err != nil || u.Cl.Rounds() < n {
				t.Fatalf("WCC on a %d-vertex path: %d rounds, %v", n, u.Cl.Rounds(), err)
			}
		}
		job() // warm-up: grows the pooled scratch
		return testing.AllocsPerRun(3, job)
	}
	if short, long := allocs(50), allocs(500); long != short {
		t.Fatalf("WCC allocated %.0f objects at 50 rounds and %.0f at 500: a round allocates", short, long)
	}
}

// TestSSSPAllocsIndependentOfRounds guards the Bellman-Ford frontier
// loop: its round and chunk bodies are bound once and its distances,
// claims, round-start snapshot and frontiers live in the pooled kernel
// state, so SSSP on a weighted path, which runs one round per vertex,
// allocates the same at 50 and at 500 rounds.
func TestSSSPAllocsIndependentOfRounds(t *testing.T) {
	allocs := func(n int) float64 {
		edges := make([]graph.Edge, 0, n-1)
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{Src: int64(v - 1), Dst: int64(v), Weight: float64(v%7) + 0.5})
		}
		g, err := graph.FromEdges("weighted-path", true, true, edges, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		up, err := New(BackendD).Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		defer u.Free()
		job := func() {
			u.Cl.ResetTime()
			if _, err := sssp(context.Background(), u, 0); err != nil || u.Cl.Rounds() < n {
				t.Fatalf("SSSP on a %d-vertex path: %d rounds, %v", n, u.Cl.Rounds(), err)
			}
		}
		job() // warm-up: grows the pooled kernel state
		return testing.AllocsPerRun(3, job)
	}
	if short, long := allocs(50), allocs(500); long != short {
		t.Fatalf("SSSP allocated %.0f objects at 50 rounds and %.0f at 500: a round allocates", short, long)
	}
}

// TestPageRankSteadyStateAllocs guards the pooled rank arrays: the second
// rank array, the contributions and the dangling list live in the kernel
// state the engine pools, so after warm-up a PageRank on two machines of the D backend allocates its
// output and at most 8 KiB more, not a rank-sized array per job.
func TestPageRankSteadyStateAllocs(t *testing.T) {
	const n = 4000
	g := allocGraph(t, n, 4, false)
	up, err := New(BackendD).Upload(g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	job := func() {
		if _, err := run(context.Background(), u, platform.Allgather(u.Cl, 8), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
			return k.ApplyGatherPageRank(rt, u.g, 10, 0.85)
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
