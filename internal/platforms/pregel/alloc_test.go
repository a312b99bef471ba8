package pregel

import (
	"context"
	"runtime"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// TestBSPCombinerFoldOrderAndSlotReuse pins the combined-inbox contract:
// three or more messages arriving at one vertex during a single delivery
// fold into the vertex's single slot strictly left to right in delivery
// order, and the slot never grows into a multi-message inbox. The
// messages are float64s whose sum depends on the order it is taken in
// (1e16 absorbs a lone 1, but not two 1s added first), so any deviation —
// a second slot appended mid-delivery, a reordered fold — changes the
// observed value.
func TestBSPCombinerFoldOrderAndSlotReuse(t *testing.T) {
	// star: 0,1,2 all point at 3.
	g, err := graph.FromEdges("star", true, false, []graph.Edge{
		{Src: 0, Dst: 3}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := New().Upload(g, platform.RunConfig{Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	sent := []float64{1e16, 1, 1}
	if (sent[0]+sent[1])+sent[2] == (sent[2]+sent[1])+sent[0] {
		t.Fatal("the messages' sum does not depend on the fold order")
	}
	r := newRunner[float64](u, platform.SumCombiner, 8, nil)
	var got []float64
	err = r.run(context.Background(), func(w *worker[float64], v int32, msgs []float64, superstep int) {
		if superstep == 0 {
			// With one machine and one thread, delivery order is vertex
			// order: vertex 0's message, then 1's, then 2's.
			if v < 3 {
				w.Send(3, sent[v])
			}
		}
		if superstep == 1 && v == 3 {
			got = append(got, msgs...)
		}
		w.VoteToHalt(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	r.release()
	if len(got) != 1 {
		t.Fatalf("combined inbox held %d messages, want exactly one slot", len(got))
	}
	if want := (sent[0] + sent[1]) + sent[2]; got[0] != want {
		t.Fatalf("combined value = %v, want %v (left-to-right fold of %v)", got[0], want, sent)
	}
}

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-vertex or per-message allocation would dwarf the assertion budget.
func allocGraph(t testing.TB, n, deg int, directed bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(directed, false)
	b.SetName("alloc-test")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	state := uint64(1)
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			state = state*6364136223846793005 + 1442695040888963407
			b.AddEdge(int64(v), int64(state>>33)%int64(n))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPageRankSteadyStateAllocs is the arena-discipline regression guard:
// after a warm-up job has grown every message-plane buffer, a whole
// PageRank run — tens of supersteps over thousands of vertices — must
// allocate at most a small constant (the output array and a handful of
// setup cells), i.e. steady-state supersteps allocate nothing. The seed
// implementation allocated fresh staging slices and inbox rows every
// superstep, tens of thousands of objects on this graph.
func TestPageRankSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	const iterations = 30
	run := func() {
		if _, err := prProgram(context.Background(), nil, u, iterations, 0.85, platform.SumCombiner); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the pooled arenas
	allocs := testing.AllocsPerRun(3, run)
	// Budget: the returned rank array, a few fixed setup allocations, and
	// one cluster round descriptor per superstep — nothing proportional to
	// vertices or messages (the seed allocated tens of thousands here).
	budget := float64(iterations + 2 + 8)
	if allocs > budget {
		t.Fatalf("steady-state PageRank run allocated %.0f objects, want <= %.0f "+
			"(per-superstep allocation has regressed)", allocs, budget)
	}
}

// TestCDLPSteadyStateAllocs guards the frontier CDLP program: the
// prev-label snapshot and histogram are pooled alongside the runner's
// message plane, so after warm-up a whole run — change notifications,
// barrier snapshot copies, early convergence — allocates only the label
// array plus a constant number of superstep descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := cdlpProgram(context.Background(), nil, u, 10); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the message plane and the CDLP scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 64 {
		t.Fatalf("steady-state CDLP run allocated %.0f objects, want <= 64 "+
			"(per-superstep allocation has regressed)", allocs)
	}
}

// TestUploadAllocs guards the upload: vertex programs read the graph's
// rows in place, so an upload allocates the partition and a constant
// number of other objects, not one adjacency copy per vertex.
func TestUploadAllocs(t *testing.T) {
	for _, n := range []int{500, 8000} {
		g := allocGraph(t, n, 4, true)
		allocs := testing.AllocsPerRun(3, func() {
			up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
			if err != nil {
				t.Fatal(err)
			}
			up.Free()
		})
		if allocs > 64 {
			t.Errorf("uploading %d vertices allocated %.0f objects, want <= 64", n, allocs)
		}
	}
}

// TestLCCDirectedAllocsDoNotGrowWithTheGraph guards the directed LCC
// neighborhoods: they are merged into one pooled buffer, so after a
// warm-up a job allocates the same on a graph of 500 vertices and on one
// of 8 000. One thread keeps the regions inline, so no goroutine the host
// may start for the larger graph's chunks is counted.
func TestLCCDirectedAllocsDoNotGrowWithTheGraph(t *testing.T) {
	var got []float64
	for _, n := range []int{500, 8000} {
		g := allocGraph(t, n, 4, true)
		up, err := New().Upload(g, platform.RunConfig{Threads: 1, Machines: 1})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		run := func() {
			if _, err := lccProgram(context.Background(), nil, u); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the message exchange and the neighborhoods
		got = append(got, testing.AllocsPerRun(3, run))
		u.Free()
	}
	if got[0] != got[1] {
		t.Fatalf("directed LCC allocated %.0f objects at 500 vertices and %.0f at 8000, want the same", got[0], got[1])
	}
}

// TestLCCSteadyStateAllocs guards LCC's per-thread neighborhood marks:
// they are pooled with the engine's scratch, so after a warm-up a run on
// a directed and on an undirected graph allocates the output array, a
// small constant number of objects, and a small constant number of bytes
// beyond the output: marks allocated per Execute would add a vertex-sized
// array per thread, and per chunk or per vertex, far more.
func TestLCCSteadyStateAllocs(t *testing.T) {
	const n = 4000
	for _, directed := range []bool{true, false} {
		g := allocGraph(t, n, 4, directed)
		up, err := New().Upload(g, platform.RunConfig{Threads: 4, Machines: 1})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		run := func() {
			if _, err := lccProgram(context.Background(), nil, u); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the message exchange, the marks and the neighborhoods
		allocs := testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		u.Free()
		if allocs > 16 {
			t.Errorf("directed=%v: steady-state LCC run allocated %.0f objects, want <= 16", directed, allocs)
		}
		if bytes, budget := after.TotalAlloc-before.TotalAlloc, uint64(n*8+8<<10); bytes > budget {
			t.Errorf("directed=%v: steady-state LCC run allocated %d bytes, want <= %d (the output and 8 KiB)", directed, bytes, budget)
		}
	}
}

// TestFreshUploadAllocs guards the engine-lifetime scratch pool: the
// runner, the message exchange and LCC's marks and neighborhoods outlive
// the upload, so after one earlier job of the engine a job on a fresh
// upload — of a graph as large as the earlier one, or of a smaller one —
// allocates its output and at most 8 KiB more, like a repeated job on one
// upload. Scratch that hung off the upload would be rebuilt cold for
// every new upload, every daemon run and every suite pass.
func TestFreshUploadAllocs(t *testing.T) {
	const n = 4000
	programs := []struct {
		name string
		run  func(u *uploaded) error
	}{
		{"PR", func(u *uploaded) error {
			_, err := prProgram(context.Background(), nil, u, 10, 0.85, platform.SumCombiner)
			return err
		}},
		{"WCC", func(u *uploaded) error {
			_, err := wccProgram(context.Background(), nil, u, platform.MinCombiner)
			return err
		}},
		{"LCC", func(u *uploaded) error {
			_, err := lccProgram(context.Background(), nil, u)
			return err
		}},
	}
	warm := allocGraph(t, n, 4, true)
	for _, size := range []int{n, n / 4} {
		g := allocGraph(t, size, 4, true)
		for _, prog := range programs {
			p := New()
			cfg := platform.RunConfig{Threads: 4, Machines: 1}
			up, err := p.Upload(warm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := prog.run(up.(*uploaded)); err != nil {
				t.Fatal(err)
			}
			up.Free()
			up, err = p.Upload(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = prog.run(up.(*uploaded))
			runtime.ReadMemStats(&after)
			up.Free()
			if err != nil {
				t.Fatal(err)
			}
			if bytes, budget := after.TotalAlloc-before.TotalAlloc, uint64(size*8+8<<10); bytes > budget {
				t.Errorf("%s on a fresh upload of %d vertices allocated %d bytes, want <= %d (the output and 8 KiB)", prog.name, size, bytes, budget)
			}
		}
	}
}
