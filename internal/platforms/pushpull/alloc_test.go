package pushpull

import (
	"context"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/rangecsr"
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
	run := func() {
		if _, err := rangecsr.CDLP(context.Background(), &u.BaseUpload, u.lay, 10); err != nil {
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
	run := func() {
		if _, err := sssp(context.Background(), u, 0); err != nil {
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
