package spmv

import (
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

func TestMatrixLayoutDirected(t *testing.T) {
	g, err := graph.FromEdges("m", true, true, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 0, Dst: 2, Weight: 3}, {Src: 2, Dst: 1, Weight: 5},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := New(BackendS).Upload(g, platform.RunConfig{Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Free()
	m := up.(*uploaded).g
	if m == g || &m.OutNeighbors(0)[0] == &g.OutNeighbors(0)[0] {
		t.Fatal("the engine must run on its own copy of the graph")
	}
	if m.NumVertices() != 3 || !m.Directed() || !m.Weighted() {
		t.Fatalf("matrix header wrong: %v", m)
	}
	if got := m.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("row 0 = %v, want [1 2]", got)
	}
	if got := m.OutWeights(0); got[0] != 2 || got[1] != 3 {
		t.Fatalf("row 0 weights = %v", got)
	}
	if got := m.InNeighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("col 1 = %v, want [0 2]", got)
	}
	if m.OutDegree(0) != 2 || m.OutDegree(1) != 0 {
		t.Fatal("out degrees wrong")
	}
	// Three rows and three columns of offsets, indices and values, split
	// over one machine, plus the 8n operand vector.
	if got, want := up.Cluster().PeakMemory(), int64(2*(4*8+3*4+3*8)+3*8); got != want {
		t.Fatalf("upload registered %d bytes, want %d", got, want)
	}
}
