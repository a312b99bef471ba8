package pushpull

import (
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

func TestStoreLayout(t *testing.T) {
	g, err := graph.FromEdges("s", true, true, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 2, Dst: 1, Weight: 3}, {Src: 1, Dst: 2, Weight: 4},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := New().Upload(g, platform.RunConfig{Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Free()
	u := up.(*uploaded)
	st := u.lay.G
	if st == g || &st.OutNeighbors(0)[0] == &g.OutNeighbors(0)[0] {
		t.Fatal("the engine must run on its own copy of the graph")
	}

	if got := st.OutNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("out(0) = %v, want [1]", got)
	}
	if got := st.InNeighbors(1); len(got) != 2 {
		t.Fatalf("in(1) = %v, want two in-neighbors", got)
	}
	if ws := st.OutWeights(1); len(ws) != 1 || ws[0] != 4 {
		t.Fatalf("outWeights(1) = %v", ws)
	}
	if st.OutDegree(2) != 1 {
		t.Fatalf("outDegree(2) = %d", st.OutDegree(2))
	}
	if u.arcs != 3 {
		t.Fatalf("arcs = %d, want 3", u.arcs)
	}
}

func TestDanglingVertexList(t *testing.T) {
	g, err := graph.FromEdges("d", true, false, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := New().Upload(g, platform.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Free()
	u := up.(*uploaded)
	// Vertices 1 and 2 have no out-edges.
	if len(u.danglingVerts) != 2 {
		t.Fatalf("dangling = %v, want the two sinks", u.danglingVerts)
	}
}
