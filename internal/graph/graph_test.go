package graph_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"graphalytics/internal/graph"
)

func mustBuild(t *testing.T, b *graph.Builder) *graph.Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func TestBuilderDirected(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.SetName("d")
	b.AddVertex(100)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(3, 1)
	g := mustBuild(t, b)

	if g.NumVertices() != 4 {
		t.Fatalf("|V| = %d, want 4 (implicit endpoints + explicit isolated)", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("|E| = %d, want 3", g.NumEdges())
	}
	v1, ok := g.Index(1)
	if !ok {
		t.Fatal("vertex 1 missing")
	}
	if got := g.OutDegree(v1); got != 2 {
		t.Fatalf("outdeg(1) = %d, want 2", got)
	}
	if got := g.InDegree(v1); got != 1 {
		t.Fatalf("indeg(1) = %d, want 1", got)
	}
	v100, _ := g.Index(100)
	if g.OutDegree(v100) != 0 || g.InDegree(v100) != 0 {
		t.Fatal("isolated vertex must have degree 0")
	}
	if _, ok := g.Index(42); ok {
		t.Fatal("Index(42) should not exist")
	}
}

func TestBuilderUndirected(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddEdge(5, 7)
	b.AddEdge(7, 9)
	g := mustBuild(t, b)
	v7, _ := g.Index(7)
	if got := g.OutDegree(v7); got != 2 {
		t.Fatalf("deg(7) = %d, want 2", got)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d, want 2 (undirected edges counted once)", g.NumEdges())
	}
	v5, _ := g.Index(5)
	if !g.HasEdge(v5, v7) || !g.HasEdge(v7, v5) {
		t.Fatal("undirected edge must be visible from both endpoints")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.AddEdge(1, 1)
	if _, err := b.Build(); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
}

func TestBuilderDropsSelfLoop(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.SetOptions(graph.BuildOptions{DropSelfLoops: true})
	b.AddEdge(1, 1)
	b.AddEdge(1, 2)
	g := mustBuild(t, b)
	if g.NumEdges() != 1 {
		t.Fatalf("|E| = %d, want 1", g.NumEdges())
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.AddEdge(1, 2)
	b.AddEdge(1, 2)
	if _, err := b.Build(); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("err = %v, want ErrDuplicateEdge", err)
	}
}

func TestBuilderUndirectedDuplicateBothOrders(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1) // same undirected edge
	if _, err := b.Build(); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("err = %v, want ErrDuplicateEdge for reversed duplicate", err)
	}
}

func TestBuilderDedup(t *testing.T) {
	b := graph.NewBuilder(false, true)
	b.SetOptions(graph.BuildOptions{DedupEdges: true})
	b.AddWeightedEdge(1, 2, 10)
	b.AddWeightedEdge(2, 1, 99) // duplicate keeps the first weight
	g := mustBuild(t, b)
	if g.NumEdges() != 1 {
		t.Fatalf("|E| = %d, want 1", g.NumEdges())
	}
	v1, _ := g.Index(1)
	if w := g.OutWeights(v1)[0]; w != 10 {
		t.Fatalf("kept weight %v, want the first occurrence (10)", w)
	}
}

func TestWeights(t *testing.T) {
	b := graph.NewBuilder(true, true)
	b.AddWeightedEdge(1, 2, 0.5)
	b.AddWeightedEdge(1, 3, 2.5)
	g := mustBuild(t, b)
	v1, _ := g.Index(1)
	ws := g.OutWeights(v1)
	adj := g.OutNeighbors(v1)
	for i, u := range adj {
		want := 0.5
		if g.VertexID(u) == 3 {
			want = 2.5
		}
		if ws[i] != want {
			t.Fatalf("weight to %d = %v, want %v", g.VertexID(u), ws[i], want)
		}
	}
	v2, _ := g.Index(2)
	if inw := g.InWeights(v2); len(inw) != 1 || inw[0] != 0.5 {
		t.Fatalf("in-weights of 2 = %v, want [0.5]", inw)
	}
}

func TestUnweightedGraphHasNilWeights(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.AddEdge(1, 2)
	g := mustBuild(t, b)
	v1, _ := g.Index(1)
	if g.OutWeights(v1) != nil || g.InWeights(v1) != nil {
		t.Fatal("unweighted graph must return nil weights")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		edges := []graph.Edge{
			{Src: 3, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 3, Weight: 3},
		}
		g1, err := graph.FromEdges("a", directed, true, edges, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := graph.FromEdges("b", directed, true, g1.Edges(), graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g1.NumEdges() != g2.NumEdges() || g1.NumVertices() != g2.NumVertices() {
			t.Fatalf("directed=%v: round trip changed the graph", directed)
		}
		e1, e2 := g1.Edges(), g2.Edges()
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("directed=%v: edge %d: %v != %v", directed, i, e1[i], e2[i])
			}
		}
	}
}

func TestCSRInvariantsProperty(t *testing.T) {
	// Property: for any random multigraph input, the built CSR has sorted
	// adjacency, consistent degree sums, and a sorted identifier table.
	check := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(directed, false)
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int64(rng.Intn(n)*2), int64(rng.Intn(n)*2))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var outSum, inSum int64
		prev := int64(-1)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if id := g.VertexID(v); id <= prev {
				return false // identifier table must be strictly ascending
			} else {
				prev = id
			}
			adj := g.OutNeighbors(v)
			for i := 1; i < len(adj); i++ {
				if adj[i-1] >= adj[i] {
					return false // adjacency must be strictly ascending
				}
			}
			outSum += int64(g.OutDegree(v))
			inSum += int64(g.InDegree(v))
		}
		if directed {
			return outSum == g.NumEdges() && inSum == g.NumEdges()
		}
		return outSum == 2*g.NumEdges() && inSum == outSum
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdge(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.AddEdge(1, 2)
	g := mustBuild(t, b)
	v1, _ := g.Index(1)
	v2, _ := g.Index(2)
	if !g.HasEdge(v1, v2) {
		t.Fatal("edge 1->2 missing")
	}
	if g.HasEdge(v2, v1) {
		t.Fatal("directed graph must not report the reverse edge")
	}
}

func TestClone(t *testing.T) {
	for _, directed := range []bool{true, false} {
		b := graph.NewBuilder(directed, true)
		b.SetName("src")
		b.AddWeightedEdge(1, 2, 5)
		b.AddWeightedEdge(3, 2, 7)
		b.AddWeightedEdge(2, 4, 9)
		g := mustBuild(t, b)
		c := g.Clone()
		assertGraphsEqual(t, c, g)
		if c.MemoryFootprint() != g.MemoryFootprint() {
			t.Fatalf("directed=%v: clone footprint %d, source %d", directed, c.MemoryFootprint(), g.MemoryFootprint())
		}
		// No array aliases the source: writing through the clone's views
		// must leave the graph untouched.
		v2, _ := g.Index(2)
		if &c.IDs()[0] == &g.IDs()[0] {
			t.Fatal("Clone must copy the identifier table, not alias it")
		}
		c.OutNeighbors(v2)[0], c.InNeighbors(v2)[0] = 99, 99
		c.OutWeights(v2)[0], c.InWeights(v2)[0] = -1, -1
		if g.OutNeighbors(v2)[0] == 99 || g.InNeighbors(v2)[0] == 99 || g.OutWeights(v2)[0] == -1 || g.InWeights(v2)[0] == -1 {
			t.Fatalf("directed=%v: Clone must return copies, not aliases", directed)
		}
	}
}

// An undirected clone shares one set of arrays between the two directions
// like every undirected Graph, so its footprint counts them once.
func TestCloneUndirectedSharesStorage(t *testing.T) {
	u, err := graph.FromEdges("u", false, false, []graph.Edge{{Src: 0, Dst: 1}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := u.Clone()
	if &c.InNeighbors(0)[0] != &c.OutNeighbors(0)[0] {
		t.Fatal("undirected clone must alias in- and out-adjacency")
	}
	d, err := graph.FromEdges("d", true, false, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.MemoryFootprint() >= d.Clone().MemoryFootprint() {
		t.Fatalf("undirected clone footprint %d should be below the directed one's %d", c.MemoryFootprint(), d.Clone().MemoryFootprint())
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	b := graph.NewBuilder(false, true)
	b.AddWeightedEdge(1, 2, 1)
	g := mustBuild(t, b)
	if g.MemoryFootprint() <= 0 {
		t.Fatal("footprint must be positive")
	}
}

func TestStringer(t *testing.T) {
	b := graph.NewBuilder(false, true)
	b.SetName("tiny")
	b.AddWeightedEdge(1, 2, 1)
	g := mustBuild(t, b)
	s := g.String()
	for _, want := range []string{"tiny", "undirected", "weighted", "|V|=2", "|E|=1"} {
		if !contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDegreeStats(t *testing.T) {
	b := graph.NewBuilder(true, false)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(1, 4)
	b.AddEdge(2, 3)
	g := mustBuild(t, b)
	st := g.OutDegreeStats()
	if st.Max != 3 || st.Min != 0 {
		t.Fatalf("stats = %+v, want max 3 min 0", st)
	}
	if st.Mean != 1.0 {
		t.Fatalf("mean = %v, want 1.0 (4 arcs / 4 vertices)", st.Mean)
	}
	h := g.DegreeHistogram(2)
	if h[0] != 2 || h[1] != 1 || h[2] != 1 { // deg 3 truncated into last bucket
		t.Fatalf("histogram = %v", h)
	}
}
