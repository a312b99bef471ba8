package algorithms_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
)

// diamond is a small directed weighted graph with hand-computed outputs:
//
//	1 -> 2 (1.0)   1 -> 3 (4.0)   2 -> 3 (1.5)   3 -> 4 (1.0)
//	4 -> 1 (1.0)   5 isolated
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true, true)
	b.AddVertex(5)
	b.AddWeightedEdge(1, 2, 1.0)
	b.AddWeightedEdge(1, 3, 4.0)
	b.AddWeightedEdge(2, 3, 1.5)
	b.AddWeightedEdge(3, 4, 1.0)
	b.AddWeightedEdge(4, 1, 1.0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// triangleTail is an undirected graph: triangle {1,2,3} plus tail 3-4.
func triangleTail(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(false, true)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 1)
	b.AddWeightedEdge(1, 3, 1)
	b.AddWeightedEdge(3, 4, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func idx(t *testing.T, g *graph.Graph, id int64) int32 {
	t.Helper()
	v, ok := g.Index(id)
	if !ok {
		t.Fatalf("vertex %d missing", id)
	}
	return v
}

func TestRefBFS(t *testing.T) {
	g := diamond(t)
	depth := algorithms.RefBFS(g, idx(t, g, 1))
	want := map[int64]int64{1: 0, 2: 1, 3: 1, 4: 2, 5: algorithms.Unreachable}
	for id, w := range want {
		if got := depth[idx(t, g, id)]; got != w {
			t.Errorf("depth[%d] = %d, want %d", id, got, w)
		}
	}
}

func TestRefBFSUndirected(t *testing.T) {
	g := triangleTail(t)
	depth := algorithms.RefBFS(g, idx(t, g, 4))
	want := map[int64]int64{4: 0, 3: 1, 1: 2, 2: 2}
	for id, w := range want {
		if got := depth[idx(t, g, id)]; got != w {
			t.Errorf("depth[%d] = %d, want %d", id, got, w)
		}
	}
}

func TestRefSSSP(t *testing.T) {
	g := diamond(t)
	dist := algorithms.RefSSSP(g, idx(t, g, 1))
	want := map[int64]float64{1: 0, 2: 1.0, 3: 2.5, 4: 3.5}
	for id, w := range want {
		if got := dist[idx(t, g, id)]; math.Abs(got-w) > 1e-12 {
			t.Errorf("dist[%d] = %v, want %v", id, got, w)
		}
	}
	if !math.IsInf(dist[idx(t, g, 5)], 1) {
		t.Error("isolated vertex must be at +Inf")
	}
}

func TestRefWCC(t *testing.T) {
	g := diamond(t)
	labels := algorithms.RefWCC(g)
	for _, id := range []int64{1, 2, 3, 4} {
		if got := labels[idx(t, g, id)]; got != 1 {
			t.Errorf("wcc[%d] = %d, want 1 (smallest id in component)", id, got)
		}
	}
	if got := labels[idx(t, g, 5)]; got != 5 {
		t.Errorf("wcc[5] = %d, want 5", got)
	}
}

func TestRefLCCUndirected(t *testing.T) {
	g := triangleTail(t)
	lcc := algorithms.RefLCC(g)
	// Vertices 1 and 2 have neighbors {2,3}/{1,3}, fully connected: 1.0.
	for _, id := range []int64{1, 2} {
		if got := lcc[idx(t, g, id)]; math.Abs(got-1.0) > 1e-12 {
			t.Errorf("lcc[%d] = %v, want 1.0", id, got)
		}
	}
	// Vertex 3 has neighbors {1,2,4}: one edge (1,2) of three pairs = 1/3.
	if got := lcc[idx(t, g, 3)]; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("lcc[3] = %v, want 1/3", got)
	}
	// Degree-1 vertex 4 gets 0.
	if got := lcc[idx(t, g, 4)]; got != 0 {
		t.Errorf("lcc[4] = %v, want 0", got)
	}
}

func TestRefLCCDirected(t *testing.T) {
	// 1->2, 2->3, 1->3: N(1)={2,3}; ordered pairs: (2,3),(3,2); arcs
	// present: 2->3 only, so lcc(1) = 1/2.
	b := graph.NewBuilder(true, false)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(1, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lcc := algorithms.RefLCC(g)
	if got := lcc[idx(t, g, 1)]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("lcc[1] = %v, want 0.5", got)
	}
}

func TestRefPageRankUniformOnRegularGraph(t *testing.T) {
	// A directed cycle is 1-regular: PR must stay uniform.
	b := graph.NewBuilder(true, false)
	const n = 5
	for i := int64(0); i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rank := algorithms.RefPageRank(g, 20, 0.85)
	for v, r := range rank {
		if math.Abs(r-1.0/n) > 1e-12 {
			t.Errorf("rank[%d] = %v, want %v", v, r, 1.0/n)
		}
	}
}

func TestRefPageRankMassConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := graph.NewBuilder(true, false)
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
		for i := 0; i < n; i++ {
			b.AddVertex(int64(i))
		}
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int64(rng.Intn(n)), int64(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		rank := algorithms.RefPageRank(g, 15, 0.85)
		var sum float64
		for _, r := range rank {
			if r < 0 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1.0) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRefCDLPTwoCliques(t *testing.T) {
	// Two 4-cliques joined by one bridge converge to two communities.
	b := graph.NewBuilder(false, false)
	clique := func(base int64) {
		for i := int64(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	clique(0)
	clique(10)
	b.AddEdge(3, 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels := algorithms.RefCDLP(g, 10)
	for _, id := range []int64{0, 1, 2, 3} {
		if got := labels[idx(t, g, id)]; got != 0 {
			t.Errorf("label[%d] = %d, want 0", id, got)
		}
	}
	for _, id := range []int64{11, 12, 13} {
		if got := labels[idx(t, g, id)]; got != 10 {
			t.Errorf("label[%d] = %d, want 10", id, got)
		}
	}
}

func TestRefCDLPIsolatedKeepsOwnLabel(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddVertex(7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels := algorithms.RefCDLP(g, 3)
	if labels[0] != 7 {
		t.Fatalf("label = %d, want 7", labels[0])
	}
}

// randomGraph builds a deterministic random weighted digraph for property
// tests.
func randomGraph(t interface{ Fatal(...any) }, seed int64, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(60)
	b := graph.NewBuilder(directed, true)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for i := 0; i < n; i++ {
		b.AddVertex(int64(i))
	}
	for i := 0; i < 4*n; i++ {
		b.AddWeightedEdge(int64(rng.Intn(n)), int64(rng.Intn(n)), rng.Float64()+0.01)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBFSLevelInvariant(t *testing.T) {
	// Property: for every edge u->v, depth[v] <= depth[u] + 1.
	check := func(seed int64) bool {
		g := randomGraph(t, seed, true)
		depth := algorithms.RefBFS(g, 0)
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			if depth[u] == algorithms.Unreachable {
				continue
			}
			for _, v := range g.OutNeighbors(u) {
				if depth[v] > depth[u]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPRelaxationInvariant(t *testing.T) {
	// Property: for every edge u->v, dist[v] <= dist[u] + w(u,v).
	check := func(seed int64) bool {
		g := randomGraph(t, seed, true)
		dist := algorithms.RefSSSP(g, 0)
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			ws := g.OutWeights(u)
			for i, v := range g.OutNeighbors(u) {
				if dist[v] > dist[u]+ws[i]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWCCEndpointsShareLabel(t *testing.T) {
	// Property: both endpoints of every edge carry the same label, and
	// the label is the smallest id in its class.
	check := func(seed int64) bool {
		g := randomGraph(t, seed, false)
		labels := algorithms.RefWCC(g)
		minOf := make(map[int64]int64)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			for _, u := range g.OutNeighbors(v) {
				if labels[u] != labels[v] {
					return false
				}
			}
			id := g.VertexID(v)
			if cur, ok := minOf[labels[v]]; !ok || id < cur {
				minOf[labels[v]] = id
			}
		}
		for label, smallest := range minOf {
			if label != smallest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLCCValuesInUnitInterval(t *testing.T) {
	check := func(seed int64, directed bool) bool {
		g := randomGraph(t, seed, directed)
		for _, v := range algorithms.RefLCC(g) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCDLPLabelsAreVertexIDs(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(t, seed, false)
		ids := make(map[int64]bool, g.NumVertices())
		for _, id := range g.IDs() {
			ids[id] = true
		}
		for _, l := range algorithms.RefCDLP(g, 5) {
			if !ids[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReference(t *testing.T) {
	g := diamond(t)
	for _, a := range algorithms.All {
		out, err := algorithms.RunReference(g, a, algorithms.Params{Source: 1, Iterations: 5})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if out.Len() != g.NumVertices() {
			t.Fatalf("%s: output has %d values, want %d", a, out.Len(), g.NumVertices())
		}
	}
}

func TestRunReferenceErrors(t *testing.T) {
	g := diamond(t)
	if _, err := algorithms.RunReference(g, "nope", algorithms.Params{}); !errors.Is(err, algorithms.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := algorithms.RunReference(g, algorithms.BFS, algorithms.Params{Source: 999}); !errors.Is(err, algorithms.ErrSourceNotFound) {
		t.Fatalf("err = %v, want ErrSourceNotFound", err)
	}
	unweighted, err := graph.FromEdges("u", true, false, []graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algorithms.RunReference(unweighted, algorithms.SSSP, algorithms.Params{Source: 1}); !errors.Is(err, algorithms.ErrNeedsWeights) {
		t.Fatalf("err = %v, want ErrNeedsWeights", err)
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := algorithms.Params{}.WithDefaults(algorithms.PR)
	if p.Iterations != algorithms.DefaultPRIterations || p.Damping != algorithms.DefaultDamping {
		t.Fatalf("PR defaults not applied: %+v", p)
	}
	p = algorithms.Params{}.WithDefaults(algorithms.CDLP)
	if p.Iterations != algorithms.DefaultCDLPIterations {
		t.Fatalf("CDLP defaults not applied: %+v", p)
	}
	p = algorithms.Params{Iterations: 3, Damping: 0.5}.WithDefaults(algorithms.PR)
	if p.Iterations != 3 || p.Damping != 0.5 {
		t.Fatalf("explicit params overridden: %+v", p)
	}
}
