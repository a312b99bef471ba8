package algorithms_test

import (
	"math"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
)

// fuzzSSSPGraph decodes bytes into a small weighted graph for
// FuzzSSSPMatchesOracle. data[0] bit 0 makes it directed and bits 1-2
// pick the weight of one extra edge from vertex 0 to the last vertex;
// data[1] sets 2 to 25 vertices; every further three bytes are an edge
// (source, target, weight). Weights are multiples of 1/16 in [0, 4], so
// zeros and repeats are common. The extra edge either balances the mean
// weight to exactly 4 — then SSSP's bucket width Δ is 4, and every weight
// is a multiple of a sub-bucket's width, so distances land exactly on
// bucket and sub-bucket edges — or it is 1e300, math.MaxFloat64 (the
// weight sum overflows and distances reach the bucket clamp) or 0.
// Self-loops and repeated edges are skipped.
func fuzzSSSPGraph(data []byte) (*graph.Graph, error) {
	if len(data) < 2 {
		return nil, nil
	}
	directed, mode := data[0]&1 == 1, data[0]>>1&3
	n := 2 + int64(data[1])%24
	type arc struct{ src, dst int64 }
	norm := func(a arc) arc {
		if !directed && a.src > a.dst {
			a.src, a.dst = a.dst, a.src
		}
		return a
	}
	extra := arc{0, n - 1}
	seen := map[arc]bool{norm(extra): true}
	var edges []graph.Edge
	sum := 0.0
	for rest := data[2:]; len(rest) >= 3 && len(edges) < 64; rest = rest[3:] {
		a := arc{int64(rest[0]) % n, int64(rest[1]) % n}
		if a.src == a.dst || seen[norm(a)] {
			continue
		}
		seen[norm(a)] = true
		w := float64(rest[2]%65) / 16
		edges = append(edges, graph.Edge{Src: a.src, Dst: a.dst, Weight: w})
		sum += w
	}
	w := [4]float64{4*float64(len(edges)+1) - sum, 1e300, math.MaxFloat64, 0}[mode]
	edges = append(edges, graph.Edge{Src: extra.src, Dst: extra.dst, Weight: w})
	b := graph.NewBuilder(directed, true)
	for v := int64(0); v < n; v++ {
		b.AddVertex(v)
	}
	for _, e := range edges {
		b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
	}
	return b.Build()
}

// FuzzSSSPMatchesOracle holds delta-stepping to Dijkstra's bits on the
// graphs where its bucket arithmetic is most exposed: zero and tied
// weights, distances exactly on bucket and sub-bucket edges, and weights
// large enough to overflow Δ or reach the bucket clamp. ParSSSP at one
// and three workers must equal RefSSSP bit for bit from vertex 0. The
// seed corpus in testdata/fuzz/FuzzSSSPMatchesOracle covers every extra
// edge mode, directed and undirected, a zero-weight path and a graph
// whose edge is unreachable from the source.
func FuzzSSSPMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := fuzzSSSPGraph(data)
		if err != nil {
			t.Fatalf("decoded graph does not build: %v", err)
		}
		if g == nil {
			return
		}
		src, _ := g.Index(0)
		want := algorithms.RefSSSP(g, src)
		for _, workers := range []int{1, 3} {
			got := algorithms.ParSSSP(g, src, workers)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("workers=%d: vertex %d at %v, RefSSSP has %v", workers, g.VertexID(int32(v)), got[v], want[v])
				}
			}
		}
	})
}
