package algorithms_test

import (
	"fmt"
	"math"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
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

// FuzzSSSPMatchesOracle holds both SSSP variants to Dijkstra's bits on
// the graphs where their arithmetic is most exposed: zero and tied
// weights, distances exactly on bucket and sub-bucket edges, and weights
// large enough to overflow Δ or reach the bucket clamp. ParSSSP
// (delta-stepping) at one and three workers, and BellmanFordSSSP at one
// and three workers on one, three and 32 machines — more machines than
// the graph has vertices, so some own empty ranges — must equal RefSSSP
// bit for bit from vertex 0. The seed corpus in
// testdata/fuzz/FuzzSSSPMatchesOracle covers every extra edge mode,
// directed and undirected, a zero-weight path and a graph whose edge is
// unreachable from the source.
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
		check := func(at string, got []float64) {
			t.Helper()
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s: vertex %d at %v, RefSSSP has %v", at, g.VertexID(int32(v)), got[v], want[v])
				}
			}
		}
		for _, workers := range []int{1, 3} {
			check(fmt.Sprintf("ParSSSP workers=%d", workers), algorithms.ParSSSP(g, src, workers))
			for _, machines := range []int{1, 3, 32} {
				rt := &rangeRuntime{n: g.NumVertices(), machines: machines, workers: workers}
				got, err := new(algorithms.Kernels).BellmanFordSSSP(rt, g, src)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("BellmanFordSSSP workers=%d machines=%d", workers, machines), got)
			}
		}
	})
}

// rangeRuntime is an algorithms.Runtime of several machines, each owning
// a contiguous vertex range (par.ChunkRange, so some are empty when there
// are more machines than vertices): a round runs the body on each machine
// in turn, and a region runs workers chunks through par.Chunks. It is the
// range engines' deployment without the cluster's accounting.
type rangeRuntime struct {
	n, machines, workers, mach int
	bufs                       [][]int32
}

func (r *rangeRuntime) Round(body func()) error {
	for r.mach = 0; r.mach < r.machines; r.mach++ {
		body()
	}
	return nil
}

func (r *rangeRuntime) Chunks(n int, fn func(worker, lo, hi int)) { par.Chunks(n, r.workers, fn) }

func (r *rangeRuntime) Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32 {
	r.bufs = make([][]int32, r.workers)
	par.Chunks(n, r.workers, func(w, lo, hi int) { r.bufs[w] = fn(w, lo, hi, nil) })
	dst = dst[:0]
	for _, buf := range r.bufs {
		dst = append(dst, buf...)
	}
	return dst
}

func (r *rangeRuntime) Workers() int { return r.workers }

func (r *rangeRuntime) Owned() (lo, hi int) { return par.ChunkRange(r.n, r.machines, r.mach) }

func (r *rangeRuntime) Report(int, []int32) {}
