package algorithms

import (
	"container/heap"
	"math"

	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/par"
)

// RefBFS computes, for every vertex, the minimum number of hops required to
// reach it from source (an internal index). Unreachable vertices are
// assigned Unreachable. Directed graphs follow out-edges.
func RefBFS(g *graph.Graph, source int32) []int64 {
	n := g.NumVertices()
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = Unreachable
	}
	depth[source] = 0
	frontier := []int32{source}
	for level := int64(1); len(frontier) > 0; level++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range g.OutNeighbors(v) {
				if depth[u] == Unreachable {
					depth[u] = level
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return depth
}

// RefPageRank runs the fixed-iteration synchronous PageRank of the
// Graphalytics specification: ranks start at 1/n; each iteration,
//
//	PR(v) = (1-d)/n + d * (sum_{u in in(v)} PR(u)/outdeg(u) + D/n)
//
// where D is the total rank mass of dangling vertices (outdeg = 0), which
// is redistributed uniformly. Rank mass is conserved across iterations.
//
// The dangling mass is summed over fixed par.SumBlock-sized blocks — the
// fixed reduction tree of the determinism contract (see internal/par) —
// so ParPageRank reproduces this kernel bit for bit at any worker count.
func RefPageRank(g *graph.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iterations; it++ {
		var dangling float64
		//graphalint:orderfree sequential mirror of par.SumBlocked: fixed SumBlock boundaries, partials added in block order
		for blo := 0; blo < n; blo += par.SumBlock {
			bhi := min(blo+par.SumBlock, n)
			var d float64
			for v := blo; v < bhi; v++ {
				if g.OutDegree(int32(v)) == 0 {
					d += rank[v]
				}
			}
			dangling += d
		}
		base := (1-damping)*inv + damping*dangling*inv
		//graphalint:orderfree per-vertex fold follows CSR in-neighbor order, fixed by the snapshot
		for v := int32(0); v < int32(n); v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(v) {
				sum += rank[u] / float64(g.OutDegree(u))
			}
			next[v] = base + damping*sum
		}
		rank, next = next, rank
	}
	return rank
}

// RefWCC labels every vertex with the smallest external vertex identifier
// in its weakly connected component, via union-find with path halving.
func RefWCC(g *graph.Graph) []int64 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.OutNeighbors(v) {
			rv, ru := find(v), find(u)
			if rv != ru {
				// Union by smaller external ID keeps roots minimal, and
				// since ids are sorted the smaller internal index has the
				// smaller external identifier.
				if rv < ru {
					parent[ru] = rv
				} else {
					parent[rv] = ru
				}
			}
		}
	}
	labels := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		labels[v] = g.VertexID(find(v))
	}
	return labels
}

// RefCDLP runs the deterministic, synchronous variant of community
// detection by label propagation (Raghavan et al., modified per the
// Graphalytics specification to be parallel and deterministic). Labels are
// initialized to external vertex identifiers; each iteration every vertex
// adopts the most frequent label among its neighbors, breaking ties toward
// the smallest label. In directed graphs a neighbor reached by both an
// in-edge and an out-edge contributes its label twice.
func RefCDLP(g *graph.Graph, iterations int) []int64 {
	n := g.NumVertices()
	labels := make([]int64, n)
	next := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		labels[v] = g.VertexID(v)
	}
	hist := mplane.NewHistogram(16)
	for it := 0; it < iterations; it++ {
		CDLPRangeHist(g, labels, next, 0, n, hist)
		labels, next = next, labels
	}
	return labels
}

// RefLCC computes the local clustering coefficient of every vertex: the
// ratio between the number of edges that exist among the vertex's
// neighbors and the maximum number of such edges. The neighborhood is the
// union of in- and out-neighbors (excluding the vertex itself); in directed
// graphs each direction between two neighbors counts separately, giving
// the ordered-pair formula t / (d*(d-1)) which reduces to the classic
// 2*tri/(d*(d-1)) for undirected graphs.
func RefLCC(g *graph.Graph) []float64 {
	n := g.NumVertices()
	lcc := make([]float64, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	var hood []int32
	for v := int32(0); v < int32(n); v++ {
		hood = Neighborhood(g.OutNeighbors(v), g.InNeighbors(v), v, g.Directed(), hood[:0])
		d := len(hood)
		if d < 2 {
			continue
		}
		for _, u := range hood {
			mark[u] = v
		}
		arcs := 0
		for _, u := range hood {
			for _, w := range g.OutNeighbors(u) {
				if w != v && mark[w] == v {
					arcs++
				}
			}
		}
		// In undirected graphs each edge among neighbors appears in both
		// adjacency lists, matching the ordered-pair denominator.
		lcc[v] = float64(arcs) / (float64(d) * float64(d-1))
	}
	return lcc
}

// RefSSSP computes the length of the shortest path from source (an
// internal index) to every vertex over float64 edge weights, using
// Dijkstra's algorithm. Unreachable vertices get +Inf. Directed graphs
// follow out-edges.
func RefSSSP(g *graph.Graph, source int32) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	pq := &distHeap{{v: source, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue // stale entry
		}
		ws := g.OutWeights(item.v)
		for i, u := range g.OutNeighbors(item.v) {
			nd := item.d + ws[i]
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(pq, distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
