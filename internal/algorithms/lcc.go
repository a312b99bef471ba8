package algorithms

import (
	"slices"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// LCCOrientation is the degree-ordered ("forward") view of a graph on
// which the LCC kernel enumerates triangles. Vertices are ranked by
// (union degree, index) and every edge of the union neighborhood graph is
// kept once, at its lower-ranked endpoint, pointing at the higher-ranked
// one. A vertex's oriented list is therefore short exactly where its
// neighborhood is large: hubs rank last and point at almost nothing, so
// intersecting oriented lists costs O(m^1.5) probes on any graph instead
// of the sum of squared degrees a per-vertex neighborhood scan pays.
//
// Each oriented entry u→w carries the edge's multiplicity [u→w]+[w→u] in
// the original graph: 1 or 2 on directed graphs, always 2 on undirected
// ones (whose CSR stores both directions). A triangle {u,v,w} contributes
// to a corner's LCC numerator exactly the arcs on the opposite side — the
// ordered-pair count of RefLCC — so the multiplicities turn one triangle
// enumeration into RefLCC's integer numerators, directed or not.
//
// The orientation is a plain heap structure, independent of whether g is
// resident or mapped; it is immutable after construction and safe for
// concurrent CountRange calls.
type LCCOrientation struct {
	deg  []int32 // union degree |in(v) ∪ out(v)|
	off  []int64 // oriented CSR offsets, len n+1
	adj  []int32 // higher-ranked union neighbors, ascending by index
	mult []uint8 // multiplicity of each adj entry
	work []int64 // prefix sums of per-vertex CountRange work, len n+1
}

// NewLCCOrientation builds the orientation of g on the given number of
// workers (<= 0 sizes automatically). The result does not depend on the
// worker count: every vertex's list is computed from g alone and written
// to a position fixed by the sequential prefix sum.
func NewLCCOrientation(g *graph.Graph, workers int) *LCCOrientation {
	n := g.NumVertices()
	p := par.Resolve(workers, n+int(g.NumEdges()))
	o := &LCCOrientation{
		deg:  make([]int32, n),
		off:  make([]int64, n+1),
		work: make([]int64, n+1),
	}
	par.Chunks(n, p, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			o.deg[v] = int32(orientVertex(g, nil, int32(v), nil, nil))
		}
	})
	rank := degreeRanks(o.deg)
	par.Chunks(n, p, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			o.off[v+1] = int64(orientVertex(g, rank, int32(v), nil, nil))
		}
	})
	for v := 0; v < n; v++ {
		o.off[v+1] += o.off[v]
	}
	o.adj = make([]int32, o.off[n])
	o.mult = make([]uint8, o.off[n])
	par.Chunks(n, p, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			s, e := o.off[v], o.off[v+1]
			orientVertex(g, rank, int32(v), o.adj[s:e], o.mult[s:e])
		}
	})
	// CountRange's cost for u: one visit, a mark and an unmark per
	// oriented neighbor, and one probe per entry of each neighbor's list.
	par.Chunks(n, p, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			s, e := o.off[u], o.off[u+1]
			w := 1 + e - s
			for _, v := range o.adj[s:e] {
				w += o.off[v+1] - o.off[v]
			}
			o.work[u+1] = w
		}
	})
	for v := 0; v < n; v++ {
		o.work[v+1] += o.work[v]
	}
	return o
}

// orientVertex walks v's union neighborhood — out(v) merged with in(v) on
// directed graphs, each neighbor once — and keeps the neighbors ranked
// above v, or all of them when rank is nil. It returns how many it kept
// and, when adj is non-nil, stores them (ascending by index) with their
// multiplicities. Adjacency lists are sorted, duplicate-free and without
// self-loops (the builder's invariant), so the merge sees each neighbor
// at most once per direction.
func orientVertex(g *graph.Graph, rank []int32, v int32, adj []int32, mult []uint8) int {
	k := 0
	keep := func(w int32, m uint8) {
		if rank != nil && rank[w] < rank[v] {
			return
		}
		if adj != nil {
			adj[k], mult[k] = w, m
		}
		k++
	}
	out := g.OutNeighbors(v)
	if !g.Directed() {
		for _, w := range out {
			keep(w, 2)
		}
		return k
	}
	in := g.InNeighbors(v)
	i, j := 0, 0
	for i < len(out) && j < len(in) {
		switch {
		case out[i] < in[j]:
			keep(out[i], 1)
			i++
		case in[j] < out[i]:
			keep(in[j], 1)
			j++
		default:
			keep(out[i], 2)
			i++
			j++
		}
	}
	for ; i < len(out); i++ {
		keep(out[i], 1)
	}
	for ; j < len(in); j++ {
		keep(in[j], 1)
	}
	return k
}

// degreeRanks returns each vertex's position in the (degree, index)
// order, by a counting sort over the degree values.
func degreeRanks(deg []int32) []int32 {
	var maxDeg int32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	next := make([]int32, int(maxDeg)+2)
	for _, d := range deg {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	rank := make([]int32, len(deg))
	for v, d := range deg {
		rank[v] = next[d]
		next[d]++
	}
	return rank
}

// Bytes is the orientation's heap footprint, for engines that register
// it against a machine's memory budget.
func (o *LCCOrientation) Bytes() int64 {
	return int64(len(o.deg))*4 + int64(len(o.off)+len(o.work))*8 + int64(len(o.adj))*5
}

// Bounds cuts the vertex range into p contiguous chunks of near-equal
// CountRange work and returns the p+1 cut points. Probe work follows the
// oriented lists, not the vertex count: where a graph's dense part sits
// in one index range, equal-count chunks would leave one worker — and the
// simulated thread pool's modeled slowest thread — nearly all of it.
func (o *LCCOrientation) Bounds(p int) []int {
	n := len(o.deg)
	bounds := make([]int, p+1)
	for w := 1; w < p; w++ {
		target := o.work[n] / int64(p) * int64(w)
		bounds[w], _ = slices.BinarySearch(o.work, target)
	}
	bounds[p] = n
	return bounds
}

// CountRange enumerates the triangles whose lowest-ranked corner u lies
// in [lo, hi) and adds each one's contribution to its three corners'
// numerators in count: u's oriented list is marked with its
// multiplicities, then the oriented list of every oriented neighbor v is
// probed against the marks. A hit on w closes u→v→w with u→w — ranks
// rise along every oriented edge, so each triangle is found exactly once,
// from its lowest corner through its middle one — and credits every
// corner with the multiplicity of the opposite edge. It returns the
// number of probes made.
//
// count is added to, never read for control flow, and holds integers, so
// chunks that run concurrently each own one, summed afterwards in any
// order. mark must be all-zero, chunk-private and n long; it is all-zero
// again on return.
//
//graphalint:noalloc per-chunk count step: writes only into the caller-owned counter and mark arrays
func (o *LCCOrientation) CountRange(count []int64, mark []uint8, lo, hi int) (probes int64) {
	for u := lo; u < hi; u++ {
		s, e := o.off[u], o.off[u+1]
		if e-s < 2 {
			continue // a lowest corner needs two higher-ranked neighbors
		}
		au, mu := o.adj[s:e], o.mult[s:e]
		for i, v := range au {
			mark[v] = mu[i]
		}
		var cu int64
		for i, v := range au {
			muv := int64(mu[i])
			vs, ve := o.off[v], o.off[v+1]
			av, mv := o.adj[vs:ve], o.mult[vs:ve]
			probes += ve - vs
			var cv int64
			for j, w := range av {
				// Hits are frequent and unpredictable (a fifth of the
				// probes on a Graph500 graph), so a miss adds a masked
				// zero instead of branching around the updates.
				muw := int64(mark[w])    // 0 on a miss, else 1 or 2
				hit := -((muw + 1) >> 1) // all zeros or all ones
				cu += int64(mv[j]) & hit
				cv += muw
				count[w] += muv & hit
			}
			count[v] += cv
		}
		count[u] += cu
		for _, v := range au {
			mark[v] = 0
		}
	}
	return probes
}

// ratioRange turns the numerators into coefficients for v in [lo, hi):
// out[v] = count[v] / (d·(d−1)) over the union degree d, zero below two
// neighbors — the same integer numerator and the same float expression
// as RefLCC, hence the same bits.
//
//graphalint:noalloc per-chunk step: writes only into the caller-owned output
func (o *LCCOrientation) ratioRange(count []int64, out []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		d := int(o.deg[v])
		if d < 2 {
			out[v] = 0
			continue
		}
		out[v] = float64(count[v]) / (float64(d) * float64(d-1))
	}
}
