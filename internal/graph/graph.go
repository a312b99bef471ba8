// Package graph implements the Graphalytics data model: a graph is a set of
// vertices, each identified by a unique 64-bit integer, and a set of unique
// edges connecting two distinct vertices. Graphs are directed or undirected
// and optionally carry double-precision floating-point edge weights.
//
// Graphs are immutable once built. Internally the package stores a graph in
// compressed sparse row (CSR) form, with both out- and in-adjacency for
// directed graphs so that algorithms can traverse edges in either direction.
// Vertices are addressed by dense internal indices in [0, NumVertices());
// external identifiers are mapped via a sorted identifier table.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Graph is an immutable graph in CSR form. Use a Builder to construct one.
type Graph struct {
	name     string
	directed bool
	weighted bool

	// ids maps internal vertex index -> external identifier and is sorted
	// in ascending order, enabling binary-search lookup in Index.
	ids []int64

	outOff []int64
	outAdj []int32
	outW   []float64

	// For undirected graphs the in-slices alias the out-slices.
	inOff []int64
	inAdj []int32
	inW   []float64

	numEdges int64 // logical edges: an undirected edge counts once

	// mapped is non-nil when the arrays above alias an mmap'd snapshot
	// (MapSnapshotFile) instead of heap allocations; mapClosed latches the
	// release of the graph's own mapping reference. See mapped.go.
	mapped    *mapping
	mapClosed atomic.Bool
}

// Name returns the graph's name (may be empty).
func (g *Graph) Name() string { return g.name }

// Directed reports whether edges are ordered pairs.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether edges carry float64 weights.
func (g *Graph) Weighted() bool { return g.weighted }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns |E|, counting each undirected edge once.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// VertexID returns the external identifier of internal vertex v.
func (g *Graph) VertexID(v int32) int64 { return g.ids[v] }

// IDs returns the full internal-index -> external-identifier table.
// The returned slice must not be modified.
func (g *Graph) IDs() []int64 { return g.ids }

// Index returns the internal index for external identifier id.
func (g *Graph) Index(id int64) (int32, bool) {
	i := sort.Search(len(g.ids), func(i int) bool { return g.ids[i] >= id })
	if i < len(g.ids) && g.ids[i] == id {
		return int32(i), true
	}
	return 0, false
}

// OutDegree returns the number of outgoing edges of v (degree for
// undirected graphs).
func (g *Graph) OutDegree(v int32) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the number of incoming edges of v (degree for
// undirected graphs).
func (g *Graph) InDegree(v int32) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutNeighbors returns the internal indices of v's out-neighbors in
// ascending order. The returned slice aliases internal storage and must not
// be modified.
func (g *Graph) OutNeighbors(v int32) []int32 { return g.outAdj[g.outOff[v]:g.outOff[v+1]] }

// InNeighbors returns the internal indices of v's in-neighbors in ascending
// order. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) InNeighbors(v int32) []int32 { return g.inAdj[g.inOff[v]:g.inOff[v+1]] }

// OutWeights returns the weights parallel to OutNeighbors(v). It returns nil
// for unweighted graphs.
func (g *Graph) OutWeights(v int32) []float64 {
	if !g.weighted {
		return nil
	}
	return g.outW[g.outOff[v]:g.outOff[v+1]]
}

// InWeights returns the weights parallel to InNeighbors(v). It returns nil
// for unweighted graphs.
func (g *Graph) InWeights(v int32) []float64 {
	if !g.weighted {
		return nil
	}
	return g.inW[g.inOff[v]:g.inOff[v+1]]
}

// HasEdge reports whether the edge (src, dst), given as internal indices,
// exists. For undirected graphs the order of endpoints is irrelevant.
func (g *Graph) HasEdge(src, dst int32) bool {
	adj := g.OutNeighbors(src)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= dst })
	return i < len(adj) && adj[i] == dst
}

// MemoryFootprint returns the approximate number of bytes held by the
// graph's internal arrays. The cluster simulator uses this to account for
// per-machine memory budgets.
func (g *Graph) MemoryFootprint() int64 {
	bytes := int64(len(g.ids)) * 8
	bytes += int64(len(g.outOff))*8 + int64(len(g.outAdj))*4 + int64(len(g.outW))*8
	if g.directed {
		bytes += int64(len(g.inOff))*8 + int64(len(g.inAdj))*4 + int64(len(g.inW))*8
	}
	return bytes
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	w := ""
	if g.weighted {
		w = ", weighted"
	}
	return fmt.Sprintf("graph %q (%s%s, |V|=%d, |E|=%d)", g.name, kind, w, g.NumVertices(), g.numEdges)
}

// Clone returns a private heap-resident copy of the graph: fresh arrays
// for the identifier table and both adjacency directions, never backed by
// a mapping even when g is, with an undirected clone's in-slices aliasing
// its out-slices as in every Graph. Engines that keep their own storage
// take one at upload; the copy is their modelled conversion work, and it
// keeps their kernels off the mapped pages of an out-of-core dataset.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		name: g.name, directed: g.directed, weighted: g.weighted, numEdges: g.numEdges,
		ids:    append([]int64(nil), g.ids...),
		outOff: append([]int64(nil), g.outOff...),
		outAdj: append([]int32(nil), g.outAdj...),
		outW:   append([]float64(nil), g.outW...),
	}
	if g.directed {
		c.inOff = append([]int64(nil), g.inOff...)
		c.inAdj = append([]int32(nil), g.inAdj...)
		c.inW = append([]float64(nil), g.inW...)
	} else {
		c.inOff, c.inAdj, c.inW = c.outOff, c.outAdj, c.outW
	}
	return c
}

// Edge is a single edge in external-identifier space, used by builders,
// generators and the text formats.
type Edge struct {
	Src, Dst int64
	Weight   float64
}

// Edges returns all logical edges in external-identifier space, sorted by
// (Src, Dst). For undirected graphs each edge appears once with
// Src <= Dst. The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for v := int32(0); v < int32(len(g.ids)); v++ {
		adj := g.OutNeighbors(v)
		ws := g.OutWeights(v)
		for i, u := range adj {
			if !g.directed && g.ids[u] < g.ids[v] {
				continue // emit undirected edges once, from the smaller endpoint
			}
			e := Edge{Src: g.ids[v], Dst: g.ids[u]}
			if ws != nil {
				e.Weight = ws[i]
			}
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Edge) int {
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return out
}
