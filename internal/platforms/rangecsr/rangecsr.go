// Package rangecsr is the layout the spmv and pushpull engines share: a
// private CSR copy of the graph in both directions, its vertices split
// into contiguous edge-balanced ranges, one per machine, and the ascending
// list of dangling vertices. The round loops are the reference kernels'
// (algorithms.Kernels) on the shared cluster runtime (platform.Run), each
// machine running the part of a round in its Range; the two allgathers
// both engines price alike, CDLP's changed labels and min-label WCC's
// label slices, are run here. Everything that makes the engines different
// — names and backends, what a machine is charged for the layout, the
// PageRank, LCC and direction-optimising BFS loops, and the traffic rules
// of their frontier rounds — stays in the engine packages.
package rangecsr

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// Layout is an uploaded graph in engine-private storage.
type Layout struct {
	// G is the engine's own heap-resident copy of the graph: out-adjacency
	// is the matrix's CSR rows / the push direction, in-adjacency its CSC
	// columns / the pull direction.
	G *graph.Graph
	// Part assigns each machine one contiguous vertex range.
	Part *cluster.VertexPartition
	// Dangling lists the vertices without out-edges in ascending order:
	// PageRank folds their mass with par.SumBlockedAt, the oracle's tree.
	Dangling []int32
}

// New copies g into engine storage and partitions it over the machines.
// The copy is the upload work the harness times, and it keeps the kernels
// off a mapped dataset's pages.
func New(g *graph.Graph, machines int) *Layout {
	c := g.Clone()
	l := &Layout{G: c, Part: cluster.PartitionVerticesRange(c, machines)}
	for v := int32(0); v < int32(c.NumVertices()); v++ {
		if c.OutDegree(v) == 0 {
			l.Dangling = append(l.Dangling, v)
		}
	}
	return l
}

// Range returns the vertex range [lo, hi) machine mach owns; it is empty
// when there are more machines than vertices.
func (l *Layout) Range(mach int) (lo, hi int) {
	verts := l.Part.Verts[mach]
	if len(verts) == 0 {
		return 0, 0
	}
	return int(verts[0]), int(verts[0]) + len(verts)
}

// CDLP is the reference kernel's frontier label propagation on the
// upload's machines; a machine broadcasts one sparse (id, label) update,
// 12 bytes, per changed vertex rather than its dense label slice.
func CDLP(ctx context.Context, b *platform.BaseUpload, l *Layout, iterations int) ([]int64, error) {
	return platform.Run(ctx, b, l.Range, broadcast(b.Cl, 12), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
		return k.CDLP(rt, l.G, iterations)
	})
}

// WCC is min-label propagation (algorithms.Kernels.MinLabelWCC) on the
// upload's machines: a dense min-SpMV over columns plus, on directed
// graphs, rows, each machine allgathering its 4-byte label slice every
// round.
func WCC(ctx context.Context, b *platform.BaseUpload, l *Layout) ([]int64, error) {
	return platform.Run(ctx, b, l.Range, broadcast(b.Cl, 4), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
		return k.MinLabelWCC(rt, l.G)
	})
}

// broadcast prices a machine's n reported updates as each bytes apiece to
// every other machine.
func broadcast(cl *cluster.Cluster, each int64) func(mach, n int, _ []int32) {
	return func(mach, n int, _ []int32) { cl.Broadcast(mach, int64(n)*each) }
}
