// Package gas implements a Gather-Apply-Scatter engine in the style of
// PowerGraph, standing in for it in the paper's evaluation. The graph is
// partitioned by a vertex-cut: every directed arc is assigned to one
// machine, every vertex has a master machine plus mirror replicas on each
// machine that holds one of its arcs. A synchronous GAS iteration runs
//
//	gather:  every machine folds its local arcs into per-vertex partial
//	         accumulators; mirrors ship their partials to the master;
//	apply:   masters combine partials and update the vertex value;
//	scatter: masters broadcast the new value to mirrors and activate
//	         neighboring vertices when the value changed.
//
// The vertex-cut keeps work balanced on skewed power-law degree
// distributions, which is PowerGraph's signature design point.
package gas

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// New returns the GAS engine. All six algorithms are implemented
// (PowerGraph is one of only two platforms that complete LCC in the paper).
func New() platform.Platform {
	return platform.New(platform.Engine[*uploaded]{
		Name:        "gas",
		Description: "gather-apply-scatter over a vertex-cut (PowerGraph-style)",
		Distributed: true,
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(bfsGAS(ctx, u, j.SourceIndex))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(prGAS(ctx, u, j.Iterations, j.Damping))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(wccGAS(ctx, u))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(cdlpGAS(ctx, u, j.Iterations))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(lccGAS(ctx, u))
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(ssspGAS(ctx, u, j.SourceIndex))
			},
		},
		// value + accumulator + flags
		State: func(u *uploaded, _ *platform.Job) int64 {
			return int64(u.G.NumVertices()) * 24 / int64(u.Cl.Machines())
		},
		Setup: func(u *uploaded, j *platform.Job) error {
			j.Tracker.Annotate("replication_factor", fmt.Sprintf("%.2f", u.part.ReplicationFactor()))
			return nil
		},
	})
}

// machineArcs holds one machine's share of the vertex-cut: arcs sorted by
// (src, dst) with parallel weights, plus a compacted by-source index so
// frontier algorithms can expand only active sources.
type machineArcs struct {
	arcs []cluster.Arc
	w    []float64 // nil when unweighted
	srcs []int32   // distinct sources, ascending
	off  []int32   // arc range of srcs[i] is arcs[off[i]:off[i+1]]

	// dstOrder is a permutation of arc indices sorted by (dst, src); it
	// drives the gather phase, in which each destination group is folded
	// by exactly one thread, keeping accumulation deterministic without a
	// second copy of the arc array. srcByDst materializes the arc sources
	// in that order so label gathers read one flat int32 array instead of
	// chasing the permutation into the arc structs.
	dstOrder []int32
	srcByDst []int32
	dsts     []int32
	doff     []int32
}

// arcByDst returns the k-th arc in destination order.
func (ma *machineArcs) arcByDst(k int32) cluster.Arc { return ma.arcs[ma.dstOrder[k]] }

// arcsOf returns the local arcs and weights out of source v.
func (ma *machineArcs) arcsOf(v int32) ([]cluster.Arc, []float64) {
	i := sort.Search(len(ma.srcs), func(i int) bool { return ma.srcs[i] >= v })
	if i == len(ma.srcs) || ma.srcs[i] != v {
		return nil, nil
	}
	lo, hi := ma.off[i], ma.off[i+1]
	if ma.w == nil {
		return ma.arcs[lo:hi], nil
	}
	return ma.arcs[lo:hi], ma.w[lo:hi]
}

type uploaded struct {
	platform.BaseUpload
	part *cluster.EdgePartition
	// local[m] is machine m's arc store.
	local []*machineArcs
	// replicaCount[v] = number of machines holding v.
	replicaCount []int32
	// mirrorCount[m] = number of vertices mirrored (non-master) on m,
	// bcastCount[m] = total mirrors of vertices mastered on m; both are
	// the per-round traffic volumes of dense gather/scatter phases.
	mirrorCount []int64
	bcastCount  []int64
	// masterVerts[m] lists the vertices mastered on machine m.
	masterVerts [][]int32
	// labelOff is the static CSR layout of the CDLP label gather: vertex
	// v's incoming labels land in labelBuf[labelOff[v]:labelOff[v+1]].
	// Every iteration gathers every arc, so the per-vertex capacity is a
	// property of the partition, computed once here; the flat buffer
	// itself is job-lifetime scratch.
	labelOff   []int32
	labelTotal int
	// scratch caches the gather plane (flat label buffer, write cursors,
	// label histogram) between Execute calls.
	scratch mplane.Pool
}

// load builds the vertex-cut and each machine's sorted arc store; the
// context is checked between per-machine arc-store builds (the expensive
// sorts) and before the label layout.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	part := cluster.PartitionEdges(g, cl.Machines())
	u := &uploaded{
		part:         part,
		local:        make([]*machineArcs, cl.Machines()),
		replicaCount: make([]int32, g.NumVertices()),
		mirrorCount:  make([]int64, cl.Machines()),
		bcastCount:   make([]int64, cl.Machines()),
		masterVerts:  make([][]int32, cl.Machines()),
	}
	for v, reps := range part.Replicas {
		u.replicaCount[v] = int32(len(reps))
		master := part.Master[v]
		u.masterVerts[master] = append(u.masterVerts[master], int32(v))
		for _, m := range reps {
			if m != master {
				u.mirrorCount[m]++
				u.bcastCount[master]++
			}
		}
	}
	bytes := make([]int64, cl.Machines())
	for m := range u.local {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, nil, err
		}
		u.local[m] = buildMachineArcs(g, part.Arcs[m])
		// Arc array, weights, destination-order index, mirror tables.
		perArc := int64(12)
		if g.Weighted() {
			perArc += 8
		}
		bytes[m] = int64(len(u.local[m].arcs))*perArc + int64(u.mirrorCount[m])*16
	}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	u.buildLabelLayout(g)
	return u, bytes, nil
}

// buildLabelLayout sizes the CDLP gather: vertex v receives one label per
// local in-arc on every machine, plus one per local out-arc in directed
// graphs — mirroring exactly the writes cdlpGAS performs each iteration.
func (u *uploaded) buildLabelLayout(g *graph.Graph) {
	n := g.NumVertices()
	cnt := make([]int32, n)
	for _, ma := range u.local {
		for i, dst := range ma.dsts {
			cnt[dst] += ma.doff[i+1] - ma.doff[i]
		}
		if g.Directed() {
			for i, src := range ma.srcs {
				cnt[src] += ma.off[i+1] - ma.off[i]
			}
		}
	}
	u.labelOff = make([]int32, n+1)
	var total int32
	for v := 0; v < n; v++ {
		u.labelOff[v] = total
		total += cnt[v]
	}
	u.labelOff[n] = total
	u.labelTotal = int(total)
}

// buildMachineArcs sorts a machine's arcs by source and attaches weights
// and the by-source index.
func buildMachineArcs(g *graph.Graph, arcs []cluster.Arc) *machineArcs {
	sorted := append([]cluster.Arc(nil), arcs...)
	slices.SortFunc(sorted, func(a, b cluster.Arc) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	})
	ma := &machineArcs{arcs: sorted}
	if g.Weighted() {
		ma.w = make([]float64, len(sorted))
		for i, a := range sorted {
			ma.w[i] = edgeWeight(g, a.Src, a.Dst)
		}
	}
	for i, a := range sorted {
		if i == 0 || a.Src != sorted[i-1].Src {
			ma.srcs = append(ma.srcs, a.Src)
			ma.off = append(ma.off, int32(i))
		}
	}
	ma.off = append(ma.off, int32(len(sorted)))

	ma.dstOrder = make([]int32, len(sorted))
	for i := range ma.dstOrder {
		ma.dstOrder[i] = int32(i)
	}
	slices.SortFunc(ma.dstOrder, func(i, j int32) int {
		a, b := sorted[i], sorted[j]
		if a.Dst != b.Dst {
			return int(a.Dst) - int(b.Dst)
		}
		return int(a.Src) - int(b.Src)
	})
	ma.srcByDst = make([]int32, len(sorted))
	for i, k := range ma.dstOrder {
		a := sorted[k]
		ma.srcByDst[i] = a.Src
		if i == 0 || a.Dst != sorted[ma.dstOrder[i-1]].Dst {
			ma.dsts = append(ma.dsts, a.Dst)
			ma.doff = append(ma.doff, int32(i))
		}
	}
	ma.doff = append(ma.doff, int32(len(sorted)))
	return ma
}

// edgeWeight looks up the weight of arc (src, dst) in the original graph.
func edgeWeight(g *graph.Graph, src, dst int32) float64 {
	adj := g.OutNeighbors(src)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= dst })
	if i < len(adj) && adj[i] == dst {
		return g.OutWeights(src)[i]
	}
	return 0
}
