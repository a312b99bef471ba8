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

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
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

type uploaded struct {
	platform.BaseUpload
	// part is the vertex-cut: machine m's arcs are the graph part.Local[m],
	// over all the vertices, so the kernels' gathers and frontiers read
	// neighbour slices.
	part *cluster.EdgePartition
	// replicaCount[v] = number of machines holding v.
	replicaCount []int32
	// mirrorCount[m] = number of vertices mirrored (non-master) on m,
	// bcastCount[m] = total mirrors of vertices mastered on m; both are
	// the per-round traffic volumes of dense gather/scatter phases.
	mirrorCount []int64
	bcastCount  []int64
	// masterVerts[m] lists the vertices mastered on machine m.
	masterVerts [][]int32
	// labelOff is the static CSR layout of the CDLP label gather and the
	// LCC neighbourhood gather: vertex v's entries land in
	// labelBuf[labelOff[v]:labelOff[v+1]], one per in-arc, plus one per
	// out-arc in directed graphs, on whichever machine the arc sits.
	// Every iteration gathers every arc, so the per-vertex capacity is a
	// property of the graph, computed once here; the flat buffer itself
	// is engine-lifetime scratch.
	labelOff []int32
}

// load builds the vertex-cut, one graph per machine (graph.Split, no
// sort), and the gather layout.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	part := cluster.PartitionEdges(g, cl.Machines())
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	n := g.NumVertices()
	u := &uploaded{
		part:         part,
		replicaCount: make([]int32, n),
		mirrorCount:  make([]int64, cl.Machines()),
		bcastCount:   make([]int64, cl.Machines()),
		masterVerts:  make([][]int32, cl.Machines()),
		labelOff:     make([]int32, n+1),
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
	for v := int32(0); v < int32(n); v++ {
		d := g.InDegree(v)
		if g.Directed() {
			d += g.OutDegree(v)
		}
		u.labelOff[v+1] = u.labelOff[v] + int32(d)
	}
	// The bytes model PowerGraph's layout, not this one: an arc array,
	// weights and a destination-order index per local arc, and the mirror
	// tables.
	perArc := int64(12)
	if g.Weighted() {
		perArc += 8
	}
	bytes := make([]int64, cl.Machines())
	for m, lg := range part.Local {
		arcs := lg.NumEdges()
		if !g.Directed() {
			arcs *= 2
		}
		bytes[m] = arcs*perArc + u.mirrorCount[m]*16
	}
	return u, bytes, nil
}
