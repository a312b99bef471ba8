// Package pregel implements an iterative vertex-centric BSP engine in the
// style of Google's Pregel, standing in for Apache Giraph in the paper's
// evaluation. Algorithms are vertex programs: in each superstep every
// active vertex consumes the messages sent to it in the previous
// superstep, updates its value, sends messages along its edges and may
// vote to halt; a vertex is reactivated by incoming messages. Supersteps
// are separated by global barriers.
//
// The engine is deliberately faithful to the model's cost profile:
// messages are materialized per destination vertex, adjacency is stored as
// one object per vertex, and cross-machine messages are serialized sizes
// accounted against the interconnect. This is why — like Giraph in the
// paper — the engine is orders of magnitude slower than the hand-tuned and
// matrix engines while still scaling out.
package pregel

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// New returns the engine with message combiners enabled.
func New() platform.Platform { return NewWithOptions(true) }

// NewWithOptions returns an engine with explicit combiner configuration;
// disabling combiners exists for the combiner ablation benchmark. All six
// algorithms are implemented as vertex programs.
func NewWithOptions(useCombiners bool) platform.Platform {
	return platform.New(platform.Engine[*uploaded]{
		Name:        "pregel",
		Description: "vertex-centric BSP with message passing (Giraph/Pregel-style)",
		Distributed: true,
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(bfsProgram(ctx, j.Tracker, u, j.SourceIndex, useCombiners))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(prProgram(ctx, j.Tracker, u, j.Iterations, j.Damping, useCombiners))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(wccProgram(ctx, j.Tracker, u, useCombiners))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(cdlpProgram(ctx, j.Tracker, u, j.Iterations))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(lccProgram(ctx, j.Tracker, u))
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(ssspProgram(ctx, j.Tracker, u, j.SourceIndex, useCombiners))
			},
		},
		// Message queues: the engine keeps two per-vertex message buffers.
		State: func(u *uploaded, _ *platform.Job) int64 {
			return int64(u.G.NumVertices()) * 2 * 24 / int64(u.Cl.Machines())
		},
		Annotate: func(u *uploaded, j *platform.Job) {
			j.Tracker.Annotate("supersteps", fmt.Sprint(u.Cl.Rounds()))
			j.Tracker.Annotate("combiners", fmt.Sprint(useCombiners))
		},
	})
}

// vertexData is the per-vertex adjacency object; the engine pays one object
// per vertex like JVM-based vertex-centric systems do.
type vertexData struct {
	out []int32   // out-neighbors (all neighbors for undirected graphs)
	w   []float64 // out-edge weights, nil when unweighted
	in  []int32   // in-neighbors, nil for undirected graphs
}

type uploaded struct {
	platform.BaseUpload
	part  *cluster.VertexPartition
	verts []vertexData
	// scratch caches the BSP runner (message plane, frontier lists, halt
	// bitmap) between Execute calls, so repeated jobs on one upload run
	// allocation-free in steady state.
	scratch mplane.Pool
}

// load explodes the graph into per-vertex adjacency objects
// hash-partitioned over the machines; the context is checked periodically
// inside the per-vertex loop, the bulk of the upload work.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	n := g.NumVertices()
	part := cluster.PartitionVerticesHash(n, cl.Machines())
	verts := make([]vertexData, n)
	perMachine := make([]int64, cl.Machines())
	const vertexOverhead = 88 // object header + three slice headers + value slot
	for v := int32(0); v < int32(n); v++ {
		if v&0xffff == 0 {
			if err := platform.CheckContext(ctx); err != nil {
				return nil, nil, err
			}
		}
		vd := vertexData{out: append([]int32(nil), g.OutNeighbors(v)...)}
		if g.Weighted() {
			vd.w = append([]float64(nil), g.OutWeights(v)...)
		}
		if g.Directed() {
			vd.in = append([]int32(nil), g.InNeighbors(v)...)
		}
		verts[v] = vd
		perMachine[part.Owner[v]] += vertexOverhead + int64(len(vd.out))*4 + int64(len(vd.in))*4 + int64(len(vd.w))*8
	}
	return &uploaded{part: part, verts: verts}, perMachine, nil
}
