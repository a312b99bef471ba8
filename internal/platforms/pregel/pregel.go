// Package pregel implements an iterative vertex-centric BSP engine in the
// style of Google's Pregel, standing in for Apache Giraph in the paper's
// evaluation. Algorithms are vertex programs: in each superstep every
// active vertex consumes the messages sent to it in the previous
// superstep, updates its value, sends messages along its edges and may
// vote to halt; a vertex is reactivated by incoming messages. Supersteps
// are separated by global barriers.
//
// The engine is deliberately faithful to the model's cost profile:
// messages are materialized per destination vertex, the memory model
// charges one adjacency object per vertex, and cross-machine messages are
// serialized sizes accounted against the interconnect. This is why — like
// Giraph in the paper — the engine is orders of magnitude slower than the
// hand-tuned and matrix engines while still scaling out. The adjacency
// objects are priced, not stored: vertex programs read the uploaded
// graph's rows in place.
package pregel

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// New returns the engine with message combiners enabled.
func New() platform.Platform { return NewWithOptions(true) }

// NewWithOptions returns an engine with explicit combiner configuration;
// disabling combiners exists for the combiner ablation benchmark. All six
// algorithms are implemented as vertex programs.
func NewWithOptions(useCombiners bool) platform.Platform {
	sum, least := platform.SumCombiner, platform.MinCombiner
	if !useCombiners {
		sum, least = platform.NoCombiner, platform.NoCombiner
	}
	return platform.New(platform.Engine[*uploaded]{
		Name:        "pregel",
		Description: "vertex-centric BSP with message passing (Giraph/Pregel-style)",
		Distributed: true,
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(bfsProgram(ctx, j.Tracker, u, j.SourceIndex, least))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(prProgram(ctx, j.Tracker, u, j.Iterations, j.Damping, sum))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(wccProgram(ctx, j.Tracker, u, least))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(cdlpProgram(ctx, j.Tracker, u, j.Iterations))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(lccProgram(ctx, j.Tracker, u))
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(ssspProgram(ctx, j.Tracker, u, j.SourceIndex, least))
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

type uploaded struct {
	platform.BaseUpload
	part *cluster.VertexPartition
}

// load hash-partitions the vertices over the machines and charges each
// machine one adjacency object per vertex it owns, the way JVM-based
// vertex-centric systems store them: a header and three slice headers,
// the out-neighbours (all neighbours of an undirected graph), the
// in-neighbours of a directed graph, and the out-weights. The context is
// checked periodically inside the per-vertex loop.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	n := g.NumVertices()
	part := cluster.PartitionVerticesHash(n, cl.Machines())
	perMachine := make([]int64, cl.Machines())
	const vertexOverhead = 88 // object header + three slice headers + value slot
	arcBytes := int64(4)
	if g.Weighted() {
		arcBytes += 8
	}
	for v := int32(0); v < int32(n); v++ {
		if v&0xffff == 0 {
			if err := platform.CheckContext(ctx); err != nil {
				return nil, nil, err
			}
		}
		b := vertexOverhead + int64(g.OutDegree(v))*arcBytes
		if g.Directed() {
			b += int64(g.InDegree(v)) * 4
		}
		perMachine[part.Owner[v]] += b
	}
	return &uploaded{part: part}, perMachine, nil
}
