// Package pushpull implements a direction-switching iteration engine in
// the style of Oracle PGX.D, which lets vertices "pull" (read) data from
// neighbors in addition to the conventional "push" (write) direction.
// Every iteration the engine picks push or pull from the frontier density:
// sparse frontiers push along out-edges, dense frontiers switch to a pull
// scan over in-edges, avoiding contended writes.
//
// Mirroring the paper's PGX.D: the engine is distributed, tuned for
// machines with large memory (it keeps both adjacency directions plus wide
// per-vertex state and ghost caches on every machine, and is therefore the
// first to hit memory limits in the stress test), and it does not
// implement LCC.
package pushpull

import (
	"context"
	"fmt"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// New returns the adaptive push-pull engine.
func New() platform.Platform { return NewForced("") }

// NewForced returns an engine pinned to one direction ("push" or "pull"),
// used by the direction ablation benchmark; empty selects adaptively. LCC
// is not implemented, matching PGX.D in the paper.
func NewForced(direction string) platform.Platform {
	return platform.New(platform.Engine[*uploaded]{
		Name:        "pushpull",
		Description: "adaptive push-pull iteration engine (PGX.D-style)",
		Distributed: true,
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, pushes, pulls, err := bfs(ctx, u, j.SourceIndex, direction)
				annotateDirections(j, pushes, pulls)
				return j.Ints(vals, err)
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := pagerank(ctx, u, j.Iterations, j.Damping)
				annotateDirections(j, 0, j.Iterations)
				return j.Floats(vals, err)
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, rounds, err := wcc(ctx, u)
				annotateDirections(j, 0, rounds)
				return j.Ints(vals, err)
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := cdlp(ctx, u, j.Iterations)
				annotateDirections(j, 0, j.Iterations)
				return j.Ints(vals, err)
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, rounds, err := sssp(ctx, u, j.SourceIndex)
				annotateDirections(j, rounds, 0)
				return j.Floats(vals, err)
			},
		},
		State: func(u *uploaded, _ *platform.Job) int64 { return int64(u.G.NumVertices()) * 16 },
	})
}

// annotateDirections records on the ProcessGraph phase how many rounds
// ran in each direction.
func annotateDirections(j *platform.Job, pushes, pulls int) {
	j.Tracker.Annotate("push_rounds", fmt.Sprint(pushes))
	j.Tracker.Annotate("pull_rounds", fmt.Sprint(pulls))
}

// store is the engine's own graph storage: both adjacency directions are
// replicated into engine-private arrays during upload.
type store struct {
	n        int
	directed bool
	outOff   []int64
	outAdj   []int32
	outW     []float64
	inOff    []int64
	inAdj    []int32
}

// The adjacency accessors sit on every push and pull scan's per-edge
// path; they return views into the CSR arrays, never copies.
//
//graphalint:noalloc
func (s *store) out(v int32) []int32 { return s.outAdj[s.outOff[v]:s.outOff[v+1]] }

//graphalint:noalloc
func (s *store) in(v int32) []int32 { return s.inAdj[s.inOff[v]:s.inOff[v+1]] }

//graphalint:noalloc
func (s *store) outWeights(v int32) []float64 {
	if s.outW == nil {
		return nil
	}
	return s.outW[s.outOff[v]:s.outOff[v+1]]
}

//graphalint:noalloc
func (s *store) outDegree(v int32) int { return int(s.outOff[v+1] - s.outOff[v]) }

type uploaded struct {
	platform.BaseUpload
	st            *store
	part          *cluster.VertexPartition
	danglingVerts []int32
	// scratch caches the CDLP/SSSP working buffers between Execute calls.
	scratch mplane.Pool
}

// load copies both adjacency directions into engine storage; they are
// charged, together with the wide per-vertex slots and ghost caches,
// against every machine. The context is checked between the two copies
// and before the dangling-vertex scan.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	st := &store{n: g.NumVertices(), directed: g.Directed()}
	st.outOff, st.outAdj, st.outW = g.CopyCSR(false)
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	st.inOff, st.inAdj, _ = g.CopyCSR(true)
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	u := &uploaded{st: st, part: cluster.PartitionVerticesRange(g, cl.Machines())}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if st.outDegree(v) == 0 {
			u.danglingVerts = append(u.danglingVerts, v)
		}
	}
	edgeBytes := int64(len(st.outAdj))*4 + int64(len(st.inAdj))*4 + int64(len(st.outW))*8 +
		int64(len(st.outOff))*8 + int64(len(st.inOff))*8
	n := int64(g.NumVertices())
	// Edge share per machine, plus replicated ghost-value cache and the
	// engine's wide per-vertex context slots (64 B) on every machine.
	perMachine := edgeBytes/int64(cl.Machines()) + n*8 + n*64
	return u, slices.Repeat([]int64{perMachine}, cl.Machines()), nil
}
