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
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/rangecsr"
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
				vals, rounds, err := u.lay.WCC(ctx, u.Cl)
				annotateDirections(j, 0, rounds)
				return j.Ints(vals, err)
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := u.lay.CDLP(ctx, u.Cl, j.Iterations)
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

type uploaded struct {
	platform.BaseUpload
	// lay is the engine's own graph storage: both adjacency directions
	// are replicated into engine-private arrays during upload.
	lay           *rangecsr.Layout
	arcs          int64 // stored out-adjacency entries: |E| directed, 2|E| undirected
	danglingVerts []int32
}

// load copies the graph into engine storage; both adjacency directions
// are charged, together with the wide per-vertex slots and ghost caches,
// against every machine. The context is checked after the copy, the
// expensive part.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	u := &uploaded{lay: rangecsr.New(g, cl.Machines())}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	n := int64(g.NumVertices())
	for v := int32(0); v < int32(n); v++ {
		deg := u.lay.G.OutDegree(v)
		if deg == 0 {
			u.danglingVerts = append(u.danglingVerts, v)
		}
		u.arcs += int64(deg)
	}
	// Out- and in-adjacency, out-weights and both offset arrays. The
	// modelled engine stores a pull copy of every edge list, so both
	// directions are charged even where an undirected clone shares them.
	edgeBytes := u.arcs*4*2 + 2*(n+1)*8
	if g.Weighted() {
		edgeBytes += u.arcs * 8
	}
	// Edge share per machine, plus replicated ghost-value cache and the
	// engine's wide per-vertex context slots (64 B) on every machine.
	perMachine := edgeBytes/int64(cl.Machines()) + n*8 + n*64
	return u, slices.Repeat([]int64{perMachine}, cl.Machines()), nil
}
