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
//
// The engine keeps a private CSR copy of the graph in both directions,
// its vertices split into contiguous edge-balanced ranges, one per
// machine. Every kernel — the direction-optimizing BFS, PageRank, WCC
// (min-label pulls), CDLP and SSSP (Bellman-Ford pushes) — is the
// reference kernels' loop on the shared cluster runtime (platform.Run),
// each machine broadcasting what it produced: 12 bytes per claimed
// vertex, 8 per owned rank, 4 per owned label, 12 per changed label and
// 16 per improved distance. BFS picks push or pull once per level, for
// all machines, and the ProcessGraph phase records how many levels ran
// each way. PageRank takes one round per iteration, in which every
// machine computes the whole contribution vector, replicated, and pulls
// the ranks of its range.
package pushpull

import (
	"context"
	"fmt"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// New returns the adaptive push-pull engine. LCC is not implemented,
// matching PGX.D in the paper.
func New() platform.Platform { return platform.New(engine()) }

// engine is the push-pull engine's description, a fresh kernel map on
// every call.
func engine() platform.Engine[*uploaded] {
	return platform.Engine[*uploaded]{
		Name:        "pushpull",
		Description: "adaptive push-pull iteration engine (PGX.D-style)",
		Distributed: true,
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				pulls := 0
				vals, err := run(ctx, u, 12, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					depth, err := k.BFS(rt, u.g, j.SourceIndex)
					pulls = k.BottomUpLevels()
					return depth, err
				})
				annotateDirections(j, u.Cl.Rounds()-pulls, pulls)
				return j.Ints(vals, err)
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := run(ctx, u, 8, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
					return k.PageRank(rt, u.g, j.Iterations, j.Damping)
				})
				annotateDirections(j, 0, j.Iterations)
				return j.Floats(vals, err)
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := run(ctx, u, 4, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					return k.MinLabelWCC(rt, u.g)
				})
				annotateDirections(j, 0, u.Cl.Rounds())
				return j.Ints(vals, err)
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := run(ctx, u, 12, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					return k.CDLP(rt, u.g, j.Iterations)
				})
				annotateDirections(j, 0, j.Iterations)
				return j.Ints(vals, err)
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				vals, err := run(ctx, u, 16, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
					return k.BellmanFordSSSP(rt, u.g, j.SourceIndex)
				})
				annotateDirections(j, u.Cl.Rounds(), 0)
				return j.Floats(vals, err)
			},
		},
		State: func(u *uploaded, _ *platform.Job) int64 { return int64(u.G.NumVertices()) * 16 },
	}
}

// annotateDirections records on the ProcessGraph phase how many rounds
// ran in each direction.
func annotateDirections(j *platform.Job, pushes, pulls int) {
	j.Tracker.Annotate("push_rounds", fmt.Sprint(pushes))
	j.Tracker.Annotate("pull_rounds", fmt.Sprint(pulls))
}

// run runs a reference kernel (algorithms.Kernels) on the upload's
// machines, each owning its partition's range and broadcasting what it
// reports, each bytes per update.
func run[T any](ctx context.Context, u *uploaded, each int64, kernel func(*algorithms.Kernels, algorithms.Runtime) (T, error)) (T, error) {
	return platform.Run(ctx, &u.BaseUpload, u.part.Range, platform.Allgather(u.Cl, each), kernel)
}

type uploaded struct {
	platform.BaseUpload
	// g is the engine's own heap-resident copy of the graph, both
	// adjacency directions replicated into engine-private arrays during
	// upload; it keeps the kernels off a mapped dataset's pages.
	g *graph.Graph
	// part assigns each machine one contiguous vertex range.
	part *cluster.VertexPartition
}

// load copies the graph into engine storage; both adjacency directions
// are charged, together with the wide per-vertex slots and ghost caches,
// against every machine. The context is checked after the copy, the
// expensive part.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	c := g.Clone()
	u := &uploaded{g: c, part: cluster.PartitionVerticesRange(c, cl.Machines())}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	n := int64(g.NumVertices())
	var arcs int64 // stored out-adjacency entries: |E| directed, 2|E| undirected
	for v := int32(0); v < int32(n); v++ {
		arcs += int64(c.OutDegree(v))
	}
	// Out- and in-adjacency, out-weights and both offset arrays. The
	// modelled engine stores a pull copy of every edge list, so both
	// directions are charged even where an undirected clone shares them.
	edgeBytes := arcs*4*2 + 2*(n+1)*8
	if g.Weighted() {
		edgeBytes += arcs * 8
	}
	// Edge share per machine, plus replicated ghost-value cache and the
	// engine's wide per-vertex context slots (64 B) on every machine.
	perMachine := edgeBytes/int64(cl.Machines()) + n*8 + n*64
	return u, slices.Repeat([]int64{perMachine}, cl.Machines()), nil
}
