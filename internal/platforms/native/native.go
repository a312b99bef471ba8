// Package native implements the hand-optimized single-machine engine,
// standing in for OpenG/GraphBIG in the paper's evaluation. There is no
// programming-model abstraction: every algorithm runs directly against
// the CSR representation with explicit work queues and parallel loops,
// which is why this engine sets the single-machine performance baseline
// (and why its queue-based BFS wins on graphs where the search covers only
// part of the vertices). Those loops are the parallel reference kernels'
// own (algorithms.Kernels), run on the cluster runtime every engine shares
// (platform.Run) over the engine's one machine, which owns every vertex:
// its rounds are charged cluster rounds and its parallel loops the
// simulated thread pool's regions (cluster.Threads), run on the host's
// cores. So a native job at t threads takes about the wall time of the
// reference kernels at t workers, and its output is theirs, bit for bit.
package native

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// New returns the native engine: all six algorithms, single machine only.
func New() platform.Platform {
	return platform.New(platform.Engine[*uploaded]{
		Name:        "native",
		Description: "hand-written CSR implementations, single machine (OpenG-style)",
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					return k.BFS(rt, u.G, j.SourceIndex)
				}))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
					return k.PageRank(rt, u.G, j.Iterations, j.Damping)
				}))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) { return k.WCC(rt, u.G) }))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					return k.CDLP(rt, u.G, j.Iterations)
				}))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) { return k.LCC(rt, u.orient) }))
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
					return k.SSSP(rt, u.G, j.SourceIndex)
				}))
			},
		},
		State: func(u *uploaded, j *platform.Job) int64 {
			return stateFootprint(u.G, j.Algorithm, u.Cl.Threads())
		},
		Setup: func(u *uploaded, j *platform.Job) error {
			if j.Algorithm != algorithms.LCC {
				return nil
			}
			return u.orientLCC()
		},
		Annotate: func(u *uploaded, j *platform.Job) {
			j.Tracker.Annotate("threads", fmt.Sprint(u.Cl.Threads()))
		},
	})
}

// run runs a reference kernel on the engine's one machine, traffic-free.
func run[T any](ctx context.Context, u *uploaded, kernel func(*algorithms.Kernels, algorithms.Runtime) (T, error)) (T, error) {
	return platform.Run(ctx, &u.BaseUpload, nil, nil, kernel)
}

type uploaded struct {
	platform.BaseUpload
	// orient is the LCC kernel's degree-ordered view of the graph, built
	// by the upload's first LCC job and kept for its later ones; its
	// footprint is registered with the graph's, in bytes.
	orient *algorithms.LCCOrientation
}

// orientLCC builds the LCC orientation on the upload's first LCC job and
// registers it against the machine budget for the life of the upload. It
// runs in the job's setup phase: like the upload it extends, this is
// preprocessing, outside the simulated processing time. An orientation
// that does not fit is dropped again, so the job fails as out of memory
// and a later job retries.
func (u *uploaded) orientLCC() error {
	if u.orient != nil {
		return nil
	}
	o := algorithms.NewLCCOrientation(u.G, 1)
	if err := u.Register(0, o.Bytes()); err != nil {
		return err
	}
	u.orient = o
	return nil
}

// load is the whole upload: the native engine runs on the CSR directly, so
// only the graph's memory is registered against the machine budget.
func load(_ context.Context, g *graph.Graph, _ *cluster.Cluster) (*uploaded, []int64, error) {
	return &uploaded{}, []int64{g.MemoryFootprint()}, nil
}

// stateFootprint estimates the engine's per-run working memory: native
// kernels keep one or two flat arrays per vertex plus frontier queues,
// and BFS a frontier bitmap for its bottom-up levels.
func stateFootprint(g *graph.Graph, a algorithms.Algorithm, threads int) int64 {
	n := int64(g.NumVertices())
	switch a {
	case algorithms.BFS:
		return n*(8+2*4) + (n+63)/64*8 // depth + two frontier queues + frontier bitmap
	case algorithms.PR:
		return n * 16 // two rank arrays
	case algorithms.WCC, algorithms.CDLP:
		return n * 16 // two label arrays
	case algorithms.LCC:
		return n * (8 + 8 + int64(threads)) // result + numerators + one byte mark array per thread
	case algorithms.SSSP:
		return n * (8 + 2*4) // distances + frontier queues
	}
	return n * 8
}
