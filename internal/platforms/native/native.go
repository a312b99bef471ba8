// Package native implements the hand-optimized single-machine engine,
// standing in for OpenG/GraphBIG in the paper's evaluation. There is no
// programming-model abstraction: every algorithm is written directly
// against the CSR representation with explicit work queues and parallel
// loops, which is why this engine sets the single-machine performance
// baseline (and why its queue-based BFS wins on graphs where the search
// covers only part of the vertices). Its parallel loops are the simulated
// thread pool's regions (cluster.Threads), whose chunks run on the host's
// cores, so a native job at t threads takes about the wall time of the
// reference kernels at t workers.
package native

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
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
				return j.Ints(bfs(ctx, u, j.SourceIndex))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(pagerank(ctx, u.G, u.Cl, j.Iterations, j.Damping))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(wcc(ctx, u.G, u.Cl))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(cdlp(ctx, u, j.Iterations))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(lcc(ctx, u))
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(sssp(ctx, u, j.SourceIndex))
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

type uploaded struct {
	platform.BaseUpload
	// scratch caches the kernels' per-job working buffers (delta-stepping
	// bucket state, CDLP frontier stamps and histogram) across Execute
	// calls on one upload, so steady-state runs allocate only their output
	// arrays.
	scratch mplane.Pool
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
// kernels keep one or two flat arrays per vertex plus frontier queues.
func stateFootprint(g *graph.Graph, a algorithms.Algorithm, threads int) int64 {
	n := int64(g.NumVertices())
	switch a {
	case algorithms.BFS:
		return n * (8 + 2*4) // depth + two frontier queues
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
