// Package native implements the hand-optimized single-machine engine,
// standing in for OpenG/GraphBIG in the paper's evaluation. There is no
// programming-model abstraction: every algorithm is written directly
// against the CSR representation with explicit work queues and parallel
// loops, which is why this engine sets the single-machine performance
// baseline (and why its queue-based BFS wins on graphs where the search
// covers only part of the vertices).
package native

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// Engine is the native platform driver.
type Engine struct{}

// New returns the native engine.
func New() *Engine { return &Engine{} }

// Name implements platform.Platform.
func (e *Engine) Name() string { return "native" }

// Description implements platform.Platform.
func (e *Engine) Description() string {
	return "hand-written CSR implementations, single machine (OpenG-style)"
}

// Distributed implements platform.Platform; the native engine is
// single-machine only.
func (e *Engine) Distributed() bool { return false }

// Supports implements platform.Platform; all six algorithms are
// implemented.
func (e *Engine) Supports(a algorithms.Algorithm) bool {
	switch a {
	case algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP:
		return true
	}
	return false
}

type uploaded struct {
	platform.BaseUpload
	bytes int64
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

func (u *uploaded) Free() {
	u.Cl.Free(0, u.bytes)
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
	if err := u.Cl.Alloc(0, o.Bytes()); err != nil {
		return err
	}
	u.orient = o
	u.bytes += o.Bytes()
	return nil
}

// Upload implements platform.Platform. The native engine runs on the CSR
// directly, so upload only registers the graph's memory against the
// machine budget.
func (e *Engine) Upload(g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	//graphalint:ctxbg ctx-less platform.Platform compatibility method; UploadContext is the ctx-first path
	return e.UploadContext(context.Background(), g, cfg)
}

// UploadContext implements platform.ContextUploader. Native upload is a
// single allocation, so the context is checked once up front.
func (e *Engine) UploadContext(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	if cfg.Machines > 1 {
		return nil, fmt.Errorf("%w: native engine supports one machine", platform.ErrNotDistributed)
	}
	cl := cluster.New(cfg.ClusterConfig())
	bytes := g.MemoryFootprint()
	if err := cl.Alloc(0, bytes); err != nil {
		return nil, fmt.Errorf("native: upload %s: %w", g.Name(), err)
	}
	return &uploaded{BaseUpload: platform.BaseUpload{G: g, Cl: cl}, bytes: bytes}, nil
}

// Execute implements platform.Platform.
func (e *Engine) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	if !e.Supports(a) {
		return nil, fmt.Errorf("%w: %s on native", platform.ErrUnsupported, a)
	}
	u, ok := up.(*uploaded)
	if !ok {
		return nil, fmt.Errorf("native: foreign upload handle %T", up)
	}
	p = p.WithDefaults(a)
	g := u.G
	cl := u.Cl

	t := granula.NewTracker(fmt.Sprintf("%s/%s", a, g.Name()), e.Name())
	t.Begin(granula.PhaseSetup)
	if a == algorithms.LCC {
		if err := u.orientLCC(); err != nil {
			return nil, fmt.Errorf("native: orient %s for %s: %w", g.Name(), a, err)
		}
	}
	stateBytes := stateFootprint(g, a, cl.Threads())
	if err := cl.Alloc(0, stateBytes); err != nil {
		return nil, fmt.Errorf("native: allocate state for %s: %w", a, err)
	}
	defer cl.Free(0, stateBytes)
	t.End()

	cl.ResetTime()
	t.Begin(granula.PhaseProcess)
	out, err := e.run(ctx, u, a, p)
	t.Annotate("threads", fmt.Sprint(cl.Threads()))
	t.Current().Modeled = cl.SimulatedTime()
	t.End()
	if err != nil {
		return nil, err
	}

	t.Begin(granula.PhaseOffload)
	// Output already lives in harness-visible arrays; nothing to convert.
	t.End()
	return platform.NewResult(t, cl, out), nil
}

// run dispatches to the algorithm kernels.
func (e *Engine) run(ctx context.Context, u *uploaded, a algorithms.Algorithm, p algorithms.Params) (*algorithms.Output, error) {
	g, cl := u.G, u.Cl
	switch a {
	case algorithms.BFS:
		src, ok := g.Index(p.Source)
		if !ok {
			return nil, fmt.Errorf("native: %w: %d", algorithms.ErrSourceNotFound, p.Source)
		}
		depth, err := bfs(ctx, u, src)
		if err != nil {
			return nil, err
		}
		return &algorithms.Output{Algorithm: a, Int: depth}, nil
	case algorithms.PR:
		rank, err := pagerank(ctx, g, cl, p.Iterations, p.Damping)
		if err != nil {
			return nil, err
		}
		return &algorithms.Output{Algorithm: a, Float: rank}, nil
	case algorithms.WCC:
		labels, err := wcc(ctx, g, cl)
		if err != nil {
			return nil, err
		}
		return &algorithms.Output{Algorithm: a, Int: labels}, nil
	case algorithms.CDLP:
		labels, err := cdlp(ctx, u, p.Iterations)
		if err != nil {
			return nil, err
		}
		return &algorithms.Output{Algorithm: a, Int: labels}, nil
	case algorithms.LCC:
		vals, err := lcc(ctx, u)
		if err != nil {
			return nil, err
		}
		return &algorithms.Output{Algorithm: a, Float: vals}, nil
	case algorithms.SSSP:
		if !g.Weighted() {
			return nil, algorithms.ErrNeedsWeights
		}
		src, ok := g.Index(p.Source)
		if !ok {
			return nil, fmt.Errorf("native: %w: %d", algorithms.ErrSourceNotFound, p.Source)
		}
		dist, err := sssp(ctx, u, src)
		if err != nil {
			return nil, err
		}
		return &algorithms.Output{Algorithm: a, Float: dist}, nil
	}
	return nil, fmt.Errorf("%w: %s", platform.ErrUnsupported, a)
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
