package platform

import (
	"context"
	"fmt"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// upload is the handle type an Engine works on: an Uploaded that embeds
// BaseUpload, which is how the driver reaches the graph, the cluster and
// the upload's memory registration.
type upload interface {
	Uploaded
	base() *BaseUpload
}

// Job is one checked job as a kernel sees it: the resolved request plus
// the job's Granula tracker, open on the ProcessGraph phase while the
// kernel runs, so an engine can nest sub-phases or annotate the phase.
type Job struct {
	algorithms.Job
	Tracker *granula.Tracker
}

// Kernel runs one algorithm of an engine on an upload of that engine. It
// executes rounds on the upload's cluster, charging its own costs, and
// returns the per-vertex output (see algorithms.Job.Ints and Floats).
type Kernel[U upload] func(ctx context.Context, u U, j *Job) (*algorithms.Output, error)

// Engine is what a graph-analysis engine supplies; New wraps it into a
// Platform. The driver owns everything else: the Upload/UploadContext
// pair, memory registration and its release, request checking, algorithm
// dispatch, the Granula phases and the Result.
type Engine[U upload] struct {
	Name        string
	Description string
	// Distributed engines accept Machines > 1.
	Distributed bool
	// Load builds the engine's layout of g for the machines of cl and
	// reports the bytes it occupies on each machine. It must honor ctx and
	// leaves the embedded BaseUpload to the driver.
	Load func(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (U, []int64, error)
	// Kernels holds one kernel per implemented algorithm; its keys are
	// what the platform Supports.
	Kernels map[algorithms.Algorithm]Kernel[U]
	// State returns the working memory a job holds on every machine while
	// it runs, in bytes.
	State func(u U, j *Job) int64
	// Setup, when set, runs in the Setup phase before the job's state is
	// registered: preprocessing a job needs that is outside its processing
	// time, or annotations of the phase.
	Setup func(u U, j *Job) error
	// Annotate, when set, runs at the end of the ProcessGraph phase to
	// attach engine-specific attributes to it.
	Annotate func(u U, j *Job)
}

// driver is the one implementation of Platform and ContextUploader.
type driver[U upload] struct{ e Engine[U] }

// New returns the platform that drives e.
func New[U upload](e Engine[U]) Platform { return &driver[U]{e} }

func (d *driver[U]) Name() string        { return d.e.Name }
func (d *driver[U]) Description() string { return d.e.Description }
func (d *driver[U]) Distributed() bool   { return d.e.Distributed }

func (d *driver[U]) Supports(a algorithms.Algorithm) bool {
	_, ok := d.e.Kernels[a]
	return ok
}

func (d *driver[U]) Upload(g *graph.Graph, cfg RunConfig) (Uploaded, error) {
	//graphalint:ctxbg ctx-less platform.Platform compatibility method; UploadContext is the ctx-first path
	return d.UploadContext(context.Background(), g, cfg)
}

func (d *driver[U]) UploadContext(ctx context.Context, g *graph.Graph, cfg RunConfig) (Uploaded, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	if cfg.Machines > 1 && !d.e.Distributed {
		return nil, fmt.Errorf("%w: %s runs on one machine", ErrNotDistributed, d.e.Name)
	}
	cc := cfg.ClusterConfig()
	// The simulated threads run on as many host cores as the graph's size
	// is worth, by the estimate the reference kernels size themselves with.
	cc.HostWorkers = par.Workers(g.NumVertices() + int(g.NumEdges()))
	cl := cluster.New(cc)
	u, bytes, err := d.e.Load(ctx, g, cl)
	if err != nil {
		return nil, err
	}
	b := u.base()
	b.G, b.Cl = g, cl
	for m, n := range bytes {
		if err := b.Register(m, n); err != nil {
			b.Free()
			return nil, fmt.Errorf("%s: upload %s: %w", d.e.Name, g.Name(), err)
		}
	}
	return u, nil
}

func (d *driver[U]) Execute(ctx context.Context, up Uploaded, a algorithms.Algorithm, p algorithms.Params) (*Result, error) {
	kernel, ok := d.e.Kernels[a]
	switch {
	case !slices.Contains(algorithms.All, a):
		return nil, fmt.Errorf("%w: %q on %s", algorithms.ErrUnknownAlgorithm, a, d.e.Name)
	case !ok:
		return nil, fmt.Errorf("%w: %s on %s", ErrUnsupported, a, d.e.Name)
	}
	u, ok := up.(U)
	if !ok {
		return nil, fmt.Errorf("%s: foreign upload handle %T", d.e.Name, up)
	}
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	g, cl := u.base().G, u.base().Cl
	req, err := algorithms.Resolve(g, a, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.e.Name, err)
	}

	t := granula.NewTracker(fmt.Sprintf("%s/%s", a, g.Name()), d.e.Name)
	j := &Job{Job: req, Tracker: t}
	t.Begin(granula.PhaseSetup)
	cl.ResetPeak()
	if d.e.Setup != nil {
		if err := d.e.Setup(u, j); err != nil {
			return nil, fmt.Errorf("%s: set up %s on %s: %w", d.e.Name, a, g.Name(), err)
		}
	}
	state := d.e.State(u, j)
	for m := 0; m < cl.Machines(); m++ {
		if err := cl.Alloc(m, state); err != nil {
			freeState(cl, m, state)
			return nil, fmt.Errorf("%s: allocate state for %s: %w", d.e.Name, a, err)
		}
	}
	defer freeState(cl, cl.Machines(), state)
	t.End()

	cl.ResetTime()
	t.Begin(granula.PhaseProcess)
	out, err := kernel(ctx, u, j)
	t.Annotate("rounds", fmt.Sprint(cl.Rounds()))
	if d.e.Annotate != nil {
		d.e.Annotate(u, j)
	}
	t.Current().Modeled = cl.SimulatedTime()
	t.End()
	if err != nil {
		return nil, err
	}

	t.Begin(granula.PhaseOffload)
	// Output already lives in harness-visible arrays; nothing to convert.
	t.End()
	return NewResult(t, cl, out), nil
}

// freeState releases a job's state registration on machines [0, machines).
func freeState(cl *cluster.Cluster, machines int, state int64) {
	for m := 0; m < machines; m++ {
		cl.Free(m, state)
	}
}
