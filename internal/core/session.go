// Package core implements the Graphalytics harness (components 1-12 of the
// architecture in Figure 1): it processes the benchmark description and
// configuration, orchestrates jobs against platform drivers (upload,
// execute, validate, archive), enforces the service-level agreement,
// delivers results to sinks, and runs the experiment suites of Table 6 —
// baseline, scalability, robustness and self-test. Reports are pure
// functions of a spec and its results (Experiment.Render, JobTable,
// AnalysisReport): a run returns its results, and rendering never needs
// the session that produced them.
//
// The public entry point is the Session: a context-first, concurrency-safe
// orchestrator constructed with functional options. A session has one
// runner, RunPlan, which runs a plan's deployments on a bounded worker
// pool and streams progress through an Observer. Benchmark descriptions
// go BenchSpec → Plan → RunPlan (spec.go, plan.go), and an explicit job
// list goes PlanFromSpecs → RunPlan.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/clock"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/metrics"
	"graphalytics/internal/platform"
	"graphalytics/internal/validation"
	"graphalytics/internal/workload"
)

// config holds a session's resolved settings; it is immutable after
// NewSession, which is what makes Session safe for concurrent use.
type config struct {
	sla         time.Duration
	validate    bool
	parallelism int
	observer    Observer
	store       *graphstore.Store
	cacheDir    string
	// sinks receive every recorded result in commit order (see Sink).
	sinks []Sink
	// mapped asks the cache-dir store to serve v2 snapshots as
	// mmap-backed graphs (WithMappedSnapshots). Only meaningful together
	// with cacheDir.
	mapped bool
}

// resolveStore settles which graph store the session materializes
// datasets through: a cache directory gets a dedicated snapshot-backed
// store, otherwise the process-wide default store (pure in-memory
// memoization).
func (c *config) resolveStore() {
	if c.cacheDir != "" {
		c.store = graphstore.New(graphstore.Options{Dir: c.cacheDir, MapSnapshots: c.mapped})
		return
	}
	c.store = workload.DefaultStore()
}

// Option configures a Session (and, per call, one RunPlan run).
type Option func(*config)

// WithSLA sets the default makespan budget per job (upload plus execute);
// zero selects DefaultSLA. A JobSpec's own SLA still takes precedence.
func WithSLA(d time.Duration) Option { return func(c *config) { c.sla = d } }

// WithValidation toggles output validation against the reference
// implementation. Sessions validate by default.
func WithValidation(on bool) Option { return func(c *config) { c.validate = on } }

// WithParallelism bounds the worker pool RunPlan schedules deployments
// on; n < 1 selects GOMAXPROCS. Parallelism 1 reproduces strictly
// sequential execution (the right choice when timing fidelity matters
// more than sweep throughput).
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithObserver streams progress events (job started/finished, experiment
// phases, dataset materializations) to o. The session serializes Observe
// calls.
func WithObserver(o Observer) Option { return func(c *config) { c.observer = o } }

// WithSink adds a result sink: every result RunPlan records is also
// delivered to k, in commit order.
// Repeating the option adds more sinks; see Sink for the contract.
func WithSink(k Sink) Option { return func(c *config) { c.sinks = append(c.sinks, k) } }

// WithCacheDir gives the session a dedicated graph store that persists
// binary CSR snapshots under dir: the first materialization of a dataset
// generates and snapshots it, later runs — including later processes —
// load the snapshot instead of re-generating. Without it the session
// uses the workload package's process-wide in-memory store.
func WithCacheDir(dir string) Option { return func(c *config) { c.cacheDir = dir } }

// WithMappedSnapshots makes the WithCacheDir store serve v2 snapshots as
// mmap-backed graphs instead of decoding them onto the heap: opening a
// warm snapshot costs O(header) and its pages stay reclaimable by the OS,
// which is what lets a session run graphs larger than RAM. Engine outputs
// are identical either way. Ignored without WithCacheDir.
func WithMappedSnapshots(on bool) Option { return func(c *config) { c.mapped = on } }

// Session orchestrates benchmark jobs: SLA enforcement, validation
// against single-flighted reference outputs, in-order result delivery to
// sinks, and a bounded-parallelism scheduler. It is safe for concurrent
// use, and holds no results: every run returns its own.
type Session struct {
	cfg    config
	refs   *refCache
	emitMu *sync.Mutex
	// eventSeq is the session's monotonic event sequence, shared (like
	// emitMu) by every batch derived from the session so the whole
	// session's stream carries one gap-free total order. It is advanced
	// under emitMu, which is what makes delivery order equal Seq order.
	eventSeq *atomic.Uint64
	// recordMu serializes record across every batch derived from this
	// session, so the documented sink contract — Consume calls are
	// serialized, implementations need no locking — holds even when two
	// RunPlan batches run concurrently on one session.
	recordMu *sync.Mutex
}

// NewSession returns a session with the default configuration — output
// validation on and GOMAXPROCS scheduler parallelism — overridden by the
// given options. Jobs are charged the default network model
// (cluster.DefaultNetwork).
func NewSession(opts ...Option) *Session {
	cfg := config{
		validate:    true,
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.resolveStore()
	return &Session{
		cfg: cfg, refs: newRefCache(),
		emitMu: new(sync.Mutex), recordMu: new(sync.Mutex),
		eventSeq: new(atomic.Uint64),
	}
}

// batchSession derives a per-batch session: the session's configuration
// with per-call options applied, sharing the reference cache, event
// serialization and record serialization. The sinks slice is clipped
// first so a per-batch WithSink appends into fresh backing storage
// instead of racing other batches on the session's array.
func (s *Session) batchSession(opts []Option) *Session {
	cfg := s.cfg
	cfg.sinks = slices.Clip(cfg.sinks)
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.cacheDir != s.cfg.cacheDir || cfg.mapped != s.cfg.mapped {
		// A per-batch WithCacheDir asks for a different snapshot store.
		cfg.resolveStore()
	}
	return &Session{cfg: cfg, refs: s.refs, emitMu: s.emitMu, recordMu: s.recordMu, eventSeq: s.eventSeq}
}

// GraphStore returns the store the session materializes datasets through.
func (s *Session) GraphStore() *graphstore.Store { return s.cfg.store }

// loadGraph materializes a dataset through the session's store and
// reports the outcome on the event stream, so observers can tell cache
// hits from cold builds.
func (s *Session) loadGraph(d workload.Dataset) (*graph.Graph, error) {
	r, err := workload.GetFrom(s.cfg.store, d.ID)
	if err != nil {
		return nil, err
	}
	s.emit(Event{
		Type: EventDatasetMaterialized, Dataset: d.ID,
		Source: string(r.Source), Elapsed: r.Elapsed,
		Bytes: r.Bytes, MappedBytes: r.MappedBytes,
	})
	return r.Graph, nil
}

// emit delivers an event to the observer, serialized, stamped with the
// session's next sequence number and clock.Now. Delivery is
// panic-recovered: a faulty observer loses the event, not the run (see
// the Observer contract). The sequence advances under emitMu so Seq
// order equals delivery order, gap-free — events are only numbered when
// an observer is attached, so the first delivered event is always Seq 1.
func (s *Session) emit(e Event) {
	if s.cfg.observer == nil {
		return
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	e.Seq = s.eventSeq.Add(1)
	e.Time = clock.Now()
	safeObserve(s.cfg.observer, e)
}

// refCache single-flights reference-output computation: concurrent jobs
// on the same dataset/algorithm pair block on one computation instead of
// each recomputing the reference.
type refCache struct {
	mu       sync.Mutex
	entries  map[string]*refEntry
	computes atomic.Int64 // number of reference computations actually run
}

type refEntry struct {
	once sync.Once
	out  *algorithms.Output
	err  error
}

func newRefCache() *refCache {
	return &refCache{entries: make(map[string]*refEntry)}
}

// get returns the reference output for a dataset/algorithm pair, computing
// it at most once per cache regardless of concurrency. load materializes
// the dataset's graph (sessions pass their store-backed loader). The
// context only gates starting a new computation: an existing entry is
// cached or in flight and is always used, so a job that finished
// execution does not lose its validation to a late cancellation, and a
// computation in flight is never abandoned since other jobs may be
// waiting on it.
func (c *refCache) get(ctx context.Context, d workload.Dataset, a algorithms.Algorithm, load func(workload.Dataset) (*graph.Graph, error)) (*algorithms.Output, error) {
	key := d.ID + "/" + string(a)
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		e = &refEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.computes.Add(1)
		g, err := load(d)
		if err != nil {
			e.err = err
			return
		}
		e.out, e.err = algorithms.RunReference(g, a, d.Params)
	})
	return e.out, e.err
}

// batchPos locates a job inside a plan for event reporting.
type batchPos struct{ index, total int }

// record delivers a finished job to the session's sinks in registration
// order. Jobs that hit a harness-level error before running carry no
// status and are not recorded. recordMu — shared by every batch of one
// session — serializes delivery, which is what gives sinks their
// lock-free contract; within a batch the commit reorder buffer
// additionally fixes the order to plan order. Each sink's failure is
// wrapped with its position and type under ErrSink, so a joined batch
// error names which sinks rejected which delivery.
func (s *Session) record(res JobResult) error {
	if res.Status == "" {
		return nil
	}
	s.recordMu.Lock()
	defer s.recordMu.Unlock()
	var errs []error
	for i, k := range s.cfg.sinks {
		if err := k.Consume(res); err != nil {
			errs = append(errs, fmt.Errorf("%w: sink %d (%T): %w", ErrSink, i+1, k, err))
		}
	}
	return errors.Join(errs...)
}

// jobStatus maps a job's failure to its status. A context error while
// the caller's ctx has ended is StatusCanceled — the batch stopped, not
// the job's SLA timer — and every other error is classified on its own.
func jobStatus(ctx context.Context, err error) (Status, string) {
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return StatusCanceled, err.Error()
	}
	return classify(err)
}

// execute runs one job without recording it, emitting the job's start and
// finish events. The job's uploaded graph comes from dep, the upload its
// deployment group shares (see RunPlan). The caller frees dep after the
// group's last job, not here, so the handle outlives this job for the
// group.
func (s *Session) execute(ctx context.Context, spec JobSpec, pos batchPos, dep *deployment) (res JobResult, err error) {
	s.emit(Event{Type: EventJobStarted, Spec: spec, Index: pos.index, Total: pos.total})
	defer func() {
		r := res
		s.emit(Event{Type: EventJobFinished, Spec: spec, Result: &r, Err: err, Index: pos.index, Total: pos.total})
	}()

	res = JobResult{Spec: spec, Timestamp: clock.Now()}
	if cerr := ctx.Err(); cerr != nil {
		// The caller's context ended before this job started: the batch
		// stopped.
		res.Status, res.Error = jobStatus(ctx, cerr)
		return res, nil
	}
	p, err := platform.Get(spec.Platform)
	if err != nil {
		return res, err
	}
	d, err := workload.ByID(spec.Dataset)
	if err != nil {
		return res, err
	}
	g, err := s.loadGraph(d)
	if err != nil {
		return res, err
	}
	res.Scale = workload.Scale(g)
	res.Class = workload.Class(g)

	if !p.Supports(spec.Algorithm) || (spec.Algorithm == algorithms.SSSP && !g.Weighted()) {
		res.Status = StatusUnsupported
		return res, nil
	}

	sla := spec.SLA
	if sla == 0 {
		sla = s.cfg.sla
	}
	if sla == 0 {
		sla = DefaultSLA
	}

	cfg := platform.RunConfig{
		Threads:          spec.Threads,
		Machines:         spec.Machines,
		MemoryPerMachine: spec.MemoryPerMachine,
		Net:              cluster.DefaultNetwork(),
	}

	// The SLA window opens before upload: the benchmark's makespan budget
	// covers the whole job, so a pathological upload breaks the SLA too —
	// and is cancelled as it breaks it. The
	// deployment's first job performs the upload under its own SLA-sized
	// window; every job is then charged the recorded upload time, so the
	// execute budget jctx leaves — and therefore the statuses — are the
	// same whether a job paid for the upload or reused it.
	var up platform.Uploaded
	up, res.UploadTime, res.UploadShared, err = dep.upload(func() (platform.Uploaded, time.Duration, error) {
		uctx, ucancel := context.WithTimeout(ctx, sla)
		defer ucancel()
		start := clock.Now()
		u, uerr := recovered(func() (platform.Uploaded, error) { return p.UploadContext(uctx, g, cfg) })
		dur := clock.Now().Sub(start)
		if uerr == nil {
			s.emit(Event{Type: EventDeploymentUploaded, Spec: spec, Elapsed: dur})
		}
		return u, dur, uerr
	})
	// What the upload left of the SLA window is the execute budget; an
	// upload that failed, or used the window up, ends the job here.
	jctx, cancel := context.WithTimeout(ctx, sla-res.UploadTime)
	defer cancel()
	if err == nil {
		err = jctx.Err()
	}
	if err != nil {
		res.Status, res.Error = jobStatus(ctx, err)
		if res.Status == StatusSLABreak {
			res.Error = fmt.Sprintf("upload time %v exceeds SLA %v", res.UploadTime, sla)
		}
		return res, nil
	}

	execStart := clock.Now()
	out, err := recovered(func() (*platform.Result, error) { return p.Execute(jctx, up, spec.Algorithm, d.Params) })
	res.Makespan = clock.Now().Sub(execStart)
	if err != nil {
		res.Status, res.Error = jobStatus(ctx, err)
		return res, nil
	}
	if job := res.UploadTime + res.Makespan; job > sla {
		// The job finished but blew the makespan budget: an SLA break.
		res.Status = StatusSLABreak
		res.Error = fmt.Sprintf("upload %v + makespan %v exceeds SLA %v", res.UploadTime, res.Makespan, sla)
		return res, nil
	}

	res.ProcessingTime = out.ProcessingTime
	res.NetworkTime = out.NetworkTime
	res.Rounds = out.Rounds
	res.PeakMemory = out.PeakMemory
	res.EPS = metrics.EPS(g.NumEdges(), out.ProcessingTime)
	res.EVPS = metrics.EVPS(g.NumVertices(), g.NumEdges(), out.ProcessingTime)

	if s.cfg.validate {
		// Validation is harness work outside the SLA window, so it runs
		// under the caller's context, not the job deadline.
		want, rerr := s.refs.get(ctx, d, spec.Algorithm, s.loadGraph)
		if rerr != nil {
			if ctx.Err() != nil {
				res.Status, res.Error = StatusCanceled, rerr.Error()
			} else {
				res.Status = StatusFailed
				res.Error = fmt.Sprintf("reference: %v", rerr)
			}
			return res, nil
		}
		res.Validated = true
		rep := validation.Validate(out.Output, want, g.IDs())
		res.ValidationOK = rep.OK
		if !rep.OK {
			res.Status = StatusInvalid
			res.Error = rep.FirstDiff
			return res, nil
		}
	}
	res.Status = StatusOK
	return res, nil
}

// recovered makes a platform call whose panic fails the job instead of the
// process: the panic becomes an error reading "panic: <value>", which
// classifies as StatusFailed. It guards the session's two call sites, so
// it covers every Platform, wrapped or third-party. The helpers of par's
// pool run the chunks of both par.Chunks and cluster.Threads regions;
// they recover a chunk's panic and par.Chunks re-raises it on the calling
// goroutine, so those reach it too; a goroutine an engine starts with its
// own go statement is beyond any caller's recover. The error does
// not wrap the panic value, so what an engine panics with cannot pass for
// a cancellation or an OOM, and it carries no stack, so result streams
// stay identical from run to run.
func recovered[T any](call func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, fmt.Errorf("panic: %v", r)
		}
	}()
	return call()
}
