// Package service is the benchmark-as-a-service layer of the harness:
// a long-running HTTP daemon (cmd/graphalyticsd) where clients POST a
// BenchSpec and get back a run handle, stream live progress over SSE
// and results as JSONL, and share one warm graph store across tenants.
//
// Architecture — the service composes the seams the core pipeline
// already exposes, rather than reimplementing orchestration:
//
//   - Every run is one Session.RunPlan batch on a single shared
//     core.Session, so all tenants share the session's graph store (a
//     cross-tenant warm snapshot cache), its single-flight reference
//     cache, and its daemon-wide sinks.
//   - Each run's core Observer appends every session event to the run's
//     append-only event log as it is emitted, so the log is complete;
//     SSE readers follow the log at their own pace and never
//     backpressure the run loop. Per-run event ids are gap-free, and SSE
//     reconnects resume via Last-Event-ID with no gaps and no
//     duplicates.
//   - Results stream through a per-run buffering core.Sink delivered in
//     plan commit order; GET /v1/runs/{id}/results re-encodes exactly
//     the JSONL a local `graphalytics run -spec -out` would write.
//
// In front of RunPlan sits admission control and a deficit-round-robin
// fair-share scheduler (scheduler.go): per-tenant queue-depth and
// running quotas, bounded queues answering 429 + Retry-After on
// overflow, and job-count-weighted round robin so one tenant's 500-job
// sweep cannot starve another tenant's single run.
package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"graphalytics/internal/archive"
	"graphalytics/internal/core"
	"graphalytics/internal/platforms"
)

// Defaults for Config fields left unset.
const (
	// DefaultSlots is the global bound on concurrently running runs.
	DefaultSlots = 2
	// DefaultQuantum is the deficit-round-robin quantum in job units.
	DefaultQuantum = 4
)

// Config parameterizes a Service.
type Config struct {
	// Tenants lists the admission-control principals. Empty selects a
	// single anonymous tenant named "public" with default quotas.
	Tenants []Tenant
	// Slots bounds concurrently running runs across all tenants
	// (default DefaultSlots). Each run still parallelizes internally up
	// to the session's WithParallelism.
	Slots int
	// Quantum is the deficit-round-robin quantum in job units (default
	// DefaultQuantum): how much credit a tenant accrues per scheduler
	// visit. Smaller values interleave tenants more finely.
	Quantum int
	// SessionOptions configure the shared session every run executes
	// on: graph store or cache dir, SLA, validation, parallelism,
	// and daemon-wide sinks. WithObserver and WithSink are
	// layered per run on top of these.
	SessionOptions []core.Option
	// ArchiveDir, when set, opens a content-addressed run archive
	// (internal/archive) there: every run that completes (RunDone) is
	// sealed into one commit, the run record and final SSE event carry
	// the commit's Merkle-chain ID, and GET /v1/archive/{root} serves
	// the commit, its report, and its chunks for offline verification.
	ArchiveDir string
}

// execFunc executes one run: the production implementation is one
// RunPlan batch on the shared session; tests substitute controllable
// fakes. obs receives the run's event stream, sink its results.
type execFunc func(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error

// Service is the benchmark-as-a-service daemon core: run registry,
// tenant admission, fair-share scheduler and HTTP API. Create one with
// New, serve its Handler, and stop it with Shutdown.
type Service struct {
	session *core.Session
	archive *archive.Archive // nil without Config.ArchiveDir
	mux     *http.ServeMux
	exec    execFunc

	slots   int
	quantum int

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	tenants  map[string]*tenantState // by name
	byKey    map[string]*tenantState // by API key ("" = anonymous)
	ring     []*tenantState          // stable DRR visiting order
	next     int                     // ring cursor
	runs     map[string]*Run
	order    []*Run // submission order
	runSeq   int64
	startSeq int64
	running  int
	draining bool
	wg       sync.WaitGroup // one unit per running run
}

// New builds a Service: it validates the tenant set, constructs the
// shared session from cfg.SessionOptions and wires the HTTP routes.
func New(cfg Config) (*Service, error) {
	// The service is usable without the facade package, so make sure the
	// engines are registered before the first spec compiles.
	platforms.RegisterAll()
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []Tenant{{Name: "public"}}
	}
	if cfg.Slots < 1 {
		cfg.Slots = DefaultSlots
	}
	if cfg.Quantum < 1 {
		cfg.Quantum = DefaultQuantum
	}
	//graphalint:ctxbg process root: the service owns the daemon-lifetime context; every run derives from it and Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		session:    core.NewSession(cfg.SessionOptions...),
		slots:      cfg.Slots,
		quantum:    cfg.Quantum,
		baseCtx:    ctx,
		baseCancel: cancel,
		tenants:    make(map[string]*tenantState),
		byKey:      make(map[string]*tenantState),
		runs:       make(map[string]*Run),
	}
	s.exec = s.runPlanExec
	if cfg.ArchiveDir != "" {
		arch, err := archive.Open(cfg.ArchiveDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("service: %w", err)
		}
		s.archive = arch
	}
	for _, t := range cfg.Tenants {
		t.normalize()
		if t.Name == "" {
			cancel()
			return nil, fmt.Errorf("service: tenant with empty name")
		}
		if _, dup := s.tenants[t.Name]; dup {
			cancel()
			return nil, fmt.Errorf("service: duplicate tenant name %q", t.Name)
		}
		if _, dup := s.byKey[t.Key]; dup {
			cancel()
			if t.Key == "" {
				return nil, fmt.Errorf("service: more than one anonymous tenant (empty key)")
			}
			return nil, fmt.Errorf("service: duplicate tenant key")
		}
		ts := &tenantState{Tenant: t}
		s.tenants[t.Name] = ts
		s.byKey[t.Key] = ts
		s.ring = append(s.ring, ts)
	}
	s.routes()
	return s, nil
}

// Session returns the shared session every run executes on — the daemon
// uses it to pre-warm the graph store and to persist the results
// database at shutdown.
func (s *Service) Session() *core.Session { return s.session }

// Archive returns the service's run archive (nil without
// Config.ArchiveDir).
func (s *Service) Archive() *archive.Archive { return s.archive }

// runPlanExec is the production executor: one RunPlan batch on the
// shared session, with the run's event log as the batch observer and
// the run's buffering result log as an extra sink. Session-level sinks
// (the daemon's JSONL file) still receive every result —
// per-run sink scoping is exactly RunPlan's per-call option surface.
func (s *Service) runPlanExec(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error {
	_, err := s.session.RunPlan(ctx, run.plan, core.WithObserver(obs), core.WithSink(sink))
	return err
}

// Compile compiles a spec through the shared session (and therefore the
// shared graph store) without admitting a run — the dry-run surface of
// GET/POST /v1/plan.
func (s *Service) Compile(sp core.BenchSpec) (*core.Plan, error) {
	return s.session.Compile(sp)
}

// Shutdown drains the service: no new submissions are admitted, queued
// runs are marked canceled immediately, and running runs are given
// until ctx's deadline to finish before their contexts are canceled —
// the cancellation propagates through RunPlan into in-flight
// deployments, whose jobs surface as StatusCanceled. Shutdown returns
// once every run has reached a terminal state; terminal results are
// already persisted through the session's sinks as they were recorded.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for _, t := range s.ring {
		for _, run := range t.queue {
			run.state = RunCanceled
			run.finished = time.Now()
			run.errMsg = "canceled: service shutting down"
			run.appendLifecycle(eventRunFinished, RunCanceled, "")
			run.events.close()
			run.results.close()
		}
		t.queue = nil
		t.deficit = 0
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: cancel what is still running and wait it out
		// (cancellation makes RunPlan return promptly, marking in-flight
		// jobs canceled).
		s.mu.Lock()
		for _, run := range s.order {
			if run.state == RunRunning {
				run.cancelRequested = true
				run.cancel()
			}
		}
		s.mu.Unlock()
		<-done
	}
	s.baseCancel()
	return nil
}
