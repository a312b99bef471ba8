package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"graphalytics/internal/core"
)

// This file is the scheduler in front of Session.RunPlan: admission
// (submit, bounded per-tenant queues), deficit-round-robin dispatch
// into a bounded set of run slots, run execution and finalization, and
// cancellation.
//
// Fair share, concretely: tenants are visited in a fixed ring order;
// each visit credits the tenant's deficit with the quantum (in job
// units), and the tenant at the head of the ring dispatches its oldest
// queued run once the run's job count fits its deficit, spending it.
// Dispatching a 500-job sweep leaves that tenant ~500 units in the red,
// so other tenants' runs — however many — are served first until the
// balance evens out, while a lone tenant simply accrues credit until
// its next run fits. Runs, not jobs, are the dispatch unit: a run's
// jobs still schedule inside RunPlan on the session's worker pool.

// errQueueFull rejects a submission over the tenant's queue quota; the
// HTTP layer maps it to 429 + Retry-After.
var errQueueFull = errors.New("service: tenant queue full")

// errDraining rejects submissions during shutdown (HTTP 503).
var errDraining = errors.New("service: shutting down")

// submit admits a compiled run for a tenant: quota check, registry and
// queue insertion, lifecycle event, and an immediate dispatch pass (the
// run starts right away when a slot and the tenant's quota allow).
func (s *Service) submit(t *tenantState, sp *core.BenchSpec, plan *core.Plan) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if len(t.queue) >= t.MaxQueued {
		return nil, fmt.Errorf("%w: %d queued (max %d)", errQueueFull, len(t.queue), t.MaxQueued)
	}
	s.runSeq++
	run := &Run{
		id:      fmt.Sprintf("r%06d", s.runSeq),
		tenant:  t,
		spec:    sp,
		plan:    plan,
		cost:    max(1, len(plan.Jobs)),
		state:   RunQueued,
		created: time.Now(),
		events:  newStreamLog[EventRecord](),
		results: newStreamLog[core.JobResult](),
	}
	s.runs[run.id] = run
	s.order = append(s.order, run)
	t.queue = append(t.queue, run)
	run.appendLifecycle(eventRunQueued, RunQueued, "")
	s.dispatchLocked()
	return run, nil
}

// dispatchLocked starts as many queued runs as free slots and quotas
// allow, choosing tenants by deficit round robin. Caller holds s.mu.
func (s *Service) dispatchLocked() {
	for !s.draining && s.running < s.slots {
		eligible := false
		for _, t := range s.ring {
			if t.eligible() {
				eligible = true
				break
			}
		}
		if !eligible {
			return
		}
		// Walk the ring, crediting one quantum per visit, until a
		// tenant's head run fits its deficit. This terminates: at least
		// one tenant is eligible, eligibility cannot change while the
		// lock is held, and its deficit grows every lap.
		for {
			t := s.ring[s.next%len(s.ring)]
			s.next++
			if !t.eligible() {
				continue
			}
			t.deficit += s.quantum
			if t.queue[0].cost > t.deficit {
				continue
			}
			run := t.pop()
			t.deficit -= run.cost
			if len(t.queue) == 0 {
				// Classic DRR: an emptied queue forfeits its balance, so
				// idle tenants cannot hoard credit.
				t.deficit = 0
			}
			s.startLocked(t, run)
			break
		}
	}
}

// startLocked transitions a dequeued run to running and launches its
// executor goroutine. Caller holds s.mu.
func (s *Service) startLocked(t *tenantState, run *Run) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.startSeq++
	run.state = RunRunning
	run.started = time.Now()
	run.startOrder = s.startSeq
	run.cancel = cancel
	t.running++
	s.running++
	s.wg.Add(1)
	run.appendLifecycle(eventRunStarted, RunRunning, "")
	go s.execute(ctx, run)
}

// execute runs one dispatched run to completion: the session's events
// and results are appended to the run's streaming logs as they are
// emitted, and finalization frees the slot and re-dispatches.
func (s *Service) execute(ctx context.Context, run *Run) {
	defer s.wg.Done()
	sink := core.Sink(core.SinkFunc(func(r core.JobResult) error {
		run.results.append(func(int) core.JobResult { return r })
		return nil
	}))
	var asink *core.ArchiveSink
	if s.archive != nil {
		// The archive sink only buffers; the run is sealed below, after
		// exec has returned and the result stream holds every result, so
		// a client can never observe an archived result the stream has
		// not served.
		asink = core.NewArchiveSink(s.archive, run.id+"/"+run.plan.Name, run.spec)
		sink = core.MultiSink(sink, asink)
	}
	// Every event is in the log once exec returns, so the terminal record
	// appended below is the stream's last.
	err := s.exec(ctx, run, core.ObserverFunc(run.appendCoreEvent), sink)

	// Seal completed runs into the archive before finalizing, outside the
	// service mutex (commits hash and write files). The pre-lock guard
	// mirrors the RunDone case below: a canceled run (cancelRun and
	// Shutdown both cancel ctx) or a failed one is never committed, so
	// the archive only ever holds runs whose results are complete.
	var root string
	var archiveErr error
	if asink != nil && ctx.Err() == nil && (err == nil || core.SinkOnly(err)) {
		root, archiveErr = asink.Commit()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case run.cancelRequested || ctx.Err() != nil:
		// Cancellation wins over any error the cancel itself provoked;
		// RunPlan has already marked the in-flight jobs StatusCanceled.
		run.state = RunCanceled
		if run.errMsg == "" {
			run.errMsg = "canceled"
		}
	case err != nil && !core.SinkOnly(err):
		run.state = RunFailed
		run.errMsg = err.Error()
	default:
		run.state = RunDone
		run.archiveRoot = root
		if err != nil {
			// Sink-only errors: the run's own work is intact, a
			// daemon-level sink rejected a result. Surface, don't fail.
			run.errMsg = err.Error()
		}
		if archiveErr != nil {
			// The run's results are intact and streamed; only sealing
			// them failed. Surface like a sink error, don't fail the run.
			if run.errMsg != "" {
				run.errMsg += "; "
			}
			run.errMsg += archiveErr.Error()
		}
	}
	run.finished = time.Now()
	run.cancel()
	run.appendLifecycle(eventRunFinished, run.state, run.archiveRoot)
	run.events.close()
	run.results.close()
	run.tenant.running--
	s.running--
	s.dispatchLocked()
}

// cancelRun implements DELETE /v1/runs/{id} for a tenant's own run: a
// queued run is removed and terminally canceled on the spot; a running
// run has its context canceled, which propagates through RunPlan into
// in-flight deployments (their jobs finish as StatusCanceled) — the
// executor goroutine then finalizes the state. Terminal runs are
// untouched. Reports whether the run exists and belongs to t.
func (s *Service) cancelRun(t *tenantState, id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok || run.tenant != t {
		return nil, false
	}
	switch run.state {
	case RunQueued:
		run.tenant.remove(run)
		run.state = RunCanceled
		run.finished = time.Now()
		run.errMsg = "canceled before start"
		run.appendLifecycle(eventRunFinished, RunCanceled, "")
		run.events.close()
		run.results.close()
	case RunRunning:
		run.cancelRequested = true
		run.cancel()
	}
	return run, true
}

// lookupRun resolves a tenant-scoped run handle.
func (s *Service) lookupRun(t *tenantState, id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok || run.tenant != t {
		return nil, false
	}
	return run, true
}

// tenantRuns snapshots the records of a tenant's runs in submission
// order.
func (s *Service) tenantRuns(t *tenantState) []RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunRecord, 0, 8)
	for _, run := range s.order {
		if run.tenant == t {
			out = append(out, run.recordLocked())
		}
	}
	return out
}
