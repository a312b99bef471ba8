package service

import (
	"sync"
	"time"

	"graphalytics/internal/core"
)

// RunState is the lifecycle state of a submitted run.
type RunState string

// The run lifecycle: queued → running → one of the terminal states.
const (
	RunQueued   RunState = "queued"
	RunRunning  RunState = "running"
	RunDone     RunState = "done"     // the plan executed; per-job outcomes are in the results
	RunFailed   RunState = "failed"   // a harness-level error aborted the plan
	RunCanceled RunState = "canceled" // canceled by DELETE, or drained at shutdown
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunDone || s == RunFailed || s == RunCanceled
}

// Run is one submitted benchmark run: a validated spec compiled to a
// plan, owned by a tenant, moving through the queued → running →
// terminal lifecycle. Its event log and result log are the buffers the
// SSE and JSONL streaming endpoints serve from — both are append-only
// and gap-free, so a disconnected client can resume exactly where it
// left off. Mutable scheduling state (state, timestamps, cancel) is
// guarded by the service mutex; the logs have their own locks.
type Run struct {
	id     string
	tenant *tenantState
	spec   *core.BenchSpec
	plan   *core.Plan
	// cost is the run's deficit-round-robin charge: its job count, with
	// empty plans charged 1 so they still consume a scheduling turn.
	cost int

	// Guarded by the service mutex.
	state           RunState
	created         time.Time
	started         time.Time
	finished        time.Time
	startOrder      int64 // global dispatch sequence; 0 until dispatched
	cancel          func()
	cancelRequested bool
	errMsg          string
	// archiveRoot is the archive commit ID sealing this run's results
	// ("" until a completed run is committed, or with no archive).
	archiveRoot string

	events  *streamLog[EventRecord]
	results *streamLog[core.JobResult]
}

// ID returns the run's handle.
func (r *Run) ID() string { return r.id }

// Plan returns the run's compiled plan.
func (r *Run) Plan() *core.Plan { return r.plan }

// Results returns the results recorded so far, in plan commit order, as
// a read-only view of the run's result log.
func (r *Run) Results() []core.JobResult {
	snap, _, _ := r.results.wait(0)
	return snap
}

// EventRecord is one entry of a run's event log — the wire form of the
// SSE stream and the projection of a core.Event plus the run lifecycle
// markers the service adds. ID is the per-run SSE id: 1-based, gap-free,
// in delivery order, so `Last-Event-ID: n` resumes at exactly n+1. Seq
// carries the session-wide sequence stamped by core.Session.emit (zero
// on lifecycle records, which the service emits itself).
type EventRecord struct {
	ID   uint64    `json:"id"`
	Seq  uint64    `json:"seq,omitempty"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	Run  string    `json:"run"`

	// Lifecycle records ("run-queued", "run-started", "run-finished").
	State RunState `json:"state,omitempty"`
	// ArchiveRoot is, on the final record of a completed run, the
	// archive commit ID sealing its results — the Merkle root chain
	// handle to verify the published results against, servable via
	// GET /v1/archive/{root}.
	ArchiveRoot string `json:"archive_root,omitempty"`

	// Job events.
	Index      int             `json:"index,omitempty"`
	Total      int             `json:"total,omitempty"`
	Platform   string          `json:"platform,omitempty"`
	Dataset    string          `json:"dataset,omitempty"`
	Algorithm  string          `json:"algorithm,omitempty"`
	Status     string          `json:"status,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     *core.JobResult `json:"result,omitempty"`
	Elapsed    time.Duration   `json:"elapsed,omitempty"`
	Source     string          `json:"source,omitempty"`
	Bytes      int64           `json:"bytes,omitempty"`
	Experiment string          `json:"experiment,omitempty"`
}

// The lifecycle event types the service adds around the core stream.
const (
	eventRunQueued   = "run-queued"
	eventRunStarted  = "run-started"
	eventRunFinished = "run-finished"
)

// appendCoreEvent projects a core session event into the run's event
// log. It is the run's core.Observer: the session calls it on its
// serialized emit path, so appends arrive in Seq order and none is lost.
func (r *Run) appendCoreEvent(e core.Event) {
	rec := EventRecord{
		Seq:        e.Seq,
		Time:       e.Time,
		Type:       string(e.Type),
		Run:        r.id,
		Index:      e.Index,
		Total:      e.Total,
		Platform:   e.Spec.Platform,
		Dataset:    e.Dataset,
		Algorithm:  string(e.Spec.Algorithm),
		Elapsed:    e.Elapsed,
		Source:     e.Source,
		Bytes:      e.Bytes,
		Experiment: e.Experiment,
	}
	if e.Spec.Dataset != "" {
		rec.Dataset = e.Spec.Dataset
	}
	if e.Err != nil {
		rec.Error = e.Err.Error()
	}
	if e.Result != nil {
		res := *e.Result // copy: the event's pointer is reused by the session
		rec.Result = &res
		rec.Status = string(res.Status)
		if rec.Error == "" {
			rec.Error = res.Error
		}
	}
	r.events.append(func(id int) EventRecord {
		rec.ID = uint64(id)
		return rec
	})
}

// appendLifecycle appends a run lifecycle marker to the event log; root
// carries the archive commit ID on a completed run's final record.
func (r *Run) appendLifecycle(typ string, state RunState, root string) {
	r.events.append(func(id int) EventRecord {
		return EventRecord{
			ID:          uint64(id),
			Time:        time.Now(),
			Type:        typ,
			Run:         r.id,
			State:       state,
			ArchiveRoot: root,
		}
	})
}

// RunRecord is the wire form of a run's status — the body of
// GET /v1/runs/{id} and the submit response.
type RunRecord struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Name     string     `json:"name"`
	State    RunState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// StartOrder is the global dispatch sequence: run N was the Nth run
	// the scheduler started, across all tenants. Zero until dispatched.
	StartOrder int64 `json:"start_order,omitempty"`

	// Plan shape.
	Jobs        int `json:"jobs"`
	Deployments int `json:"deployments"`

	// Progress: results recorded so far, by status.
	Results  int            `json:"results"`
	Statuses map[string]int `json:"statuses,omitempty"`

	Error string `json:"error,omitempty"`
	// ArchiveRoot is the archive commit ID sealing a completed run's
	// results (empty until done, or when the daemon runs without an
	// archive).
	ArchiveRoot string `json:"archive_root,omitempty"`
}

// recordLocked builds the wire view; the caller holds the service mutex.
func (r *Run) recordLocked() RunRecord {
	rec := RunRecord{
		ID:          r.id,
		Tenant:      r.tenant.Name,
		Name:        r.plan.Name,
		State:       r.state,
		Created:     r.created,
		StartOrder:  r.startOrder,
		Jobs:        len(r.plan.Jobs),
		Deployments: len(r.plan.Deployments),
		Error:       r.errMsg,
		ArchiveRoot: r.archiveRoot,
	}
	if !r.started.IsZero() {
		t := r.started
		rec.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		rec.Finished = &t
	}
	results := r.Results()
	rec.Results = len(results)
	if len(results) > 0 {
		rec.Statuses = make(map[string]int)
		for _, res := range results {
			rec.Statuses[string(res.Status)]++
		}
	}
	return rec
}

// streamLog is an append-only, closable log with broadcast wakeups — the
// shared shape of a run's event log and result log. Readers take a view
// of a suffix and receive a channel that is closed on the next change,
// so a streaming handler can wait for more items or the log's close
// without polling, and a reconnecting client can resume from any index
// with no gaps and no duplicates.
type streamLog[T any] struct {
	mu      sync.Mutex
	items   []T
	closed  bool
	updated chan struct{}
}

func newStreamLog[T any]() *streamLog[T] {
	return &streamLog[T]{updated: make(chan struct{})}
}

// append adds make(len+1) to the log; the 1-based index passed to make
// is the new item's id. Appends after close are dropped.
func (l *streamLog[T]) append(make_ func(id int) T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.items = append(l.items, make_(len(l.items)+1))
	l.broadcastLocked()
}

// close marks the log complete and wakes all waiters.
func (l *streamLog[T]) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.broadcastLocked()
}

func (l *streamLog[T]) broadcastLocked() {
	close(l.updated)
	l.updated = make(chan struct{})
}

// wait returns the items after index `from` (0-based count already
// consumed), whether the log is closed, and a channel closed on the next
// change — the select loop of every streaming handler. The items are a
// read-only view capped at the current length, not a copy: the log only
// ever appends, so no item below that length is written again, and a
// reader holding the view never holds the lock the run's emit path
// appends under.
func (l *streamLog[T]) wait(from int) (items []T, closed bool, updated <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); from < n {
		items = l.items[from:n:n]
	}
	return items, l.closed, l.updated
}
