package service

// White-box scheduler tests: they substitute the Service's exec seam
// with controllable fakes, so dispatch order, quotas, cancellation and
// shutdown are exercised deterministically — no real benchmark work, no
// timing dependence. End-to-end tests with the real executor live in
// service_test.go.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/core"
)

// testPlan fabricates a compiled plan with n jobs in one deployment.
func testPlan(n int) *core.Plan {
	p := &core.Plan{Name: fmt.Sprintf("plan-%d", n)}
	dep := core.Deployment{Platform: "native", Dataset: "R1", Config: core.ResourceSpec{Threads: 1, Machines: 1}}
	for i := 0; i < n; i++ {
		p.Jobs = append(p.Jobs, core.JobSpec{
			Platform: "native", Dataset: "R1", Algorithm: "BFS", Threads: 1, Machines: 1,
		})
		dep.Jobs = append(dep.Jobs, i)
	}
	p.Deployments = []core.Deployment{dep}
	return p
}

// blockingExec is an exec fake that reports each run's start and blocks
// it until released (or its context is canceled). Like the real
// RunPlan, it returns nil on cancellation — outcomes live in results,
// not the error.
type blockingExec struct {
	mu      sync.Mutex
	release map[string]chan struct{}
	started chan string
}

func newBlockingExec() *blockingExec {
	return &blockingExec{
		release: make(map[string]chan struct{}),
		started: make(chan string, 64),
	}
}

func (b *blockingExec) gate(id string) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.release[id]
	if !ok {
		ch = make(chan struct{})
		b.release[id] = ch
	}
	return ch
}

func (b *blockingExec) exec(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error {
	ch := b.gate(run.ID())
	b.started <- run.ID()
	select {
	case <-ch:
	case <-ctx.Done():
	}
	return nil
}

// releaseRun unblocks a started run.
func (b *blockingExec) releaseRun(id string) { close(b.gate(id)) }

// waitStarted returns the next run id the fake exec saw start.
func waitStarted(t *testing.T, b *blockingExec) string {
	t.Helper()
	select {
	case id := <-b.started:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no run started within 5s")
		return ""
	}
}

// waitTerminal blocks until the run's event log closes (which happens
// exactly when the run reaches a terminal state) and returns that state.
func waitTerminal(t *testing.T, s *Service, run *Run) RunState {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		_, closed, updated := run.events.wait(0)
		if closed {
			s.mu.Lock()
			state := run.state
			s.mu.Unlock()
			return state
		}
		select {
		case <-updated:
		case <-deadline:
			t.Fatalf("run %s did not reach a terminal state", run.ID())
		}
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFairShareStartOrder pins the deficit-round-robin dispatch order:
// with one slot and a quantum of one job unit, a tenant that just
// dispatched a 6-job run goes 6 units into the red, so the other
// tenants' 1-job runs are served before its next run — a big sweep
// cannot starve small tenants, and the small tenants are served in ring
// order.
func TestFairShareStartOrder(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{
		Tenants: []Tenant{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb"}, {Name: "c", Key: "kc"}},
		Slots:   1,
		Quantum: 1,
	})
	s.exec = fake.exec

	submit := func(tenant string, jobs int) *Run {
		run, err := s.submit(s.tenants[tenant], &core.BenchSpec{}, testPlan(jobs))
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		return run
	}

	a1 := submit("a", 6) // empty service: accrues credit and starts at once
	if got := waitStarted(t, fake); got != a1.ID() {
		t.Fatalf("first start = %s, want %s", got, a1.ID())
	}
	b1 := submit("b", 1)
	c1 := submit("c", 1)
	a2 := submit("a", 6)

	// Release runs one at a time; each completion frees the single slot
	// and the scheduler must pick b, then c, then a's second run.
	fake.releaseRun(a1.ID())
	if got := waitStarted(t, fake); got != b1.ID() {
		t.Fatalf("second start = %s, want %s (tenant b's 1-job run)", got, b1.ID())
	}
	fake.releaseRun(b1.ID())
	if got := waitStarted(t, fake); got != c1.ID() {
		t.Fatalf("third start = %s, want %s (tenant c's 1-job run)", got, c1.ID())
	}
	fake.releaseRun(c1.ID())
	if got := waitStarted(t, fake); got != a2.ID() {
		t.Fatalf("fourth start = %s, want %s (tenant a's backlog)", got, a2.ID())
	}
	fake.releaseRun(a2.ID())

	for _, run := range []*Run{a1, b1, c1, a2} {
		if state := waitTerminal(t, s, run); state != RunDone {
			t.Fatalf("run %s finished %s, want %s", run.ID(), state, RunDone)
		}
	}
	s.mu.Lock()
	orders := []int64{a1.startOrder, b1.startOrder, c1.startOrder, a2.startOrder}
	s.mu.Unlock()
	want := []int64{1, 2, 3, 4}
	for i, o := range orders {
		if o != want[i] {
			t.Fatalf("start orders = %v, want %v", orders, want)
		}
	}
}

// TestQueueQuota verifies the bounded per-tenant queue: submissions over
// MaxQueued fail with errQueueFull while queued runs drain normally.
func TestQueueQuota(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{
		Tenants: []Tenant{{Name: "a", MaxQueued: 1}},
		Slots:   1,
		Quantum: 1,
	})
	s.exec = fake.exec
	ta := s.tenants["a"]

	r1, err := s.submit(ta, &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fake) // r1 occupies the slot
	r2, err := s.submit(ta, &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.submit(ta, &core.BenchSpec{}, testPlan(1)); err == nil {
		t.Fatal("third submit succeeded; want queue-full rejection")
	}
	fake.releaseRun(r1.ID())
	waitStarted(t, fake)
	fake.releaseRun(r2.ID())
	if state := waitTerminal(t, s, r2); state != RunDone {
		t.Fatalf("queued run finished %s, want %s", state, RunDone)
	}
}

// TestCancelQueuedRun cancels a run before it is dispatched: it must
// terminate immediately without ever starting.
func TestCancelQueuedRun(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1, Quantum: 1})
	s.exec = fake.exec
	ta := s.tenants["a"]

	r1, err := s.submit(ta, &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fake)
	r2, err := s.submit(ta, &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cancelRun(ta, r2.ID()); !ok {
		t.Fatal("cancelRun did not find the queued run")
	}
	if state := waitTerminal(t, s, r2); state != RunCanceled {
		t.Fatalf("canceled queued run finished %s, want %s", state, RunCanceled)
	}
	fake.releaseRun(r1.ID())
	if state := waitTerminal(t, s, r1); state != RunDone {
		t.Fatalf("running run finished %s, want %s", state, RunDone)
	}
	select {
	case id := <-fake.started:
		t.Fatalf("canceled run %s started anyway", id)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCancelRunningRun cancels an in-flight run: its context must be
// canceled (unblocking the executor) and the run must finalize as
// canceled, not failed.
func TestCancelRunningRun(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1, Quantum: 1})
	s.exec = fake.exec
	ta := s.tenants["a"]

	r1, err := s.submit(ta, &core.BenchSpec{}, testPlan(3))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fake)
	if _, ok := s.cancelRun(ta, r1.ID()); !ok {
		t.Fatal("cancelRun did not find the running run")
	}
	// No releaseRun: only the context cancellation can unblock the fake.
	if state := waitTerminal(t, s, r1); state != RunCanceled {
		t.Fatalf("canceled running run finished %s, want %s", state, RunCanceled)
	}
}

// TestTenantIsolation checks that run handles are tenant-scoped: another
// tenant can neither inspect nor cancel a run it does not own.
func TestTenantIsolation(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{
		Tenants: []Tenant{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb"}},
		Slots:   1,
	})
	s.exec = fake.exec

	r1, err := s.submit(s.tenants["a"], &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fake)
	if _, ok := s.lookupRun(s.tenants["b"], r1.ID()); ok {
		t.Fatal("tenant b can see tenant a's run")
	}
	if _, ok := s.cancelRun(s.tenants["b"], r1.ID()); ok {
		t.Fatal("tenant b can cancel tenant a's run")
	}
	fake.releaseRun(r1.ID())
	if state := waitTerminal(t, s, r1); state != RunDone {
		t.Fatalf("run finished %s, want %s", state, RunDone)
	}
}

// TestShutdownDrains verifies graceful shutdown: queued runs are
// canceled immediately, running runs are canceled once the drain
// deadline passes, further submissions are refused, and Shutdown only
// returns when everything is terminal.
func TestShutdownDrains(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1, Quantum: 1})
	s.exec = fake.exec
	ta := s.tenants["a"]

	r1, err := s.submit(ta, &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, fake)
	r2, err := s.submit(ta, &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}

	// An already-expired drain deadline forces the "cancel what is still
	// running" path; the fake only unblocks via context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s1, s2 := r1.state, r2.state
	s.mu.Unlock()
	if s1 != RunCanceled {
		t.Fatalf("running run drained to %s, want %s", s1, RunCanceled)
	}
	if s2 != RunCanceled {
		t.Fatalf("queued run drained to %s, want %s", s2, RunCanceled)
	}
	if _, err := s.submit(ta, &core.BenchSpec{}, testPlan(1)); err == nil {
		t.Fatal("submit succeeded after shutdown; want draining rejection")
	}
}

// TestHeldEventLogLosesNoEvents holds the run's event log lock from
// another goroutine for 50 ms while the exec emits 2 000 events: the
// emitter must wait for the lock rather than lose events, so the log
// ends with every event, in order, between the run's lifecycle records.
func TestHeldEventLogLosesNoEvents(t *testing.T) {
	const events = 2000
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1})
	s.exec = func(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error {
		held := make(chan struct{})
		go func() {
			run.events.mu.Lock()
			close(held)
			time.Sleep(50 * time.Millisecond)
			run.events.mu.Unlock()
		}()
		<-held
		for i := range events {
			obs.Observe(core.Event{Type: core.EventJobFinished, Index: i, Total: events})
		}
		return nil
	}
	run, err := s.submit(s.tenants["a"], &core.BenchSpec{}, testPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	if state := waitTerminal(t, s, run); state != RunDone {
		t.Fatalf("run finished %s, want %s", state, RunDone)
	}
	recs, _, _ := run.events.wait(0)
	if len(recs) != events+3 {
		t.Fatalf("event log holds %d records, want %d", len(recs), events+3)
	}
	for i, rec := range recs {
		want := string(core.EventJobFinished)
		switch i {
		case 0:
			want = eventRunQueued
		case 1:
			want = eventRunStarted
		case len(recs) - 1:
			want = eventRunFinished
		}
		if rec.ID != uint64(i+1) || rec.Type != want {
			t.Fatalf("record %d: id %d type %q, want id %d type %q", i, rec.ID, rec.Type, i+1, want)
		}
		if rec.Type == string(core.EventJobFinished) && rec.Index != i-2 {
			t.Fatalf("record %d carries event %d, want %d", i, rec.Index, i-2)
		}
	}
}
