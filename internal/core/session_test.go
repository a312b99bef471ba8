package core_test

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// batchSpecs is a mixed 18-job matrix with deterministic statuses: OK
// jobs across two platforms and datasets, an unsupported job and an OOM
// job.
func batchSpecs() []core.JobSpec {
	var specs []core.JobSpec
	for rep := 0; rep < 2; rep++ {
		for _, p := range []string{"native", "spmv-s"} {
			for _, ds := range []string{"R1", "R2"} {
				for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
					specs = append(specs, core.JobSpec{Platform: p, Dataset: ds, Algorithm: a, Threads: 2, Machines: 1})
				}
			}
		}
	}
	// Deterministic failure modes mixed into the batch.
	specs = append(specs,
		core.JobSpec{Platform: "pushpull", Dataset: "R4", Algorithm: algorithms.LCC, Threads: 1, Machines: 1},
		core.JobSpec{Platform: "native", Dataset: "R4", Algorithm: algorithms.BFS, Threads: 1, Machines: 1, MemoryPerMachine: 1024},
	)
	return specs
}

// runBatch runs specs through RunAll and returns what the session's sink
// was delivered next to what the call returned.
func runBatch(t *testing.T, parallelism int, specs []core.JobSpec) (delivered, results []core.JobResult) {
	t.Helper()
	s := core.NewSession(
		core.WithSLA(2*time.Minute),
		core.WithParallelism(parallelism),
		core.WithSink(collectSink(&delivered)),
	)
	results, err := s.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i := range results {
		if results[i].Spec != specs[i] {
			t.Fatalf("result %d out of order: got %+v, want %+v", i, results[i].Spec, specs[i])
		}
	}
	return delivered, results
}

// TestRunAllDeterministicOrder runs the same >=16-job batch sequentially
// and with an 8-worker pool and asserts the streams delivered to the sink
// are identical modulo measured times: same specs, same statuses, same
// order.
func TestRunAllDeterministicOrder(t *testing.T) {
	specs := batchSpecs()
	if len(specs) < 16 {
		t.Fatalf("batch has %d jobs, want >= 16", len(specs))
	}
	seqAll, seq := runBatch(t, 1, specs)
	parAll, par := runBatch(t, 8, specs)

	if len(seqAll) != len(specs) || len(parAll) != len(specs) {
		t.Fatalf("sink deliveries: sequential %d, parallel %d, want %d each", len(seqAll), len(parAll), len(specs))
	}
	for i := range seqAll {
		if seqAll[i].Spec != parAll[i].Spec {
			t.Errorf("delivery %d: spec %+v vs %+v", i, seqAll[i].Spec, parAll[i].Spec)
		}
		if seqAll[i].Status != parAll[i].Status {
			t.Errorf("delivery %d (%+v): status %s vs %s", i, seqAll[i].Spec, seqAll[i].Status, parAll[i].Status)
		}
	}
	for i := range seq {
		if seq[i].Status != par[i].Status {
			t.Errorf("result %d: status %s vs %s", i, seq[i].Status, par[i].Status)
		}
		if !seq[i].Status.Terminal() {
			t.Errorf("result %d: non-terminal status %q", i, seq[i].Status)
		}
	}
	// The deterministic failure modes must classify identically too.
	n := len(specs)
	if got := par[n-2].Status; got != core.StatusUnsupported {
		t.Errorf("unsupported job: status %s", got)
	}
	if got := par[n-1].Status; got != core.StatusOOM {
		t.Errorf("oom job: status %s", got)
	}
}

// TestRunAllCancellation cancels the batch context from inside the
// observer as soon as the first job finishes, then checks that every spec
// still gets a result in order, finished jobs keep their status, and jobs
// that never started are marked canceled.
func TestRunAllCancellation(t *testing.T) {
	var specs []core.JobSpec
	for i := 0; i < 16; i++ {
		ds := "R1"
		if i%2 == 1 {
			ds = "R2"
		}
		specs = append(specs, core.JobSpec{Platform: "native", Dataset: ds, Algorithm: algorithms.PR, Threads: 1, Machines: 1})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	obs := core.ObserverFunc(func(e core.Event) {
		if e.Type == core.EventJobFinished {
			once.Do(cancel)
		}
	})
	var delivered []core.JobResult
	s := core.NewSession(
		core.WithSLA(2*time.Minute),
		core.WithParallelism(2),
		core.WithObserver(obs),
		core.WithSink(collectSink(&delivered)),
	)
	results, err := s.RunAll(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}

	canceled, finished := 0, 0
	for i, res := range results {
		if res.Spec != specs[i] {
			t.Fatalf("result %d out of order after cancellation", i)
		}
		if !res.Status.Terminal() {
			t.Fatalf("result %d: non-terminal status %q", i, res.Status)
		}
		switch res.Status {
		case core.StatusCanceled:
			canceled++
		default:
			finished++
		}
	}
	// With 2 workers, at most the in-flight jobs (plus the one that
	// triggered cancellation) can complete; everything else must be
	// canceled before starting.
	if canceled < 10 {
		t.Errorf("only %d/%d jobs canceled; cancellation did not propagate", canceled, len(specs))
	}
	if finished < 1 {
		t.Error("the job that triggered cancellation should have finished")
	}
	// Every result — canceled included — reaches the sinks.
	if len(delivered) != len(specs) {
		t.Errorf("sink saw %d results, want %d", len(delivered), len(specs))
	}
}

// TestParentDeadlineIsCanceledNotSLABreak runs a job under a caller
// context whose deadline has already expired: the job must be reported
// canceled, not misclassified as an SLA break of the job itself.
func TestParentDeadlineIsCanceledNotSLABreak(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s := core.NewSession(core.WithSLA(2 * time.Minute))
	res, err := s.RunJob(ctx, core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusCanceled {
		t.Fatalf("status %s (%s), want canceled for an expired caller deadline", res.Status, res.Error)
	}
}

// cancelingPlatform cancels the caller's context right after a
// successful execution, modeling a cancel that lands between execute and
// validation.
type cancelingPlatform struct {
	platform.Platform
	cancel context.CancelFunc
}

func (p *cancelingPlatform) Name() string { return "cancel-after-exec" }

func (p *cancelingPlatform) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, params algorithms.Params) (*platform.Result, error) {
	res, err := p.Platform.Execute(ctx, up, a, params)
	if p.cancel != nil {
		p.cancel()
	}
	return res, err
}

var (
	cancelAfterExec     *cancelingPlatform
	cancelAfterExecOnce sync.Once
)

// TestLateCancelKeepsFinishedJob: a job whose execution finished before
// the cancel landed must keep its StatusOK result — validation uses the
// cached reference instead of discarding the measurement.
func TestLateCancelKeepsFinishedJob(t *testing.T) {
	cancelAfterExecOnce.Do(func() {
		base, err := platform.Get("native")
		if err != nil {
			t.Fatal(err)
		}
		cancelAfterExec = &cancelingPlatform{Platform: base}
		platform.Register(cancelAfterExec)
	})
	s := core.NewSession(core.WithSLA(2 * time.Minute))
	// Warm the session's reference cache for the pair.
	if _, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAfterExec.cancel = cancel
	res, err := s.RunJob(ctx, core.JobSpec{
		Platform: "cancel-after-exec", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusOK {
		t.Fatalf("status %s (%s), want ok: a finished job must survive a late cancel", res.Status, res.Error)
	}
	if !res.Validated || !res.ValidationOK {
		t.Fatal("finished job should still be validated against the cached reference")
	}
}

// slowUploadPlatform delays upload to push it over a tiny SLA.
type slowUploadPlatform struct {
	platform.Platform
	delay time.Duration
}

func (p *slowUploadPlatform) Name() string { return "slow-upload" }

func (p *slowUploadPlatform) Upload(g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	time.Sleep(p.delay)
	return p.Platform.Upload(g, cfg)
}

var slowUploadOnce sync.Once

// TestUploadInsideSLAWindow verifies the SLA window opens before upload: a
// pathological upload alone must produce an SLA break.
func TestUploadInsideSLAWindow(t *testing.T) {
	slowUploadOnce.Do(func() {
		base, err := platform.Get("native")
		if err != nil {
			t.Fatal(err)
		}
		platform.Register(&slowUploadPlatform{Platform: base, delay: 100 * time.Millisecond})
	})
	s := core.NewSession()
	res, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: "slow-upload", Dataset: "R1", Algorithm: algorithms.BFS,
		Threads: 1, Machines: 1, SLA: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSLABreak {
		t.Fatalf("status %s (%s), want sla-break from upload alone", res.Status, res.Error)
	}
	if res.UploadTime < 20*time.Millisecond {
		t.Fatalf("upload time %v should exceed the 20ms SLA", res.UploadTime)
	}
}

// TestSessionOptions covers the functional options' observable behavior.
func TestSessionOptions(t *testing.T) {
	var delivered []core.JobResult
	s := core.NewSession(core.WithValidation(false), core.WithSink(collectSink(&delivered)), core.WithSLA(2*time.Minute))
	res, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusOK {
		t.Fatalf("status %s (%s)", res.Status, res.Error)
	}
	if res.Validated {
		t.Error("WithValidation(false) should skip validation")
	}
	if len(delivered) != 1 || delivered[0].Spec != res.Spec {
		t.Error("WithSink should deliver the job's result to the sink")
	}
}

// TestSessionEventStream checks the observer protocol: one started and
// one finished event per job, bracketed by experiment phase events when
// an experiment runs.
func TestSessionEventStream(t *testing.T) {
	var mu sync.Mutex
	var events []core.Event
	obs := core.ObserverFunc(func(e core.Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, e)
	})
	s := core.NewSession(
		core.WithSLA(2*time.Minute),
		core.WithParallelism(4),
		core.WithObserver(obs),
	)
	if _, err := s.RunExperiment(context.Background(), "table8", core.ExperimentConfig{
		Platforms: []string{"native", "spmv-s"}, Threads: 2,
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	started, finished := 0, 0
	for _, e := range events {
		switch e.Type {
		case core.EventJobStarted:
			started++
		case core.EventJobFinished:
			finished++
			if e.Result == nil {
				t.Error("job-finished event without a result")
			}
			if e.Total != 2 {
				t.Errorf("job event total = %d, want 2", e.Total)
			}
		}
	}
	if started != 2 || finished != 2 {
		t.Fatalf("got %d started / %d finished events, want 2/2", started, finished)
	}
	if len(events) < 4 {
		t.Fatalf("too few events: %d", len(events))
	}
	if events[0].Type != core.EventExperimentStarted || events[0].Experiment != "table8" {
		t.Errorf("first event %+v, want experiment-started table8", events[0])
	}
	if last := events[len(events)-1]; last.Type != core.EventExperimentFinished || last.Experiment != "table8" {
		t.Errorf("last event %+v, want experiment-finished table8", last)
	}
}

// TestStatusHelpers covers the Terminal and String helpers.
func TestStatusHelpers(t *testing.T) {
	for _, s := range []core.Status{
		core.StatusOK, core.StatusSLABreak, core.StatusOOM, core.StatusFailed,
		core.StatusUnsupported, core.StatusInvalid, core.StatusCanceled,
	} {
		if !s.Terminal() {
			t.Errorf("%s should be terminal", s)
		}
		if s.String() == "" {
			t.Errorf("%v has an empty string form", s)
		}
	}
	if core.Status("").Terminal() {
		t.Error("the zero status is not terminal")
	}
	if got := core.StatusInvalid.String(); got != "invalid-output" {
		t.Errorf("StatusInvalid.String() = %q", got)
	}
}

// TestWithReferenceParallelism pins the reference kernels' worker count
// and checks validation still passes: reference outputs are defined to be
// worker-count-independent, so a pinned pool must validate identically to
// automatic sizing.
func TestWithReferenceParallelism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := core.NewSession(core.WithReferenceParallelism(workers))
		res, err := s.RunJob(context.Background(), core.JobSpec{
			Platform: "native", Dataset: "R1", Algorithm: algorithms.PR, Threads: 2, Machines: 1,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Status != core.StatusOK || !res.Validated || !res.ValidationOK {
			t.Fatalf("workers=%d: status=%s validated=%v ok=%v (%s)",
				workers, res.Status, res.Validated, res.ValidationOK, res.Error)
		}
	}
}

// TestSessionHostGoroutinesBounded runs a plan with eight RunPlan workers
// and eight reference workers on a four-core host and samples the
// process's goroutines throughout: every parallel region — the engines'
// simulated threads and the reference kernels' par.Chunks calls — borrows
// from par's one pool, so beyond a warm baseline the run never adds more
// than its workers, GOMAXPROCS−1 helpers and the fixed goroutines below.
func TestSessionHostGoroutinesBounded(t *testing.T) {
	const procs, parallelism = 4, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	plan, err := core.CompileSpec(core.BenchSpec{
		Name:       "goroutines",
		Platforms:  []string{"native", "spmv-s", "pregel"},
		Datasets:   core.DatasetSelector{IDs: []string{"R1", "R2", "R3", "R4"}},
		Algorithms: algorithms.All,
		Configs:    []core.ResourceSpec{{Threads: 4, Machines: 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		// A new session each time, so its reference cache is cold and
		// every reference kernel runs again.
		s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(parallelism), core.WithReferenceParallelism(parallelism))
		results, err := s.RunPlan(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Status != core.StatusOK && res.Status != core.StatusUnsupported {
				t.Fatalf("%s on %s: status %s (%s)", res.Spec.Algorithm, res.Spec.Dataset, res.Status, res.Error)
			}
		}
	}
	run() // warm-up: loads the graphs and starts the pool's helpers
	baseline := runtime.NumGoroutine()
	// The fixed goroutines the baseline does not hold: this sampler, and
	// nothing of the session's — it has no BufferedObserver to drain, and
	// no SLA timer fires under a two-minute SLA. RunPlan's caller, this
	// test's goroutine, is in the baseline.
	const fixed = 1
	var peak atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	run()
	close(stop)
	<-done
	workers := min(parallelism, len(plan.Deployments))
	if extra, bound := int(peak.Load())-baseline, workers+procs-1+fixed; extra > bound {
		t.Fatalf("the run added up to %d goroutines to a baseline of %d, want at most %d (%d RunPlan workers, %d helpers, %d fixed)",
			extra, baseline, bound, workers, procs-1, fixed)
	}
}
