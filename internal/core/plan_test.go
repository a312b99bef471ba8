package core_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// countingPlatform wraps an engine and counts uploads and frees, to pin
// RunPlan's one-upload-per-deployment and free-exactly-once contracts.
type countingPlatform struct {
	platform.Platform
	name    string
	uploads atomic.Int64
	frees   atomic.Int64
	// delay slows the execute phase down so cancellation tests can land
	// mid-group.
	delay time.Duration
}

func (c *countingPlatform) Name() string { return c.name }

type countingUpload struct {
	platform.Uploaded
	c *countingPlatform
}

func (u *countingUpload) Free() {
	u.c.frees.Add(1)
	u.Uploaded.Free()
}

func (c *countingPlatform) Upload(g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	up, err := c.Platform.Upload(g, cfg)
	if err != nil {
		return nil, err
	}
	c.uploads.Add(1)
	return &countingUpload{Uploaded: up, c: c}, nil
}

func (c *countingPlatform) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	u, ok := up.(*countingUpload)
	if !ok {
		return nil, fmt.Errorf("countingPlatform: foreign upload handle %T", up)
	}
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.Platform.Execute(ctx, u.Uploaded, a, p)
}

var (
	countingMu  sync.Mutex
	countingReg = map[string]*countingPlatform{}
)

// registerCounting registers (once) and resets a named counting platform.
func registerCounting(t *testing.T, name string, delay time.Duration) *countingPlatform {
	t.Helper()
	countingMu.Lock()
	defer countingMu.Unlock()
	c, ok := countingReg[name]
	if !ok {
		base, err := platform.Get("native")
		if err != nil {
			t.Fatal(err)
		}
		c = &countingPlatform{Platform: base, name: name}
		platform.Register(c)
		countingReg[name] = c
	}
	c.uploads.Store(0)
	c.frees.Store(0)
	c.delay = delay
	return c
}

// sweepPlan compiles the canonical 5-algorithm sweep: 1 platform x 1
// dataset x 5 algorithms (the acceptance matrix of the redesign).
func sweepPlan(t *testing.T, platformName string) *core.Plan {
	t.Helper()
	plan, err := core.CompileSpec(core.BenchSpec{
		Name:       "sweep",
		Platforms:  []string{platformName},
		Datasets:   core.DatasetSelector{IDs: []string{"R1"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC},
		Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}},
		SLA:        core.Duration(2 * time.Minute),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRunPlanSingleUploadPerDeployment is the acceptance check of the
// redesign: an algorithm-sweep plan (1 platform x 1 dataset x 5
// algorithms) performs exactly one Upload, frees it exactly once, and
// every job after the first carries the shared-upload flag with the
// group's real upload time.
func TestRunPlanSingleUploadPerDeployment(t *testing.T) {
	c := registerCounting(t, "counting", 0)
	plan := sweepPlan(t, "counting")
	if len(plan.Deployments) != 1 || len(plan.Jobs) != 5 {
		t.Fatalf("unexpected plan shape: %d jobs, %d deployments", len(plan.Jobs), len(plan.Deployments))
	}
	var uploadedEvents atomic.Int64
	var delivered []core.JobResult
	s := core.NewSession(core.WithParallelism(4), core.WithSink(collectSink(&delivered)), core.WithObserver(core.ObserverFunc(func(e core.Event) {
		if e.Type == core.EventDeploymentUploaded {
			uploadedEvents.Add(1)
		}
	})))
	results, err := s.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.uploads.Load(); got != 1 {
		t.Fatalf("5-algorithm sweep performed %d uploads, want exactly 1", got)
	}
	if got := c.frees.Load(); got != 1 {
		t.Fatalf("upload freed %d times, want exactly 1", got)
	}
	if got := uploadedEvents.Load(); got != 1 {
		t.Fatalf("got %d deployment-uploaded events, want 1", got)
	}
	sharedCount := 0
	for i, res := range results {
		if res.Status != core.StatusOK {
			t.Fatalf("job %d: status %s (%s)", i, res.Status, res.Error)
		}
		if res.UploadShared {
			sharedCount++
		}
		if res.UploadTime != results[0].UploadTime {
			t.Errorf("job %d upload time %v differs from the group's %v", i, res.UploadTime, results[0].UploadTime)
		}
	}
	if sharedCount != len(results)-1 {
		t.Fatalf("%d of %d jobs marked shared, want all but one", sharedCount, len(results))
	}
	// The sink was delivered every job in plan order.
	if len(delivered) != len(plan.Jobs) {
		t.Fatalf("sink saw %d results, want %d", len(delivered), len(plan.Jobs))
	}
	for i := range delivered {
		if delivered[i].Spec != plan.Jobs[i] {
			t.Errorf("delivery %d out of plan order", i)
		}
	}
}

// sameOutcomes requires two result lists to agree job by job on spec,
// status and validation outcome (the timing fields are measurements and
// may differ).
func sameOutcomes(t *testing.T, label string, got, want []core.JobResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Spec != want[i].Spec {
			t.Errorf("%s job %d: spec %+v, want %+v", label, i, got[i].Spec, want[i].Spec)
		}
		if got[i].Status != want[i].Status {
			t.Errorf("%s job %d (%s/%s/%s): status %s, per-job-upload status %s",
				label, i, got[i].Spec.Platform, got[i].Spec.Dataset, got[i].Spec.Algorithm,
				got[i].Status, want[i].Status)
		}
		if got[i].Validated != want[i].Validated || got[i].ValidationOK != want[i].ValidationOK {
			t.Errorf("%s job %d: validation (%v,%v) vs (%v,%v)", label, i,
				got[i].Validated, got[i].ValidationOK, want[i].Validated, want[i].ValidationOK)
		}
	}
}

// TestRunPlanMatchesPerJobUploads runs the same jobs through RunPlan
// (one upload per deployment) and through RunAll (one upload per job) at
// worker counts 1, 2 and 8 and requires identical statuses and validation
// outcomes. Validation against the single-flighted reference already pins
// output correctness; TestSharedUploadOutputsBitIdentical pins raw output
// equality engine by engine.
func TestRunPlanMatchesPerJobUploads(t *testing.T) {
	spec := core.BenchSpec{
		Name:      "equiv",
		Platforms: []string{"native", "spmv-s"},
		Datasets:  core.DatasetSelector{IDs: []string{"R1", "R2"}},
		Algorithms: []algorithms.Algorithm{
			algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.SSSP,
		},
		Configs: []core.ResourceSpec{{Threads: 2, Machines: 1}},
		SLA:     core.Duration(2 * time.Minute),
	}
	plan, err := core.CompileSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", workers)
		perJob, err := core.NewSession(core.WithParallelism(workers)).RunAll(context.Background(), plan.Jobs)
		if err != nil {
			t.Fatalf("%s RunAll: %v", label, err)
		}
		shared, err := core.NewSession(core.WithParallelism(workers)).RunPlan(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s RunPlan: %v", label, err)
		}
		sameOutcomes(t, label, shared, perJob)
		for i, res := range perJob {
			if res.UploadShared {
				t.Errorf("%s job %d: RunAll result marked as sharing an upload", label, i)
			}
		}
	}
}

// TestRunPlanFreeOnceOnCancellation cancels a batch after its first job
// finishes — mid-group for RunPlan, mid-batch for RunAll — at worker
// counts 1, 2 and 8 and checks the leases still drain: every performed
// upload is freed exactly once, jobs that never started are canceled, and
// nothing deadlocks. The plan has more jobs than the largest pool, so
// some job is always still waiting when the cancellation lands.
func TestRunPlanFreeOnceOnCancellation(t *testing.T) {
	c := registerCounting(t, "counting-slow", 30*time.Millisecond)
	plan, err := core.CompileSpec(core.BenchSpec{
		Name:       "cancel",
		Platforms:  []string{"counting-slow"},
		Datasets:   core.DatasetSelector{IDs: []string{"R1", "R2"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC},
		Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, perJob := range []bool{false, true} {
			c.uploads.Store(0)
			c.frees.Store(0)
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			s := core.NewSession(
				core.WithParallelism(workers),
				core.WithValidation(false),
				core.WithObserver(core.ObserverFunc(func(e core.Event) {
					if e.Type == core.EventJobFinished {
						once.Do(cancel)
					}
				})),
			)
			var results []core.JobResult
			label := fmt.Sprintf("workers=%d RunPlan", workers)
			maxUploads := len(plan.Deployments)
			if perJob {
				label = fmt.Sprintf("workers=%d RunAll", workers)
				maxUploads = len(plan.Jobs) - 1
				results, err = s.RunAll(ctx, plan.Jobs)
			} else {
				results, err = s.RunPlan(ctx, plan)
			}
			cancel()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			uploads, frees := c.uploads.Load(), c.frees.Load()
			if uploads < 1 || uploads > int64(maxUploads) {
				t.Errorf("%s: %d uploads, want 1..%d", label, uploads, maxUploads)
			}
			if frees != uploads {
				t.Errorf("%s: %d uploads but %d frees on cancellation", label, uploads, frees)
			}
			canceled := 0
			for i, res := range results {
				if !res.Status.Terminal() {
					t.Fatalf("%s job %d: non-terminal status %q", label, i, res.Status)
				}
				if res.Status == core.StatusCanceled {
					canceled++
				}
			}
			if canceled == 0 {
				t.Errorf("%s: cancellation after the first job should cancel at least one job", label)
			}
		}
	}
}

// TestRunPlanAllCancelledBeforeUpload cancels before the plan starts: no
// upload is performed, so no free may run either.
func TestRunPlanAllCancelledBeforeUpload(t *testing.T) {
	c := registerCounting(t, "counting", 0)
	plan := sweepPlan(t, "counting")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := core.NewSession(core.WithParallelism(2))
	results, err := s.RunPlan(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Status != core.StatusCanceled {
			t.Fatalf("job %d: status %s, want canceled", i, res.Status)
		}
	}
	if got := c.uploads.Load(); got != 0 {
		t.Fatalf("%d uploads after pre-cancelled plan, want 0", got)
	}
	if got := c.frees.Load(); got != 0 {
		t.Fatalf("%d frees after pre-cancelled plan, want 0", got)
	}
}

// TestRunAllAndRunJobUploadPerJob: RunAll and RunJob give every job a
// one-reference lease of its own — one upload, one free and one
// deployment-uploaded event per job at any worker count, and no result
// marked as sharing.
func TestRunAllAndRunJobUploadPerJob(t *testing.T) {
	jobs := sweepPlan(t, "counting").Jobs
	for _, workers := range []int{1, 2, 8} {
		c := registerCounting(t, "counting", 0)
		var uploadedEvents atomic.Int64
		s := core.NewSession(core.WithParallelism(workers), core.WithObserver(core.ObserverFunc(func(e core.Event) {
			if e.Type == core.EventDeploymentUploaded {
				uploadedEvents.Add(1)
			}
		})))
		results, err := s.RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunJob(context.Background(), jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(jobs) + 1)
		if got := c.uploads.Load(); got != want {
			t.Errorf("workers=%d: %d uploads, want %d (one per job)", workers, got, want)
		}
		if got := c.frees.Load(); got != want {
			t.Errorf("workers=%d: %d frees, want %d (one per job)", workers, got, want)
		}
		if got := uploadedEvents.Load(); got != want {
			t.Errorf("workers=%d: %d deployment-uploaded events, want %d", workers, got, want)
		}
		for i, r := range append(results, res) {
			if r.Status != core.StatusOK {
				t.Errorf("workers=%d job %d: status %s (%s)", workers, i, r.Status, r.Error)
			}
			if r.UploadShared {
				t.Errorf("workers=%d job %d marked as sharing an upload", workers, i)
			}
		}
	}
}

// TestSharedUploadOutputsBitIdentical executes every engine's algorithms
// twice on one uploaded handle and once each on fresh handles, and
// requires bit-identical outputs — the platform-level guarantee RunPlan's
// sharing rests on.
func TestSharedUploadOutputsBitIdentical(t *testing.T) {
	g, err := workload.Load("R1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.ByID("R1")
	if err != nil {
		t.Fatal(err)
	}
	// The six real engines; platform.Names() would also list the fakes
	// other tests register.
	engines := []string{"pregel", "dataflow", "gas", "spmv-s", "spmv-d", "native", "pushpull"}
	for _, name := range engines {
		p, err := platform.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := platform.RunConfig{Threads: 2, Machines: 1}
		shared, err := p.Upload(g, cfg)
		if err != nil {
			t.Fatalf("%s: upload: %v", name, err)
		}
		for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
			if !p.Supports(a) {
				continue
			}
			fromShared, err := p.Execute(context.Background(), shared, a, d.Params)
			if err != nil {
				t.Fatalf("%s/%s shared execute: %v", name, a, err)
			}
			fresh, err := p.Upload(g, cfg)
			if err != nil {
				t.Fatalf("%s: fresh upload: %v", name, err)
			}
			fromFresh, err := p.Execute(context.Background(), fresh, a, d.Params)
			fresh.Free()
			if err != nil {
				t.Fatalf("%s/%s fresh execute: %v", name, a, err)
			}
			if !outputsEqual(fromShared.Output, fromFresh.Output) {
				t.Errorf("%s/%s: shared-upload output differs from fresh-upload output", name, a)
			}
		}
		shared.Free()
	}
}

func outputsEqual(a, b *algorithms.Output) bool {
	if len(a.Int) != len(b.Int) || len(a.Float) != len(b.Float) {
		return false
	}
	for i := range a.Int {
		if a.Int[i] != b.Int[i] {
			return false
		}
	}
	for i := range a.Float {
		if a.Float[i] != b.Float[i] {
			return false
		}
	}
	return true
}

// TestPlanCheckRejectsMalformedPlans guards hand-written plans.
func TestPlanCheckRejectsMalformedPlans(t *testing.T) {
	base := core.PlanFromSpecs("ok", []core.JobSpec{
		{Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1},
		{Platform: "native", Dataset: "R1", Algorithm: algorithms.PR, Threads: 1, Machines: 1},
	})
	s := core.NewSession(core.WithSLA(2 * time.Minute))
	if _, err := s.RunPlan(context.Background(), base); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}

	dup := *base
	dup.Deployments = append([]core.Deployment(nil), base.Deployments...)
	dup.Deployments = append(dup.Deployments, dup.Deployments[0])
	if _, err := s.RunPlan(context.Background(), &dup); err == nil {
		t.Error("duplicate deployment membership accepted")
	}

	missing := *base
	missing.Deployments = nil
	if _, err := s.RunPlan(context.Background(), &missing); err == nil {
		t.Error("plan with uncovered jobs accepted")
	}

	oob := *base
	oob.Deployments = []core.Deployment{{Platform: "native", Dataset: "R1",
		Config: core.ResourceSpec{Threads: 1, Machines: 1}, Jobs: []int{0, 7}}}
	if _, err := s.RunPlan(context.Background(), &oob); err == nil {
		t.Error("out-of-range job index accepted")
	}
}

// TestDescriptionCompileShares takes a description the whole way through
// one session — Session.Compile, then RunPlan: the algorithm sweep of one
// (platform, dataset) pair is one deployment, pays one upload, and its
// results come back in matrix order.
func TestDescriptionCompileShares(t *testing.T) {
	c := registerCounting(t, "counting", 0)
	s := core.NewSession(core.WithSLA(2 * time.Minute))
	plan, err := s.Compile(core.BenchSpec{
		Name:       "desc",
		Platforms:  []string{"counting"},
		Datasets:   core.DatasetSelector{IDs: []string{"R1"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC},
		Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Deployments) != 1 || len(plan.Jobs) != 3 {
		t.Fatalf("unexpected description plan: %d jobs, %d deployments", len(plan.Jobs), len(plan.Deployments))
	}
	results, err := s.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Spec != plan.Jobs[i] {
			t.Errorf("result %d out of matrix order", i)
		}
		if results[i].Status != core.StatusOK {
			t.Errorf("result %d: status %s (%s)", i, results[i].Status, results[i].Error)
		}
	}
	if got := c.uploads.Load(); got != 1 {
		t.Fatalf("description sweep performed %d uploads, want 1", got)
	}
}

// hangingUploader blocks in UploadContext until the context ends — the
// pathological upload the SLA timer must now be able to interrupt.
type hangingUploader struct {
	platform.Platform
}

func (h *hangingUploader) Name() string { return "hang-upload" }

func (h *hangingUploader) UploadContext(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	<-ctx.Done()
	return nil, platform.CheckContext(ctx)
}

var hangUploadOnce sync.Once

// TestSLACancelsUpload: with context-aware uploads, a hanging upload is
// cancelled by the SLA timer as the window closes — the job returns
// promptly with an SLA break instead of waiting the upload out.
func TestSLACancelsUpload(t *testing.T) {
	hangUploadOnce.Do(func() {
		base, err := platform.Get("native")
		if err != nil {
			t.Fatal(err)
		}
		platform.Register(&hangingUploader{Platform: base})
	})
	s := core.NewSession()
	start := time.Now()
	res, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: "hang-upload", Dataset: "R1", Algorithm: algorithms.BFS,
		Threads: 1, Machines: 1, SLA: 50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSLABreak {
		t.Fatalf("status %s (%s), want sla-break from a cancelled upload", res.Status, res.Error)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("upload cancellation took %v; the SLA timer did not interrupt it", elapsed)
	}
	// A caller cancellation (not the SLA timer) is classified canceled.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	res, err = s.RunJob(ctx, core.JobSpec{
		Platform: "hang-upload", Dataset: "R1", Algorithm: algorithms.BFS,
		Threads: 1, Machines: 1, SLA: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusCanceled {
		t.Fatalf("status %s (%s), want canceled for a caller-cancelled upload", res.Status, res.Error)
	}
}

// TestExperimentReportsMatchPerJobUploads runs two experiment artifacts
// (compiled specs through RunPlan, shared uploads) and the same matrices
// through RunAll (an upload per job) and requires the same status and
// validation outcome per job — everything the rendered reports show
// besides measured durations, including the N/A and substituted-backend
// cells of Figure 6.
func TestExperimentReportsMatchPerJobUploads(t *testing.T) {
	ctx := context.Background()
	cfg := core.ExperimentConfig{Platforms: []string{"native", "spmv-s", "pushpull"}, Threads: 2}
	var sharedResults []core.JobResult
	shared := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1), core.WithSink(collectSink(&sharedResults)))
	for _, id := range []string{"fig6", "table8"} {
		if _, err := shared.RunExperiment(ctx, id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var jobs []core.JobSpec
	for _, spec := range []core.BenchSpec{core.AlgorithmVarietySpec(cfg), core.MakespanBreakdownSpec(cfg)} {
		plan, err := core.CompileSpec(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, plan.Jobs...)
	}
	perJob, err := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1)).RunAll(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "fig6+table8", sharedResults, perJob)
}
