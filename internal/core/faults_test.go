package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
)

// Fault-injection platforms: wrappers that misbehave in controlled ways,
// verifying that the harness detects and classifies every failure mode
// the benchmark's robustness requirement (R3) lists.

// faultyPlatform wraps an engine and corrupts its behavior.
type faultyPlatform struct {
	platform.Platform
	name string
	mode string // "wrong-output", "error", "hang", "panic", "chunk-panic", "upload-error", "upload-panic"
}

func (f *faultyPlatform) Name() string { return f.name }

func (f *faultyPlatform) Upload(g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	switch f.mode {
	case "upload-error":
		return nil, &cluster.OOMError{Machine: 0, Requested: 1, Budget: 0}
	case "upload-panic":
		panic("injected upload panic")
	}
	return f.Platform.Upload(g, cfg)
}

func (f *faultyPlatform) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	switch f.mode {
	case "wrong-output":
		res, err := f.Platform.Execute(ctx, up, a, p)
		if err != nil {
			return nil, err
		}
		if res.Output.Int != nil && len(res.Output.Int) > 0 {
			res.Output.Int[0] += 12345
		}
		return res, nil
	case "error":
		return nil, errors.New("injected engine crash")
	case "hang":
		<-ctx.Done()
		return nil, ctx.Err()
	case "panic":
		if a == algorithms.BFS {
			panic("injected engine panic")
		}
		fallthrough
	case "chunk-panic":
		if a == algorithms.BFS {
			par.Chunks(2, 2, func(w, _, _ int) {
				if w == 1 {
					panic("injected chunk panic")
				}
			})
		}
		fallthrough
	default:
		return f.Platform.Execute(ctx, up, a, p)
	}
}

// registerFaulty registers a wrapper once per test binary. It wraps a
// counting platform over native, returned with its counters reset.
var faultyRegistered = map[string]bool{}

func registerFaulty(t *testing.T, mode string) (string, *countingPlatform) {
	t.Helper()
	name := "faulty-" + mode
	c := registerCounting(t, "counted-"+mode, 0)
	if !faultyRegistered[name] {
		platform.Register(&faultyPlatform{Platform: c, name: name, mode: mode})
		faultyRegistered[name] = true
	}
	return name, c
}

func TestHarnessDetectsWrongOutput(t *testing.T) {
	name, _ := registerFaulty(t, "wrong-output")
	s := newTestSession()
	res, err := s.RunJob(context.Background(), core.JobSpec{Platform: name, Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusInvalid {
		t.Fatalf("status %s, want invalid-output", res.Status)
	}
	if res.Error == "" {
		t.Fatal("invalid output must carry a first-diff diagnostic")
	}
}

func TestHarnessClassifiesCrash(t *testing.T) {
	name, _ := registerFaulty(t, "error")
	s := newTestSession()
	res, err := s.RunJob(context.Background(), core.JobSpec{Platform: name, Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusFailed {
		t.Fatalf("status %s, want failed", res.Status)
	}
}

func TestHarnessClassifiesHangAsSLABreak(t *testing.T) {
	name, _ := registerFaulty(t, "hang")
	s := newTestSession()
	res, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: name, Dataset: "R1", Algorithm: algorithms.BFS,
		Threads: 1, Machines: 1, SLA: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSLABreak {
		t.Fatalf("status %s, want sla-break", res.Status)
	}
}

func TestHarnessClassifiesUploadOOM(t *testing.T) {
	name, _ := registerFaulty(t, "upload-error")
	s := newTestSession()
	res, err := s.RunJob(context.Background(), core.JobSpec{Platform: name, Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusOOM {
		t.Fatalf("status %s, want oom", res.Status)
	}
}

// A panicking engine fails its jobs, never the harness. In a three-job
// deployment, a panic in Upload fails all three jobs and leaves no handle
// to Free; a panic in job 1's Execute — on the calling goroutine or on a
// par.Chunks worker — fails that job alone, jobs 2 and 3 run on the shared
// upload, and the lease Frees it exactly once.
func TestHarnessIsolatesEnginePanics(t *testing.T) {
	for _, tc := range []struct {
		mode           string
		uploads, frees int64
		failed         func(a algorithms.Algorithm) bool
	}{
		{"upload-panic", 0, 0, func(algorithms.Algorithm) bool { return true }},
		{"panic", 1, 1, func(a algorithms.Algorithm) bool { return a == algorithms.BFS }},
		{"chunk-panic", 1, 1, func(a algorithms.Algorithm) bool { return a == algorithms.BFS }},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			name, c := registerFaulty(t, tc.mode)
			plan, err := core.CompileSpec(core.BenchSpec{
				Name:       tc.mode,
				Platforms:  []string{name},
				Datasets:   core.DatasetSelector{IDs: []string{"R1"}},
				Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC},
				Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Deployments) != 1 || len(plan.Jobs) != 3 || plan.Jobs[0].Algorithm != algorithms.BFS {
				t.Fatalf("want one deployment of three jobs, BFS first; got %d deployments, jobs %v", len(plan.Deployments), plan.Jobs)
			}
			results, err := newTestSession().RunPlan(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				a := res.Spec.Algorithm
				switch {
				case tc.failed(a) && (res.Status != core.StatusFailed || !strings.HasPrefix(res.Error, "panic: ")):
					t.Errorf("job %d (%s): status %s, error %q; want failed with a panic", i+1, a, res.Status, res.Error)
				case !tc.failed(a) && res.Status != core.StatusOK:
					t.Errorf("job %d (%s): status %s (%s), want ok", i+1, a, res.Status, res.Error)
				}
			}
			if got := c.uploads.Load(); got != tc.uploads {
				t.Errorf("%d uploads, want %d", got, tc.uploads)
			}
			if got := c.frees.Load(); got != tc.frees {
				t.Errorf("%d frees, want %d", got, tc.frees)
			}
		})
	}
}

func TestAnalyze(t *testing.T) {
	var results []core.JobResult
	s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1), core.WithSink(collectSink(&results)))
	for _, p := range []string{"native", "pregel"} {
		for _, ds := range []string{"R1", "R2"} {
			if _, err := s.RunJob(context.Background(), core.JobSpec{Platform: p, Dataset: ds, Algorithm: algorithms.BFS, Threads: 2, Machines: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	summaries := core.Analyze(results)
	if len(summaries) != 2 {
		t.Fatalf("got %d summaries, want 2", len(summaries))
	}
	// Sorted by slowdown: the fastest platform first with factor >= 1.
	if summaries[0].GeoMeanSlowdown < 1 || summaries[1].GeoMeanSlowdown < summaries[0].GeoMeanSlowdown {
		t.Fatalf("slowdown ordering wrong: %+v", summaries)
	}
	for _, s := range summaries {
		if s.SLACompliance != 1 {
			t.Errorf("%s: SLA compliance %v, want 1", s.Platform, s.SLACompliance)
		}
	}
	rep := core.AnalysisReport(results)
	out := renderOK(t, rep)
	if len(rep.Notes) == 0 {
		t.Fatalf("analysis report should derive a key finding:\n%s", out)
	}
}

// TestAnalysisReportDeterministic renders the analysis of platforms that
// tie on geometric-mean slowdown — each fastest on a disjoint job set —
// 50 times and requires byte-identical output: summaries accumulate in
// result order, never map order, and ties order by platform name.
func TestAnalysisReportDeterministic(t *testing.T) {
	datasets := []string{"R1", "R2", "R3", "R4", "D100", "D300"}
	var results []core.JobResult
	for pi, p := range []string{"spmv-s", "native", "pushpull"} {
		for di, ds := range datasets {
			tproc := 30 * time.Millisecond
			if di%3 == pi {
				tproc = 7 * time.Millisecond // this platform's turn to be fastest
			}
			results = append(results, core.JobResult{
				Spec:           core.JobSpec{Platform: p, Dataset: ds, Algorithm: algorithms.BFS, Threads: 2, Machines: 1},
				Status:         core.StatusOK,
				ProcessingTime: tproc,
			})
		}
	}
	first := renderOK(t, core.AnalysisReport(results))
	if !strings.Contains(first, "native is the fastest platform overall; spmv-s trails it") {
		t.Errorf("tying platforms must order by name:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if again := renderOK(t, core.AnalysisReport(results)); again != first {
			t.Fatalf("render %d differs:\n--- first ---\n%s--- again ---\n%s", i, first, again)
		}
	}
}
