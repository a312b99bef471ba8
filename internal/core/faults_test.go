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
	"graphalytics/internal/platform"
)

// Fault-injection platforms: wrappers that misbehave in controlled ways,
// verifying that the harness detects and classifies every failure mode
// the benchmark's robustness requirement (R3) lists.

// faultyPlatform wraps an engine and corrupts its behavior.
type faultyPlatform struct {
	platform.Platform
	name string
	mode string // "wrong-output", "error", "hang", "upload-error"
}

func (f *faultyPlatform) Name() string { return f.name }

func (f *faultyPlatform) Upload(g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if f.mode == "upload-error" {
		return nil, &cluster.OOMError{Machine: 0, Requested: 1, Budget: 0}
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
	default:
		return f.Platform.Execute(ctx, up, a, p)
	}
}

// registerFaulty registers a wrapper once per test binary.
var faultyRegistered = map[string]bool{}

func registerFaulty(t *testing.T, mode string) string {
	t.Helper()
	name := "faulty-" + mode
	if !faultyRegistered[name] {
		base, err := platform.Get("native")
		if err != nil {
			t.Fatal(err)
		}
		platform.Register(&faultyPlatform{Platform: base, name: name, mode: mode})
		faultyRegistered[name] = true
	}
	return name
}

func TestHarnessDetectsWrongOutput(t *testing.T) {
	name := registerFaulty(t, "wrong-output")
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
	name := registerFaulty(t, "error")
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
	name := registerFaulty(t, "hang")
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
	name := registerFaulty(t, "upload-error")
	s := newTestSession()
	res, err := s.RunJob(context.Background(), core.JobSpec{Platform: name, Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusOOM {
		t.Fatalf("status %s, want oom", res.Status)
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
