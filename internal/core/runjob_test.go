package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/platforms"
)

func init() { platforms.RegisterAll() }

// newTestSession returns a sequential validating session with an SLA
// generous enough for any catalog job under -race.
func newTestSession() *core.Session {
	return core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1))
}

// runJob runs one job as a one-job plan, the way table 10 runs its
// probes, and returns its result.
func runJob(ctx context.Context, s *core.Session, spec core.JobSpec) (core.JobResult, error) {
	results, err := s.RunPlan(ctx, core.PlanFromSpecs("job", []core.JobSpec{spec}))
	return results[0], err
}

// perJobPlan makes every job a deployment of its own: each performs and
// frees its own upload, and jobs that share (platform, dataset, config)
// still run concurrently.
func perJobPlan(specs []core.JobSpec) *core.Plan {
	p := &core.Plan{Name: "per-job", Jobs: specs}
	for i, spec := range specs {
		p.Deployments = append(p.Deployments, core.Deployment{
			Platform: spec.Platform, Dataset: spec.Dataset, Jobs: []int{i},
			Config: core.ResourceSpec{Threads: spec.Threads, Machines: spec.Machines, MemoryPerMachine: spec.MemoryPerMachine},
		})
	}
	return p
}

func TestRunJobOK(t *testing.T) {
	s := newTestSession()
	res, err := runJob(context.Background(), s, core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 2, Machines: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusOK {
		t.Fatalf("status %s (%s), want ok", res.Status, res.Error)
	}
	if !res.Validated || !res.ValidationOK {
		t.Fatalf("expected validated output, got %+v", res)
	}
	if res.ProcessingTime <= 0 {
		t.Fatal("expected positive processing time")
	}
	if res.EPS <= 0 || res.EVPS <= 0 {
		t.Fatal("expected positive throughput metrics")
	}
}

func TestRunJobUnknownPlatform(t *testing.T) {
	s := newTestSession()
	if _, err := runJob(context.Background(), s, core.JobSpec{Platform: "nope", Dataset: "R1", Algorithm: algorithms.BFS}); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestRunJobUnknownDataset(t *testing.T) {
	s := newTestSession()
	if _, err := runJob(context.Background(), s, core.JobSpec{Platform: "native", Dataset: "nope", Algorithm: algorithms.BFS}); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestRunJobUnsupported(t *testing.T) {
	s := newTestSession()
	res, err := runJob(context.Background(), s, core.JobSpec{Platform: "pushpull", Dataset: "R4", Algorithm: algorithms.LCC, Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusUnsupported {
		t.Fatalf("status %s, want unsupported", res.Status)
	}
}

func TestRunJobSSSPOnUnweighted(t *testing.T) {
	s := newTestSession()
	// R1 is unweighted; SSSP must be reported unsupported, not failed.
	res, err := runJob(context.Background(), s, core.JobSpec{Platform: "native", Dataset: "R1", Algorithm: algorithms.SSSP, Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusUnsupported {
		t.Fatalf("status %s, want unsupported", res.Status)
	}
}

func TestRunJobOOM(t *testing.T) {
	s := newTestSession()
	res, err := runJob(context.Background(), s, core.JobSpec{
		Platform: "native", Dataset: "R4", Algorithm: algorithms.BFS,
		Threads: 1, Machines: 1, MemoryPerMachine: 1024, // absurdly small budget
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusOOM {
		t.Fatalf("status %s (%s), want oom", res.Status, res.Error)
	}
}

func TestRunJobSLABreak(t *testing.T) {
	s := newTestSession()
	res, err := runJob(context.Background(), s, core.JobSpec{
		Platform: "dataflow", Dataset: "D300", Algorithm: algorithms.PR,
		Threads: 1, Machines: 1, SLA: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusSLABreak {
		t.Fatalf("status %s (%s), want sla-break", res.Status, res.Error)
	}
}

func TestDistributedJob(t *testing.T) {
	s := newTestSession()
	for _, p := range platforms.DistributedSet {
		res, err := runJob(context.Background(), s, core.JobSpec{
			Platform: p, Dataset: "R2", Algorithm: algorithms.BFS, Threads: 2, Machines: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != core.StatusOK {
			t.Fatalf("%s: status %s (%s), want ok", p, res.Status, res.Error)
		}
		if res.NetworkTime <= 0 {
			t.Errorf("%s: expected modeled network time on a 4-machine run", p)
		}
	}
}

func TestReportRender(t *testing.T) {
	rep := &core.Report{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: test ==", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
