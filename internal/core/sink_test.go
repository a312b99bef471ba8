package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
)

func sinkTestPlan(t *testing.T) *core.Plan {
	t.Helper()
	plan, err := core.CompileSpec(core.BenchSpec{
		Name:       "sinks",
		Platforms:  []string{"native", "spmv-s"},
		Datasets:   core.DatasetSelector{IDs: []string{"R1"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}},
		SLA:        core.Duration(2 * time.Minute),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestJSONLSinkStreamsDatabase runs a plan with a JSONL sink and checks
// the stream is byte-identical to the JSON encoding of the results the
// run returned, in plan order despite parallel execution.
func TestJSONLSinkStreamsDatabase(t *testing.T) {
	plan := sinkTestPlan(t)
	var stream bytes.Buffer
	s := core.NewSession(
		core.WithParallelism(4),
		core.WithSink(core.NewJSONLSink(&stream)),
	)
	results, err := s.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(plan.Jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(plan.Jobs))
	}
	var returned bytes.Buffer
	enc := json.NewEncoder(&returned)
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
	}
	if stream.String() != returned.String() {
		t.Errorf("JSONL stream differs from the returned results:\n--- sink ---\n%s--- returned ---\n%s", stream.String(), returned.String())
	}
	if got := strings.Count(stream.String(), "\n"); got != len(plan.Jobs) {
		t.Errorf("stream has %d lines, want %d", got, len(plan.Jobs))
	}
}

// TestSinkOrderAndFanout checks sinks receive every result in commit
// (plan) order, across MultiSink fan-out, and that RunJob records reach
// sinks too.
func TestSinkOrderAndFanout(t *testing.T) {
	plan := sinkTestPlan(t)
	var mu sync.Mutex
	var seen []core.JobSpec
	orderSink := core.SinkFunc(func(r core.JobResult) error {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, r.Spec)
		return nil
	})
	var extra []core.JobResult
	s := core.NewSession(
		core.WithParallelism(4),
		core.WithSink(core.MultiSink(orderSink, collectSink(&extra))),
	)
	if _, err := s.RunPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(plan.Jobs) {
		t.Fatalf("sink saw %d results, want %d", len(seen), len(plan.Jobs))
	}
	for i := range seen {
		if seen[i] != plan.Jobs[i] {
			t.Errorf("sink result %d out of plan order: %+v", i, seen[i])
		}
	}
	if len(extra) != len(plan.Jobs) {
		t.Errorf("second fan-out sink saw %d results, want %d", len(extra), len(plan.Jobs))
	}
	// RunJob records flow to sinks too.
	if _, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1, SLA: 2 * time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(plan.Jobs)+1 {
		t.Errorf("RunJob result did not reach the sink")
	}
}

// TestSinkErrorSurfaces: a failing sink does not stop the run, but its
// error is joined into the batch error.
func TestSinkErrorSurfaces(t *testing.T) {
	plan := sinkTestPlan(t)
	boom := errors.New("sink exploded")
	n := 0
	s := core.NewSession(core.WithSink(core.SinkFunc(func(core.JobResult) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})))
	results, err := s.RunPlan(context.Background(), plan)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	if !errors.Is(err, core.ErrSink) {
		t.Fatalf("sink failures must be marked ErrSink: %v", err)
	}
	// The run itself completed: every job is returned with a terminal
	// status, and the sink was offered every one of them.
	for i, res := range results {
		if !res.Status.Terminal() {
			t.Errorf("job %d: non-terminal status after sink error", i)
		}
	}
	if len(results) != len(plan.Jobs) || n != len(plan.Jobs) {
		t.Errorf("%d results, %d deliveries, want %d each despite the sink error", len(results), n, len(plan.Jobs))
	}
}

// fakeArchiver records what ArchiveResults was asked to seal.
type fakeArchiver struct {
	mu      sync.Mutex
	name    string
	spec    *core.BenchSpec
	results []core.JobResult
	calls   int
	err     error
}

func (f *fakeArchiver) ArchiveResults(name string, spec *core.BenchSpec, results []core.JobResult) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	f.name, f.spec, f.results = name, spec, append([]core.JobResult(nil), results...)
	if f.err != nil {
		return "", f.err
	}
	return "deadbeef", nil
}

// TestArchiveSinkSealsOnCommit: the archive sink seals nothing while the
// session delivers, and Commit seals exactly the delivered batch, in
// commit order, once.
func TestArchiveSinkSealsOnCommit(t *testing.T) {
	plan := sinkTestPlan(t)
	arch := &fakeArchiver{}
	sink := core.NewArchiveSink(arch, "run", nil)
	results, err := core.NewSession(core.WithSink(sink)).RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if arch.calls != 0 {
		t.Fatal("archive sealed before Commit")
	}
	root, err := sink.Commit()
	if err != nil || root != "deadbeef" {
		t.Fatalf("Commit = %q, %v", root, err)
	}
	if sink.Root() != "deadbeef" || arch.calls != 1 {
		t.Errorf("Root/calls after Commit: %q, %d", sink.Root(), arch.calls)
	}
	if len(arch.results) != len(results) {
		t.Fatalf("archived %d results, want %d", len(arch.results), len(results))
	}
	for i := range results {
		if arch.results[i].Spec != results[i].Spec {
			t.Errorf("archived result %d out of commit order", i)
		}
	}
	// Commit is idempotent.
	if root, err := sink.Commit(); err != nil || root != "deadbeef" || arch.calls != 1 {
		t.Errorf("second Commit resealed: %q, %v, calls=%d", root, err, arch.calls)
	}
}

// TestSinkErrorsDistinct: two failing sinks surface as two distinctly
// attributed errors under ErrSink, each naming the sink's registration
// position and type.
func TestSinkErrorsDistinct(t *testing.T) {
	plan := sinkTestPlan(t)
	boom1 := errors.New("first sink exploded")
	boom2 := errors.New("second sink exploded")
	s := core.NewSession(
		core.WithSink(core.SinkFunc(func(core.JobResult) error { return boom1 })),
		core.WithSink(&failingReportSink{err: boom2}),
	)
	_, err := s.RunPlan(context.Background(), plan)
	if err == nil {
		t.Fatal("failing sinks surfaced no error")
	}
	if !errors.Is(err, core.ErrSink) || !errors.Is(err, boom1) || !errors.Is(err, boom2) {
		t.Fatalf("joined error must wrap ErrSink and both causes: %v", err)
	}
	if !core.SinkOnly(err) {
		t.Fatalf("all-sink failure must be SinkOnly: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "sink 1 (core.SinkFunc)") {
		t.Errorf("error does not attribute the first sink: %v", msg)
	}
	if !strings.Contains(msg, "sink 2 (*core_test.failingReportSink)") {
		t.Errorf("error does not attribute the second sink: %v", msg)
	}
}

type failingReportSink struct{ err error }

func (k *failingReportSink) Consume(core.JobResult) error { return k.err }

// TestArchiveSinkCommitError: a failing archiver surfaces from Commit,
// and a later retry may succeed.
func TestArchiveSinkCommitError(t *testing.T) {
	arch := &fakeArchiver{err: errors.New("disk gone")}
	sink := core.NewArchiveSink(arch, "run", nil)
	if err := sink.Consume(core.JobResult{Status: core.StatusOK}); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Commit(); err == nil {
		t.Fatal("Commit must surface archiver failure")
	}
	if sink.Root() != "" {
		t.Error("failed Commit must not record a root")
	}
	arch.mu.Lock()
	arch.err = nil
	arch.mu.Unlock()
	if root, err := sink.Commit(); err != nil || root != "deadbeef" {
		t.Errorf("retry after failure: %q, %v", root, err)
	}
	if sink.Len() != 1 {
		t.Errorf("Len = %d, want 1", sink.Len())
	}
}

// TestReportSink (named for the sink JobTable replaced) renders a run's
// results as one row per job with the shared-upload marker.
func TestReportSink(t *testing.T) {
	plan := sinkTestPlan(t)
	results, err := core.NewSession().RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.JobTable("sinks", "sink table", results)
	if len(rep.Rows) != len(plan.Jobs) {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), len(plan.Jobs))
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Errorf("report should mark amortized uploads with *:\n%s", sb.String())
	}
}
