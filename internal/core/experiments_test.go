package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/core"
)

// fastPlatforms keeps experiment integration tests quick while still
// covering a single-machine and a distributed engine.
var fastPlatforms = []string{"native", "spmv-s"}

func renderOK(t *testing.T, rep *core.Report) string {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// collectSink returns a sink appending every delivered result to *out.
func collectSink(out *[]core.JobResult) core.Sink {
	return core.SinkFunc(func(r core.JobResult) error {
		*out = append(*out, r)
		return nil
	})
}

// checkGolden compares a rendered report with testdata/reports/<name>.golden
// byte for byte; -update rewrites the file instead.
func checkGolden(t *testing.T, name string, rep *core.Report) {
	t.Helper()
	got := renderOK(t, rep)
	path := filepath.Join("testdata", "reports", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

// TestReportGoldens pins every renderer's text byte for byte on the
// hand-built fixtures (fixtures_test.go): each failure marker, the (D)
// substitution, a variability platform without samples, a stress-test
// platform that never fails. The goldens were first generated by the
// session-bound renderers these pure functions replaced.
func TestReportGoldens(t *testing.T) {
	fixtures := reportFixtures(t)
	for _, fx := range fixtures {
		exp, ok := core.ExperimentByID(fx.id)
		if !ok {
			t.Fatalf("experiment table has no %s", fx.id)
		}
		checkGolden(t, fx.id, exp.Render(exp.Spec(fx.cfg), fx.results))
	}
	byID := func(id string) []core.JobResult {
		for _, fx := range fixtures {
			if fx.id == id {
				return fx.results
			}
		}
		t.Fatalf("no fixture %s", id)
		return nil
	}
	checkGolden(t, "analysis", core.AnalysisReport(byID("fig4")))
	checkGolden(t, "jobtable", core.JobTable("fig6", "spec results: fig6", byID("fig6")))
}

// TestExperimentTable checks the table's own invariants: unique IDs, every
// builder naming its spec after the matrix the row declares, and every
// matrix being an experiment of its own.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range core.Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if got := e.Spec(core.ExperimentConfig{}).Name; got != e.Matrix {
			t.Errorf("%s: builder names its spec %q, table says matrix %q", e.ID, got, e.Matrix)
		}
		if m, ok := core.ExperimentByID(e.Matrix); !ok || m.Matrix != e.Matrix {
			t.Errorf("%s: matrix %q is not an experiment of its own", e.ID, e.Matrix)
		}
	}
	if _, err := newTestSession().RunExperiment(context.Background(), "fig99", core.ExperimentConfig{}); err == nil {
		t.Error("unknown experiment ID must be an error")
	}
}

func TestDatasetVarietyExperiment(t *testing.T) {
	var results []core.JobResult
	s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1), core.WithSink(collectSink(&results)))
	rep, err := s.RunExperiment(context.Background(), "fig4", core.ExperimentConfig{Platforms: fastPlatforms, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	// Datasets up to class L: the XL graphs must be absent.
	for _, banned := range []string{"R5", "R6", "D1000", "G26"} {
		if strings.Contains(out, banned) {
			t.Errorf("class-XL dataset %s leaked into the up-to-L selection", banned)
		}
	}
	for _, want := range []string{"R1", "D300", "G25", "BFS", "PR"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %s:\n%s", want, out)
		}
	}
	// Every completed job must have validated output.
	if len(results) == 0 {
		t.Fatal("the experiment delivered no results")
	}
	for _, res := range results {
		if res.Status == core.StatusOK && !res.ValidationOK {
			t.Errorf("unvalidated OK result: %+v", res.Spec)
		}
	}
}

// TestThroughputReport renders Figure 5 as a second renderer over one run
// of the Figure 4 matrix — the same rows RunExperiment("fig5") derives.
func TestThroughputReport(t *testing.T) {
	s := newTestSession()
	cfg := core.ExperimentConfig{Platforms: fastPlatforms, Threads: 2}
	spec, results, err := s.RunMatrix(context.Background(), "fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "fig4" {
		t.Fatalf("fig5 ran the %q matrix, want fig4's", spec.Name)
	}
	fig5, _ := core.ExperimentByID("fig5")
	rep := fig5.Render(spec, results)
	out := renderOK(t, rep)
	if !strings.Contains(out, "/s") {
		t.Fatalf("fig5 output has no rates:\n%s", out)
	}
	bfs := 0
	for _, res := range results {
		if res.Spec.Algorithm == "BFS" && res.Completed() {
			bfs++
		}
	}
	if len(rep.Rows) != bfs || bfs == 0 {
		t.Fatalf("fig5 has %d rows for %d completed BFS jobs", len(rep.Rows), bfs)
	}
}

func TestAlgorithmVarietyExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.RunExperiment(context.Background(), "fig6", core.ExperimentConfig{Platforms: []string{"native", "spmv-s", "pushpull"}, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	// The pushpull engine has no LCC: the row must show N/A, matching the
	// paper's Figure 6 marker for PGX.D.
	if !strings.Contains(out, "N/A") {
		t.Errorf("expected N/A for pushpull LCC:\n%s", out)
	}
	// SSSP on the shared-memory matrix backend must be substituted by the
	// distributed backend and marked, as in the paper.
	if !strings.Contains(out, "(D)") {
		t.Errorf("expected the (D) backend marker for spmv SSSP:\n%s", out)
	}
}

func TestVerticalScalabilityAndSpeedup(t *testing.T) {
	s := newTestSession()
	rep, err := s.RunExperiment(context.Background(), "table9", core.ExperimentConfig{Platforms: []string{"native"}, ThreadSweep: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "BFS") || !strings.Contains(out, "PR") {
		t.Fatalf("table9 output incomplete:\n%s", out)
	}
	for _, row := range rep.Rows {
		if row[1] == "-" {
			t.Errorf("table9 found no speedup for %s:\n%s", row[0], out)
		}
	}
}

func TestStrongScalingExperiment(t *testing.T) {
	var results []core.JobResult
	s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1), core.WithSink(collectSink(&results)))
	rep, err := s.RunExperiment(context.Background(), "fig8", core.ExperimentConfig{Platforms: []string{"spmv-d"}, MachineSweep: []int{1, 4}, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, rep)
	// Distributed 4-machine runs must be present and OK.
	found := false
	for _, res := range results {
		if res.Spec.Machines == 4 && res.Status == core.StatusOK {
			found = true
			if res.NetworkTime <= 0 {
				t.Error("4-machine run should accumulate modeled network time")
			}
		}
	}
	if !found {
		t.Fatal("no successful 4-machine runs recorded")
	}
}

func TestWeakScalingExperiment(t *testing.T) {
	s := newTestSession()
	pairs := []core.WeakPair{{Machines: 1, Dataset: "G22"}, {Machines: 2, Dataset: "G23"}}
	rep, err := s.RunExperiment(context.Background(), "fig9", core.ExperimentConfig{Platforms: []string{"spmv-d"}, WeakPairs: pairs, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "G23") {
		t.Fatalf("fig9 output missing the scaled dataset:\n%s", out)
	}
}

func TestStressTestExperiment(t *testing.T) {
	s := core.NewSession(core.WithSLA(2*time.Minute), core.WithParallelism(1), core.WithValidation(false))
	// A 200 KiB budget forces every engine to fail somewhere in the
	// catalog while still completing the smallest graphs.
	rep, err := s.RunExperiment(context.Background(), "table10", core.ExperimentConfig{Platforms: []string{"native", "dataflow"}, Threads: 2, MemoryBudget: 200 << 10})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	for _, p := range []string{"native", "dataflow"} {
		if !strings.Contains(out, p) {
			t.Errorf("table10 missing platform %s", p)
		}
	}
	// The dataflow engine's representation is larger per edge, so its
	// failure point must not come later than native's.
	failRow := func(p string) string {
		for _, row := range rep.Rows {
			if row[0] == p {
				return row[1]
			}
		}
		return ""
	}
	if failRow("native") == "-" && failRow("dataflow") == "-" {
		t.Error("200 KiB budget should force at least one failure")
	}
}

func TestVariabilityExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.RunExperiment(context.Background(), "table11", core.ExperimentConfig{
		SingleMachine: []string{"native"}, Distributed: []string{"spmv-d"}, Repetitions: 3, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "%") {
		t.Fatalf("table11 output has no CV percentages:\n%s", out)
	}
}

func TestMakespanBreakdownExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.RunExperiment(context.Background(), "table8", core.ExperimentConfig{Platforms: fastPlatforms, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "%") {
		t.Fatalf("table8 output has no ratios:\n%s", out)
	}
}

func TestDataGenerationExperiment(t *testing.T) {
	rep, err := core.DataGeneration([]float64{1, 3}, []int{1, 2}, 300)
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "x") { // speedup column
		t.Fatalf("fig10 output has no speedups:\n%s", out)
	}
}

func TestStepBreakdownExperiment(t *testing.T) {
	rep, err := core.StepBreakdown(2, 300)
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	for _, want := range []string{"old", "new", "merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("step breakdown missing %q:\n%s", want, out)
		}
	}
}

// TestJobResultRoundTrip holds the JobResult wire round trip: what a
// JSONL sink streams, a json.Decoder reads back record for record.
func TestJobResultRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	var results []core.JobResult
	s := core.NewSession(core.WithSLA(2*time.Minute),
		core.WithSink(core.NewJSONLSink(&stream)), core.WithSink(collectSink(&results)))
	if _, err := s.RunExperiment(context.Background(), "table8", core.ExperimentConfig{Platforms: []string{"native"}, Threads: 1}); err != nil {
		t.Fatal(err)
	}
	var back []core.JobResult
	for dec := json.NewDecoder(&stream); ; {
		var r core.JobResult
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		back = append(back, r)
	}
	if len(back) != len(results) || len(back) == 0 {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
	}
	for i, orig := range results {
		loaded := back[i]
		if !orig.Timestamp.Equal(loaded.Timestamp) {
			t.Errorf("record %d timestamp changed: %v vs %v", i, orig.Timestamp, loaded.Timestamp)
		}
		orig.Timestamp, loaded.Timestamp = time.Time{}, time.Time{}
		if orig != loaded {
			t.Errorf("record %d changed in round trip:\n%+v\n%+v", i, orig, loaded)
		}
	}
}
