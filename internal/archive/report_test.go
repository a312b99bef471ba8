package archive

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/platforms"
)

// The live-run tests below execute real engines.
func init() { platforms.RegisterAll() }

// sweepResults builds a multi-platform, multi-algorithm sweep with
// repetitions — the report acceptance shape.
func sweepResults() []core.JobResult {
	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	var out []core.JobResult
	i := 0
	for _, platform := range []string{"native", "pregel"} {
		for _, alg := range []algorithms.Algorithm{algorithms.BFS, algorithms.CDLP, algorithms.WCC} {
			for rep := 0; rep < 2; rep++ {
				status := core.StatusOK
				if platform == "pregel" && alg == algorithms.WCC && rep == 1 {
					status = core.StatusSLABreak
				}
				out = append(out, core.JobResult{
					Spec: core.JobSpec{Platform: platform, Dataset: "R5(L)",
						Algorithm: alg, Threads: 4, Machines: 1},
					Status:         status,
					Timestamp:      base.Add(time.Duration(i) * time.Minute),
					Scale:          7.5,
					Class:          "L",
					Makespan:       time.Duration(100+i) * time.Millisecond,
					ProcessingTime: time.Duration(60+i) * time.Millisecond,
				})
				i++
			}
		}
	}
	return out
}

// TestReportJSCarriesAllJobsAndRuns is the report acceptance test: the
// rendered benchmark-results.js must parse (after stripping the JS
// wrapper) and carry every job and run of a multi-algorithm sweep with
// consistent cross-references.
func TestReportJSCarriesAllJobsAndRuns(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results := sweepResults()
	c, err := a.CommitResults("sweep", sampleSpec(), results)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.BuildReport(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportJS(&buf, rep); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	if !strings.HasPrefix(js, "var results = ") || !strings.HasSuffix(js, ";\n") {
		t.Fatalf("not a benchmark-results.js payload: %.40q...", js)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(js, "var results = "), ";\n")

	var parsed struct {
		ID     string `json:"id"`
		System struct {
			Platform struct {
				Name string `json:"name"`
			} `json:"platform"`
			Environment struct {
				Machines []map[string]any `json:"machines"`
			} `json:"environment"`
		} `json:"system"`
		Configuration struct {
			TargetScale string `json:"target-scale"`
		} `json:"configuration"`
		Result struct {
			Experiments map[string]struct {
				Type string   `json:"type"`
				Jobs []string `json:"jobs"`
			} `json:"experiments"`
			Jobs map[string]struct {
				Algorithm  string   `json:"algorithm"`
				Dataset    string   `json:"dataset"`
				Repetition int      `json:"repetition"`
				Runs       []string `json:"runs"`
			} `json:"jobs"`
			Runs map[string]struct {
				Timestamp      int64 `json:"timestamp"`
				Success        bool  `json:"success"`
				Makespan       int64 `json:"makespan"`
				ProcessingTime int64 `json:"processing-time"`
			} `json:"runs"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("rendered benchmark-results.js does not parse: %v", err)
	}

	// 2 platforms x 3 algorithms = 6 jobs; every result is one run.
	if got := len(parsed.Result.Jobs); got != 6 {
		t.Errorf("report carries %d jobs, want 6", got)
	}
	if got := len(parsed.Result.Runs); got != len(results) {
		t.Errorf("report carries %d runs, want %d", got, len(results))
	}
	// One experiment per algorithm, each referencing both platforms' jobs.
	if got := len(parsed.Result.Experiments); got != 3 {
		t.Errorf("report carries %d experiments, want 3", got)
	}
	runsSeen := 0
	for id, j := range parsed.Result.Jobs {
		if j.Repetition != len(j.Runs) || len(j.Runs) != 2 {
			t.Errorf("job %s: repetition %d, %d runs, want 2", id, j.Repetition, len(j.Runs))
		}
		for _, rid := range j.Runs {
			if _, ok := parsed.Result.Runs[rid]; !ok {
				t.Errorf("job %s references missing run %s", id, rid)
			}
			runsSeen++
		}
	}
	if runsSeen != len(results) {
		t.Errorf("jobs reference %d runs, want %d", runsSeen, len(results))
	}
	for id, e := range parsed.Result.Experiments {
		if !strings.HasPrefix(e.Type, "baseline-alg-") {
			t.Errorf("experiment %s type %q", id, e.Type)
		}
		if len(e.Jobs) != 2 {
			t.Errorf("experiment %s references %d jobs, want 2 (one per platform)", id, len(e.Jobs))
		}
		for _, jid := range e.Jobs {
			if _, ok := parsed.Result.Jobs[jid]; !ok {
				t.Errorf("experiment %s references missing job %s", id, jid)
			}
		}
	}
	failed := 0
	for _, r := range parsed.Result.Runs {
		if !r.Success {
			failed++
		}
		if r.Timestamp < time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli() {
			t.Errorf("run timestamp %d not epoch-milliseconds", r.Timestamp)
		}
	}
	if failed != 1 {
		t.Errorf("report carries %d failed runs, want exactly the injected SLA break", failed)
	}
	if parsed.System.Platform.Name != "native+pregel" {
		t.Errorf("platform name %q", parsed.System.Platform.Name)
	}
	if parsed.Configuration.TargetScale != "L" {
		t.Errorf("target-scale %q, want L", parsed.Configuration.TargetScale)
	}

	// Rendering the same commit twice is byte-identical.
	var again bytes.Buffer
	rep2, err := a.BuildReport(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteReportJS(&again, rep2); err != nil {
		t.Fatal(err)
	}
	if again.String() != js {
		t.Error("report rendering is not deterministic")
	}
}

func TestWriteReportDir(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CommitResults("sweep", nil, sweepResults()); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "report")
	if err := a.WriteReportDir("HEAD", dir); err != nil {
		t.Fatal(err)
	}
	html, err := os.ReadFile(filepath.Join(dir, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), `src="benchmark-results.js"`) {
		t.Error("report page must load benchmark-results.js relatively")
	}
	js, err := os.ReadFile(filepath.Join(dir, "benchmark-results.js"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(js), "var results = ") {
		t.Error("benchmark-results.js missing the results assignment")
	}
}

// TestTablesMatchLiveRender closes the loop between a run and its sealed
// record: an experiment runs with an ArchiveSink attached, and tables.txt
// regenerated from the commit alone — through the handle that sealed it
// and through a second Open of the same directory — must equal the live
// render byte for byte, every artifact over the matrix included.
func TestTablesMatchLiveRender(t *testing.T) {
	cases := []struct {
		id  string
		cfg core.ExperimentConfig
	}{
		{"fig4", core.ExperimentConfig{Platforms: []string{"native", "spmv-s"}, Threads: 2}},
		{"table11", core.ExperimentConfig{SingleMachine: []string{"native"}, Distributed: []string{"spmv-d"}, Repetitions: 3, Threads: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			dir := t.TempDir()
			a, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			exp, _ := core.ExperimentByID(tc.id)
			spec := exp.Spec(tc.cfg)
			asink := core.NewArchiveSink(a, spec.Name, &spec)
			var results []core.JobResult
			s := core.NewSession(core.WithSLA(2*time.Minute), core.WithSink(asink),
				core.WithSink(core.SinkFunc(func(r core.JobResult) error {
					results = append(results, r)
					return nil
				})))
			rep, err := s.RunExperiment(context.Background(), tc.id, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			root, err := asink.Commit()
			if err != nil {
				t.Fatal(err)
			}

			// The live render: the report RunExperiment returned, then every
			// other artifact over the same matrix, in table order.
			var live strings.Builder
			for _, e := range core.Experiments() {
				switch {
				case e.ID == tc.id:
					err = rep.Render(&live)
				case e.Matrix == exp.Matrix:
					err = e.Render(spec, results).Render(&live)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			reopened, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for name, handle := range map[string]*Archive{"sealing handle": a, "reopened": reopened} {
				out := filepath.Join(t.TempDir(), "report")
				if err := handle.WriteReportDir(root, out); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(out, "tables.txt"))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != live.String() {
					t.Errorf("%s: tables.txt differs from the live render:\n--- archived ---\n%s--- live ---\n%s", name, got, live.String())
				}
			}
		})
	}
}

// TestTablesFallBackToJobTable: a commit whose spec names no experiment
// matrix — or that carries no spec at all — reports the job table.
func TestTablesFallBackToJobTable(t *testing.T) {
	for name, spec := range map[string]*core.BenchSpec{"other spec": sampleSpec(), "no spec": nil} {
		a, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		results := sweepResults()
		if _, err := a.CommitResults("sweep", spec, results); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "report")
		if err := a.WriteReportDir("HEAD", dir); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "tables.txt"))
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := core.JobTable("sweep", "spec results: sweep", results).Render(&want); err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Errorf("%s: tables.txt is not the job table:\n%s", name, got)
		}
	}
}
