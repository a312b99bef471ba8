package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphalytics/internal/core"
	"graphalytics/internal/platforms"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median does not sort: got %v, want 5", got)
	}
}

// The percentile rule: the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {2000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = float64(i)
	}
	s := summarize("ms", samples)
	if s.N != 2000 || s.TailPct != 99 || math.Abs(s.Tail-1979.01) > 1e-9 {
		t.Errorf("summarize: n=%d tail p%v=%v, want n=2000 p99=1979.01", s.N, s.TailPct, s.Tail)
	}
}

// Self time is a span's duration minus what its children cover; spans
// running at once share the wall; the rows always sum to the root wall.
func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, name string, start, end float64) span {
		return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	cases := []struct {
		name  string
		spans []span
		want  map[string]float64
		wall  float64
	}{
		{
			"nested, with a gap the root keeps",
			[]span{sp(1, 0, "w.op", 0, 10), sp(2, 1, "core.run", 1, 9), sp(3, 2, "graph.build", 2, 5)},
			map[string]float64{unattributed: 2, "core": 5, "graph": 3}, 10,
		},
		{
			"two workers overlap for half their time",
			[]span{sp(1, 0, "w.op", 0, 6), sp(2, 1, "core.job", 0, 4), sp(3, 1, "platforms.x.execute", 2, 6)},
			map[string]float64{"core": 3, "platforms": 3}, 6,
		},
		{
			"a child sticking out is clipped to its parent",
			[]span{sp(1, 0, "w.op", 0, 4), sp(2, 1, "archive.seal", 3, 7)},
			map[string]float64{unattributed: 3, "archive": 1}, 4,
		},
		{
			"two roots add up",
			[]span{sp(1, 0, "w.op", 0, 1), sp(2, 1, "service.submit", 0, 1), sp(3, 0, "w.op", 5, 7)},
			map[string]float64{"service": 1, unattributed: 2}, 3,
		},
	}
	for _, c := range cases {
		rows, wall := selfTimes(c.spans)
		sum := 0.0
		for _, v := range rows {
			sum += v
		}
		if math.Abs(wall-c.wall) > 1e-12 || math.Abs(sum-wall) > 1e-12 {
			t.Errorf("%s: wall %v (want %v), rows sum to %v", c.name, wall, c.wall, sum)
		}
		for l, want := range c.want {
			if math.Abs(rows[l]-want) > 1e-12 {
				t.Errorf("%s: %s = %v, want %v (rows %v)", c.name, l, rows[l], want, rows)
			}
		}
		if len(rows) != len(c.want) {
			t.Errorf("%s: rows %v, want %v", c.name, rows, c.want)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON renders the metric table as BENCHMARK.json.
func benchmarkJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadNames {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{d.Name, d.Unit, d.Better, nil})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		panic(err)
	}
	return b.Bytes()
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json restates the metric table; the two must not drift.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the metric table in metrics.go; run go test ./bench -run TestBenchmarkJSON -update", path)
	}
	seen := make(map[string]bool)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, w := range workloadNames {
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w, len(why))
		}
	}
}

// The goldens pin the suite workload: what the spec compiles to, and
// which jobs no engine supports.
func TestSuiteGoldens(t *testing.T) {
	platforms.RegisterAll()
	spec, err := core.DecodeSpec(bytes.NewReader(suiteSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(core.WithCacheDir(t.TempDir()), core.WithParallelism(workerBudget()))
	plan, err := s.Compile(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 630 || len(plan.Deployments) != 112 {
		t.Errorf("suite plan has %d jobs in %d deployments, the issue sized it at 630 in 112", len(plan.Jobs), len(plan.Deployments))
	}
	results, err := s.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var unsupported []string
	for _, res := range results {
		switch res.Status {
		case core.StatusUnsupported:
			unsupported = append(unsupported, jobTriple(res.Spec))
		case core.StatusOK:
		default:
			t.Errorf("%s: %s %s", jobTriple(res.Spec), res.Status, res.Error)
		}
	}
	sort.Strings(unsupported)
	for path, got := range map[string]string{
		"testdata/suite.plan.golden":        planShape(plan),
		"testdata/suite.unsupported.golden": strings.Join(unsupported, "\n") + "\n",
	} {
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
			t.Errorf("%s is stale: the catalog or the engine registry changed what the suite workload runs; inspect and rerun with -update", path)
		}
	}
}

// Every workload, at smoke size, emits every metric BENCHMARK.json names
// for it exactly once, finite, and nothing else; checks all pass.
func TestWorkloadsSmoke(t *testing.T) {
	scratch := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := execute(name, smokeSizes, 1, 0, traced, scratch)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range endToEnd {
				if s, ok := res.Metrics[d.Name]; !ok || !(s.Median > 0) || math.IsInf(s.Median, 0) {
					t.Errorf("%s traced=%v: end-to-end metric %s = %+v, want a positive finite median", name, traced, d.Name, s)
				}
			}
			if !traced {
				checkLine(t, name, resultLine(res, false), endToEnd)
				continue
			}
			for _, d := range perLayer {
				s, ok := res.Metrics[d.Name]
				if ok != d.measuredBy(name) {
					t.Errorf("%s: per-layer metric %s measured = %v, the table says %v", name, d.Name, ok, d.measuredBy(name))
				}
				if ok && (math.IsNaN(s.Median) || math.IsInf(s.Median, 0)) {
					t.Errorf("%s: per-layer metric %s = %v", name, d.Name, s.Median)
				}
			}
			checkLine(t, name, resultLine(res, true), perLayer)
			sum := 0.0
			for _, v := range res.Breakdown {
				sum += v
			}
			if res.BreakdownOps == 0 || math.Abs(sum-res.BreakdownWall) > 1e-9*res.BreakdownWall {
				t.Errorf("%s: breakdown of %d operations sums to %v, wall is %v", name, res.BreakdownOps, sum, res.BreakdownWall)
			}
		}
	}
}

// checkLine holds the last stdout line to the contract: exactly four
// keys, and exactly the declared metrics, each once.
func checkLine(t *testing.T, workload, line string, defs []metricDef) {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: result line does not parse: %v\n%s", workload, err, line)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Errorf("%s: result line lacks correct/attempted/failed: %s", workload, line)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%s: result line has %d metrics, want %d", workload, len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("%s: result line metric %s = %+v, want a value in %s", workload, d.Name, m, d.Unit)
		}
	}
}
