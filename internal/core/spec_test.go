package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/core -run TestCompileGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenSpec is the fixed spec of the golden-plan test; it mirrors the
// CLI's testdata/spec.json shape (explicit IDs, so compilation touches no
// graphs).
func goldenSpec() core.BenchSpec {
	return core.BenchSpec{
		Name:       "golden",
		Platforms:  []string{"native", "spmv-s"},
		Datasets:   core.DatasetSelector{IDs: []string{"R1", "R2"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC},
		Configs:    []core.ResourceSpec{{Threads: 2, Machines: 1}},
		SLA:        core.Duration(time.Minute),
		Validation: core.ValidationReference,
	}
}

// TestCompileGolden pins the compiled plan listing byte for byte: the
// same spec must always compile to the same plan, and the listing format
// is a contract (the CLI's `plan` dry run is diffed against a golden file
// in CI the same way).
func TestCompileGolden(t *testing.T) {
	plan, err := core.CompileSpec(goldenSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Render(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("plan listing drifted from testdata/plan.golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), golden)
	}
}

// TestCompileDeterministic compiles the same spec twice and requires
// byte-identical listings and JSON.
func TestCompileDeterministic(t *testing.T) {
	render := func() (string, string) {
		plan, err := core.CompileSpec(goldenSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var listing, js bytes.Buffer
		if err := plan.Render(&listing); err != nil {
			t.Fatal(err)
		}
		if err := plan.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return listing.String(), js.String()
	}
	l1, j1 := render()
	l2, j2 := render()
	if l1 != l2 {
		t.Error("plan listing is not deterministic")
	}
	if j1 != j2 {
		t.Error("plan JSON is not deterministic")
	}
}

// TestCompileGrouping checks the deployment invariants: one group per
// (platform, dataset, config), jobs consecutive within their group, every
// job in exactly one group (Plan.check passes).
func TestCompileGrouping(t *testing.T) {
	spec := goldenSpec()
	spec.Repetitions = 2
	plan, err := core.CompileSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 platforms x 2 datasets x 3 algorithms x 2 reps = 24 jobs in 4 groups.
	if len(plan.Jobs) != 24 {
		t.Fatalf("got %d jobs, want 24", len(plan.Jobs))
	}
	if len(plan.Deployments) != 4 {
		t.Fatalf("got %d deployments, want 4", len(plan.Deployments))
	}
	for gi, dep := range plan.Deployments {
		if len(dep.Jobs) != 6 {
			t.Errorf("deployment %d has %d jobs, want 6", gi, len(dep.Jobs))
		}
		for k := 1; k < len(dep.Jobs); k++ {
			if dep.Jobs[k] != dep.Jobs[k-1]+1 {
				t.Errorf("deployment %d jobs not consecutive: %v", gi, dep.Jobs)
			}
		}
	}
	// SLA is stamped on every job.
	for i, job := range plan.Jobs {
		if job.SLA != time.Minute {
			t.Fatalf("job %d SLA = %v, want 1m", i, job.SLA)
		}
	}
}

// TestCompileClassSelector resolves a MaxClass selector: no XL dataset
// may appear in an up-to-L plan, and datasets are sorted by scale.
func TestCompileClassSelector(t *testing.T) {
	spec := core.BenchSpec{
		Name:       "classes",
		Platforms:  []string{"native"},
		Datasets:   core.DatasetSelector{MaxClass: "L"},
		Algorithms: []algorithms.Algorithm{algorithms.BFS},
	}
	plan, err := core.CompileSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) == 0 {
		t.Fatal("class selector produced no jobs")
	}
	for _, job := range plan.Jobs {
		for _, banned := range []string{"R5", "R6", "D1000", "G26"} {
			if job.Dataset == banned {
				t.Errorf("class-XL dataset %s leaked into the up-to-L plan", banned)
			}
		}
	}
}

// TestSpecValidateErrors covers the up-front configuration checks.
func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec core.BenchSpec
	}{
		{"unknown platform", core.BenchSpec{Platforms: []string{"no-such-engine"}}},
		{"unknown dataset", core.BenchSpec{Datasets: core.DatasetSelector{IDs: []string{"XYZ"}}}},
		{"unknown class", core.BenchSpec{Datasets: core.DatasetSelector{MaxClass: "XXL"}}},
		{"unknown algorithm", core.BenchSpec{Algorithms: []algorithms.Algorithm{"nope"}}},
		{"bad policy", core.BenchSpec{Platforms: []string{"native"}, Validation: "sometimes"}},
		{"negative reps", core.BenchSpec{Platforms: []string{"native"}, Repetitions: -1}},
		{"negative threads", core.BenchSpec{Platforms: []string{"native"}, Configs: []core.ResourceSpec{{Threads: -3, Machines: 1}}}},
		{"negative machines", core.BenchSpec{Sweeps: []core.Sweep{{Configs: []core.ResourceSpec{{Threads: 1, Machines: -1}}}}}},
		{"negative memory", core.BenchSpec{Platforms: []string{"native"}, Configs: []core.ResourceSpec{{Threads: 1, Machines: 1, MemoryPerMachine: -1}}}},
		{"2^30 threads", core.BenchSpec{Platforms: []string{"native"}, Configs: []core.ResourceSpec{{Threads: 1 << 30, Machines: 1}}}},
		{"1025 machines", core.BenchSpec{Sweeps: []core.Sweep{{Configs: []core.ResourceSpec{{Threads: 1, Machines: 1025}}}}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
		if _, err := core.CompileSpec(tc.spec, nil); err == nil {
			t.Errorf("%s: CompileSpec accepted an invalid spec", tc.name)
		}
	}
	ok := goldenSpec()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bound := core.BenchSpec{Platforms: []string{"native"}, Configs: []core.ResourceSpec{{Threads: 1024, Machines: 1024}}}
	if err := bound.Validate(); err != nil {
		t.Errorf("1024 threads on 1024 machines rejected: %v", err)
	}
}

// TestSpecJSONRoundTrip checks the human-writable duration forms: a
// round-tripped spec is unchanged, and both "1m" strings and integer
// nanoseconds decode.
func TestSpecJSONRoundTrip(t *testing.T) {
	sp := goldenSpec()
	var buf bytes.Buffer
	if err := core.WriteSpec(&buf, &sp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"1m0s"`) {
		t.Errorf("SLA should marshal as a duration string:\n%s", buf.String())
	}
	var back core.BenchSpec
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.SLA != sp.SLA || back.Name != sp.Name || len(back.Algorithms) != len(sp.Algorithms) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", sp, back)
	}
	var numeric core.BenchSpec
	if err := json.Unmarshal([]byte(`{"name":"n","sla":60000000000}`), &numeric); err != nil {
		t.Fatal(err)
	}
	if time.Duration(numeric.SLA) != time.Minute {
		t.Fatalf("numeric SLA decoded to %v, want 1m", time.Duration(numeric.SLA))
	}
	if err := json.Unmarshal([]byte(`{"sla":"not-a-duration"}`), &numeric); err == nil {
		t.Fatal("bad duration string should fail to decode")
	}
}

// TestExperimentSpecBuilders compiles every experiment spec builder and
// sanity-checks the matrices they declare.
func TestExperimentSpecBuilders(t *testing.T) {
	cfg := core.ExperimentConfig{
		Platforms:     []string{"native", "spmv-s"},
		SingleMachine: []string{"native"},
		Distributed:   []string{"spmv-d"},
		Threads:       2,
		ThreadSweep:   []int{1, 2},
		MachineSweep:  []int{1, 2},
		WeakPairs:     []core.WeakPair{{Machines: 1, Dataset: "G22"}, {Machines: 2, Dataset: "G23"}},
		MemoryBudget:  1 << 20,
		Repetitions:   3,
	}
	builders := map[string]func(core.ExperimentConfig) core.BenchSpec{
		"fig4":    core.DatasetVarietySpec,
		"fig6":    core.AlgorithmVarietySpec,
		"fig7":    core.VerticalScalabilitySpec,
		"fig8":    core.StrongScalingSpec,
		"fig9":    core.WeakScalingSpec,
		"table8":  core.MakespanBreakdownSpec,
		"table10": core.StressTestSpec,
		"table11": core.VariabilitySpec,
	}
	for id, build := range builders {
		spec := build(cfg)
		if spec.Name != id {
			t.Errorf("%s: builder named the spec %q", id, spec.Name)
		}
		plan, err := core.CompileSpec(spec, nil)
		if err != nil {
			t.Errorf("%s: compile: %v", id, err)
			continue
		}
		if len(plan.Jobs) == 0 {
			t.Errorf("%s: empty plan", id)
		}
	}
	// The SSSP substitution lands in a dedicated sweep on the substitute
	// backend: spmv-s never runs SSSP, spmv-d does.
	plan, err := core.CompileSpec(core.AlgorithmVarietySpec(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	sssp := map[string]bool{}
	for _, job := range plan.Jobs {
		if job.Algorithm == algorithms.SSSP {
			sssp[job.Platform] = true
		}
	}
	if sssp["spmv-s"] || !sssp["spmv-d"] || !sssp["native"] {
		t.Errorf("SSSP substitution wrong: %v", sssp)
	}
	// Variability declares its repetitions.
	vplan, err := core.CompileSpec(core.VariabilitySpec(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vplan.Jobs) != 3*2 { // 3 reps x (1 single-machine + 1 distributed)
		t.Errorf("variability plan has %d jobs, want 6", len(vplan.Jobs))
	}
	// With the axes empty, every builder declares an empty matrix — never
	// an accidental everything-matrix.
	for id, build := range builders {
		plan, err := core.CompileSpec(build(core.ExperimentConfig{}), nil)
		if err != nil {
			t.Errorf("%s: compile of empty config: %v", id, err)
			continue
		}
		if len(plan.Jobs) != 0 {
			t.Errorf("%s: empty config compiled to %d jobs, want 0", id, len(plan.Jobs))
		}
	}
}

// TestEmptySpecCompilesEmpty: a spec with no axes and no sweeps is an
// empty plan; selecting everything requires an explicit all-default
// sweep.
func TestEmptySpecCompilesEmpty(t *testing.T) {
	plan, err := core.CompileSpec(core.BenchSpec{Name: "nothing"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 0 || len(plan.Deployments) != 0 {
		t.Fatalf("empty spec compiled to %d jobs in %d deployments, want 0", len(plan.Jobs), len(plan.Deployments))
	}
	everything, err := core.CompileSpec(core.BenchSpec{
		Name:   "everything",
		Sweeps: []core.Sweep{{Datasets: core.DatasetSelector{IDs: []string{"R1"}}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One explicit sweep: all platforms x R1 x all six algorithms.
	if len(everything.Jobs) == 0 {
		t.Fatal("explicit sweep should expand its empty axes")
	}
}

// TestMixedSLAJobsDoNotShareDeployments: jobs differing only in SLA
// compile into separate deployments — the group's single upload runs in
// one SLA window, so budgets must agree within a group.
func TestMixedSLAJobsDoNotShareDeployments(t *testing.T) {
	plan := core.PlanFromSpecs("mixed", []core.JobSpec{
		{Platform: "native", Dataset: "R1", Algorithm: algorithms.BFS, Threads: 1, Machines: 1, SLA: time.Millisecond},
		{Platform: "native", Dataset: "R1", Algorithm: algorithms.PR, Threads: 1, Machines: 1, SLA: time.Minute},
	})
	if len(plan.Deployments) != 2 {
		t.Fatalf("mixed-SLA jobs landed in %d deployments, want 2", len(plan.Deployments))
	}
}

// The benchmark description of the paper's Figure 1 (component 1) is the
// BenchSpec. The TestDescription* tests pin what a description promises
// whoever writes one: the order its matrix expands in, what empty axes
// default to, which mistakes are refused up front, and that it survives
// the trip through a file.

// TestDescriptionJobsExpansion: the matrix expands platform → dataset →
// algorithm → repetition, every axis fully crossed.
func TestDescriptionJobsExpansion(t *testing.T) {
	spec := core.BenchSpec{
		Name:       "mini",
		Platforms:  []string{"native", "spmv-s"},
		Datasets:   core.DatasetSelector{IDs: []string{"R1", "R2"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    []core.ResourceSpec{{Threads: 2}},
	}
	plan, err := core.CompileSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 8 {
		t.Fatalf("expanded to %d jobs, want 2*2*2", len(plan.Jobs))
	}
	spec.Repetitions = 3
	plan, err = core.CompileSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 24 {
		t.Fatalf("with repetitions: %d jobs, want 24", len(plan.Jobs))
	}
	i := 0
	for _, p := range spec.Platforms {
		for _, ds := range spec.Datasets.IDs {
			for _, a := range spec.Algorithms {
				for rep := 0; rep < 3; rep++ {
					want := core.JobSpec{Platform: p, Dataset: ds, Algorithm: a, Threads: 2}
					if plan.Jobs[i] != want {
						t.Fatalf("job %d = %+v, want %+v", i, plan.Jobs[i], want)
					}
					i++
				}
			}
		}
	}
}

// TestDescriptionDefaults: an all-default sweep selects every registered
// platform, the full catalog and all six algorithms.
func TestDescriptionDefaults(t *testing.T) {
	plan, err := core.CompileSpec(core.BenchSpec{Name: "all", Sweeps: []core.Sweep{{}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(platform.Names()) * len(workload.Catalog()) * len(algorithms.All)
	if len(plan.Jobs) != want {
		t.Fatalf("default expansion = %d jobs, want %d", len(plan.Jobs), want)
	}
}

// TestDescriptionValidate: a description naming something that does not
// exist is refused before any job runs, and the error says what.
func TestDescriptionValidate(t *testing.T) {
	bad := []core.BenchSpec{
		{Name: "p", Platforms: []string{"nope"}},
		{Name: "d", Datasets: core.DatasetSelector{IDs: []string{"nope"}}},
		{Name: "a", Algorithms: []algorithms.Algorithm{"nope"}},
	}
	for _, spec := range bad {
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), `"`+spec.Name+`"`) {
			t.Errorf("description %q: Validate = %v, want an error naming the description and \"nope\"", spec.Name, err)
		}
	}
	if err := (&core.BenchSpec{Name: "r", Platforms: []string{"native"}, Repetitions: -1}).Validate(); err == nil {
		t.Error("negative repetitions accepted")
	}
}

// TestDescriptionJSONRoundTrip: a description written to a file loads back
// unchanged; a missing or misspelled one is an error, not an empty matrix.
func TestDescriptionJSONRoundTrip(t *testing.T) {
	sp := goldenSpec()
	var buf bytes.Buffer
	if err := core.WriteSpec(&buf, &sp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*back, sp) {
		t.Fatalf("round trip changed the description:\n%+v\n%+v", *back, sp)
	}
	if _, err := core.LoadSpec(filepath.Join(t.TempDir(), "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	if err := os.WriteFile(path, []byte(`{"name":"typo","platform":["native"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadSpec(path); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestDecodeSpecRejectsTrailingData: the spec must be the whole input, so
// a second object, a stray delimiter or junk after it is an error rather
// than silently dropped; trailing white space stays legal.
func TestDecodeSpecRejectsTrailingData(t *testing.T) {
	const spec = `{"name":"n","platforms":["native"]}`
	for _, trailer := range []string{`{"platforms":["pregel"]}`, `}`, `x`} {
		if _, err := core.DecodeSpec(strings.NewReader(spec + trailer)); err == nil {
			t.Errorf("spec followed by %q accepted", trailer)
		}
	}
	sp, err := core.DecodeSpec(strings.NewReader(spec + " \n\t\n"))
	if err != nil {
		t.Fatalf("spec followed by white space rejected: %v", err)
	}
	if sp.Name != "n" || !reflect.DeepEqual(sp.Platforms, []string{"native"}) {
		t.Fatalf("decoded %+v", *sp)
	}
}

// FuzzDecodeSpec holds the spec decoder to two properties: no input makes
// it panic, and a spec it accepts and that validates survives WriteSpec →
// DecodeSpec unchanged, but for empty lists, which WriteSpec omits and
// which so decode back as nil. The seed corpus in
// testdata/fuzz/FuzzDecodeSpec holds the benchmark's suite spec, durations
// as a string and as integer nanoseconds, an unknown field, and the three
// trailing-data cases.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := core.DecodeSpec(bytes.NewReader(data))
		if err != nil || sp.Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := core.WriteSpec(&buf, sp); err != nil {
			t.Fatal(err)
		}
		back, err := core.DecodeSpec(&buf)
		if err != nil {
			t.Fatalf("written spec does not decode: %v", err)
		}
		if want := withoutEmptyLists(*sp); !reflect.DeepEqual(*back, want) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", want, *back)
		}
	})
}

// withoutEmptyLists returns sp with every empty list set to nil.
func withoutEmptyLists(sp core.BenchSpec) core.BenchSpec {
	sp.Platforms, sp.Algorithms, sp.Configs = orNil(sp.Platforms), orNil(sp.Algorithms), orNil(sp.Configs)
	sp.Datasets.IDs = orNil(sp.Datasets.IDs)
	sp.Sweeps = orNil(slices.Clone(sp.Sweeps))
	for i := range sp.Sweeps {
		sw := &sp.Sweeps[i]
		sw.Platforms, sw.Algorithms, sw.Configs = orNil(sw.Platforms), orNil(sw.Algorithms), orNil(sw.Configs)
		sw.Datasets.IDs = orNil(sw.Datasets.IDs)
	}
	return sp
}

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
