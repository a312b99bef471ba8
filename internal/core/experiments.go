package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/metrics"
)

// This file implements the experiment suites of Table 6 on the Spec →
// Plan → Run pipeline. Each paper artifact is one row of the experiment
// table: a spec builder (XxxSpec) returning the declarative BenchSpec of
// its job matrix, and a pure renderer (renderers.go) turning that spec
// and the matrix's results into the artifact's rows. Running and
// rendering are separate steps — Session.RunMatrix executes a matrix,
// Experiment.Render is a function of (spec, results) alone — so the same
// table regenerates an artifact from a live run or from a sealed archive
// commit. Section numbers refer to the paper.

// ExperimentConfig parameterizes the experiment suites: which platforms to
// sweep, the resource axes, and the experiment-specific knobs. Zero values
// select nothing — every experiment documents the fields it reads.
type ExperimentConfig struct {
	// Platforms lists the engines under test for single-axis experiments.
	Platforms []string
	// SingleMachine and Distributed split the engines for experiments
	// that treat the two deployment styles differently (Variability).
	SingleMachine []string
	Distributed   []string
	// Threads is the per-machine thread count for experiments that do not
	// sweep threads.
	Threads int
	// ThreadSweep is the thread axis of the vertical-scalability sweep.
	ThreadSweep []int
	// MachineSweep is the machine axis of the strong-scaling sweep.
	MachineSweep []int
	// WeakPairs couples machine counts with datasets for weak scaling.
	WeakPairs []WeakPair
	// MemoryBudget bounds per-machine engine memory in the stress test.
	MemoryBudget int64
	// Repetitions is the per-job repeat count in the variability
	// experiment; values below 1 select 1.
	Repetitions int
}

// effectivePlatform substitutes the distributed matrix backend for SSSP on
// the shared-memory one, exactly as the paper does ("SSSP is not supported
// in S, so we use D only for this algorithm").
func effectivePlatform(name string, a algorithms.Algorithm) string {
	if name == "spmv-s" && a == algorithms.SSSP {
		return "spmv-d"
	}
	return name
}

// DatasetVarietySpec declares the Figure 4 matrix: BFS and PageRank on
// every dataset up to class L, on a single machine, for every platform.
// An empty platform list declares an empty matrix.
func DatasetVarietySpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "fig4"}
	}
	return BenchSpec{
		Name:       "fig4",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{MaxClass: string(metrics.ClassL)},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
	}
}

// algorithmVarietyDatasets are the two weighted graphs of Figure 6.
var algorithmVarietyDatasets = []string{"R4", "D300"}

// AlgorithmVarietySpec declares the Figure 6 matrix: all six algorithms
// on R4(S) and D300(L). SSSP jobs for platforms with a distributed
// substitute backend (spmv-s → spmv-d) land in a second sweep on the
// substitute, mirroring the paper's footnote. An empty platform list
// declares an empty matrix.
func AlgorithmVarietySpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "fig6"}
	}
	nonSSSP := make([]algorithms.Algorithm, 0, len(algorithms.All)-1)
	for _, a := range algorithms.All {
		if a != algorithms.SSSP {
			nonSSSP = append(nonSSSP, a)
		}
	}
	var ssspPlatforms []string
	for _, p := range cfg.Platforms {
		eff := effectivePlatform(p, algorithms.SSSP)
		if !slices.Contains(ssspPlatforms, eff) {
			ssspPlatforms = append(ssspPlatforms, eff)
		}
	}
	spec := BenchSpec{
		Name:       "fig6",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: algorithmVarietyDatasets},
		Algorithms: nonSSSP,
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
	}
	if len(ssspPlatforms) > 0 {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  ssspPlatforms,
			Datasets:   DatasetSelector{IDs: algorithmVarietyDatasets},
			Algorithms: []algorithms.Algorithm{algorithms.SSSP},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
		})
	}
	return spec
}

// VerticalScalabilitySpec declares the Figure 7 matrix: BFS and PageRank
// on D300(L) across the thread sweep on one machine. An empty platform
// list or thread sweep declares an empty matrix.
func VerticalScalabilitySpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 || len(cfg.ThreadSweep) == 0 {
		return BenchSpec{Name: "fig7"}
	}
	configs := make([]ResourceSpec, 0, len(cfg.ThreadSweep))
	for _, t := range cfg.ThreadSweep {
		configs = append(configs, ResourceSpec{Threads: t, Machines: 1})
	}
	return BenchSpec{
		Name:       "fig7",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: []string{"D300"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    configs,
	}
}

// StrongScalingSpec declares the Figure 8 matrix: BFS and PageRank on
// D1000(XL) across the machine sweep, dataset constant. An empty
// platform list or machine sweep declares an empty matrix.
func StrongScalingSpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 || len(cfg.MachineSweep) == 0 {
		return BenchSpec{Name: "fig8"}
	}
	configs := make([]ResourceSpec, 0, len(cfg.MachineSweep))
	for _, m := range cfg.MachineSweep {
		configs = append(configs, ResourceSpec{Threads: cfg.Threads, Machines: m})
	}
	return BenchSpec{
		Name:       "fig8",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: []string{"D1000"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    configs,
	}
}

// WeakPair couples a machine count with the Graph500 dataset that keeps
// per-machine work constant.
type WeakPair struct {
	Machines int
	Dataset  string
}

// DefaultWeakPairs mirrors the paper: G22 on 1 machine through G26 on 16.
func DefaultWeakPairs() []WeakPair {
	return []WeakPair{
		{1, "G22"}, {2, "G23"}, {4, "G24"}, {8, "G25"}, {16, "G26"},
	}
}

// WeakScalingSpec declares the Figure 9 matrix: BFS and PageRank on the
// Graph500 series, machine count and dataset doubling together — one
// sweep per (machines, dataset) pair, since the two axes are coupled.
func WeakScalingSpec(cfg ExperimentConfig) BenchSpec {
	spec := BenchSpec{Name: "fig9"}
	if len(cfg.Platforms) == 0 || len(cfg.WeakPairs) == 0 {
		return spec
	}
	for _, pr := range cfg.WeakPairs {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  cfg.Platforms,
			Datasets:   DatasetSelector{IDs: []string{pr.Dataset}},
			Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: pr.Machines}},
		})
	}
	return spec
}

// StressTestSpec declares the full Table 10 probe matrix: BFS on every
// catalog dataset in ascending scale order under the memory budget, for
// every platform. RunMatrix probes it adaptively — each platform stops at
// its first failure (probePlan) — so the spec is the unpruned matrix:
// executing it verbatim through RunPlan runs every probe.
func StressTestSpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "table10"}
	}
	return BenchSpec{
		Name:       "table10",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{MaxClass: string(metrics.Class2XL)},
		Algorithms: []algorithms.Algorithm{algorithms.BFS},
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1, MemoryPerMachine: cfg.MemoryBudget}},
	}
}

// VariabilitySpec declares the Table 11 matrix: BFS repeated n times on
// D300 with one machine for the single-machine platforms, and on D1000
// with 16 machines for the distributed ones. Each platform set is its own
// sweep; repetitions of one platform share its deployment (one upload, n
// measured executions).
func VariabilitySpec(cfg ExperimentConfig) BenchSpec {
	n := cfg.Repetitions
	if n < 1 {
		n = 1
	}
	spec := BenchSpec{Name: "table11", Repetitions: n}
	if len(cfg.SingleMachine) > 0 {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  cfg.SingleMachine,
			Datasets:   DatasetSelector{IDs: []string{"D300"}},
			Algorithms: []algorithms.Algorithm{algorithms.BFS},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
		})
	}
	if len(cfg.Distributed) > 0 {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  cfg.Distributed,
			Datasets:   DatasetSelector{IDs: []string{"D1000"}},
			Algorithms: []algorithms.Algorithm{algorithms.BFS},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 16}},
		})
	}
	return spec
}

// MakespanBreakdownSpec declares the Table 8 matrix: one BFS job on
// D300(L) per platform. An empty platform list declares an empty matrix.
func MakespanBreakdownSpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "table8"}
	}
	return BenchSpec{
		Name:       "table8",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: []string{"D300"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS},
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
	}
}

// Experiment is one row of the experiment table — one paper artifact: the
// builder of the job matrix it is derived from and the pure renderer of
// its rows. Two artifacts over the same matrix (Figure 5 over Figure 4's,
// Table 9 over Figure 7's) share the builder and differ in the renderer.
type Experiment struct {
	// ID names the paper artifact ("fig4", "table9").
	ID string
	// Matrix is the name of the spec Spec builds, i.e. the ID of the
	// experiment whose run this artifact renders.
	Matrix string
	// Spec declares the job matrix for a configuration.
	Spec func(ExperimentConfig) BenchSpec
	// Render derives the artifact from the matrix's spec and results. It
	// takes its axes from the spec and dataset rows, classes and scales
	// from the results, and touches nothing else — no session, no graph.
	// A job the results do not hold renders as "-".
	Render func(BenchSpec, []JobResult) *Report
	// probe runs the matrix adaptively (probePlan) instead of as a static
	// plan; opts apply to the plan's run.
	probe bool
	opts  []Option
}

// experiments is the experiment table, in the paper's order.
var experiments = []Experiment{
	{ID: "fig4", Matrix: "fig4", Spec: DatasetVarietySpec, Render: renderDatasetVariety},
	{ID: "fig5", Matrix: "fig4", Spec: DatasetVarietySpec, Render: renderThroughput},
	{ID: "table8", Matrix: "table8", Spec: MakespanBreakdownSpec, Render: renderMakespanBreakdown},
	{ID: "fig6", Matrix: "fig6", Spec: AlgorithmVarietySpec, Render: renderAlgorithmVariety},
	{ID: "fig7", Matrix: "fig7", Spec: VerticalScalabilitySpec, Render: renderVerticalScalability},
	{ID: "table9", Matrix: "fig7", Spec: VerticalScalabilitySpec, Render: renderVerticalSpeedup},
	{ID: "fig8", Matrix: "fig8", Spec: StrongScalingSpec, Render: renderStrongScaling},
	{ID: "fig9", Matrix: "fig9", Spec: WeakScalingSpec, Render: renderWeakScaling},
	{ID: "table10", Matrix: "table10", Spec: StressTestSpec, Render: renderStressTest, probe: true},
	// One worker: overlapping the variability experiment's repetitions
	// would perturb the very timing distribution it measures.
	{ID: "table11", Matrix: "table11", Spec: VariabilitySpec, Render: renderVariability, opts: []Option{WithParallelism(1)}},
}

// Experiments returns the experiment table in the paper's order.
func Experiments() []Experiment { return slices.Clone(experiments) }

// ExperimentByID looks an artifact up in the experiment table.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunMatrix executes the job matrix of one experiment (Sections 4.1-4.7)
// — compile its spec, run the plan with shared uploads — and returns the
// spec and results: the two inputs of Experiment.Render, for this
// artifact and for every other one over the same matrix. An error that is
// sink-only (SinkOnly) comes with the complete results: the jobs
// finished, so the caller renders its report and returns both. Any other
// error — cancellation included — comes with no results.
func (s *Session) RunMatrix(ctx context.Context, id string, cfg ExperimentConfig) (BenchSpec, []JobResult, error) {
	exp, ok := ExperimentByID(id)
	if !ok {
		return BenchSpec{}, nil, fmt.Errorf("core: unknown experiment %q", id)
	}
	spec := exp.Spec(cfg)
	s.emit(Event{Type: EventExperimentStarted, Experiment: exp.Matrix})
	defer s.emit(Event{Type: EventExperimentFinished, Experiment: exp.Matrix})
	plan, err := s.Compile(spec)
	if err != nil {
		return spec, nil, err
	}
	var results []JobResult
	if exp.probe {
		results, err = s.probePlan(ctx, plan)
	} else {
		results, err = s.RunPlan(ctx, plan, exp.opts...)
	}
	if err != nil && !SinkOnly(err) {
		return spec, nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return spec, nil, cerr
	}
	return spec, results, err
}

// RunExperiment regenerates one paper artifact: RunMatrix, then the
// artifact's renderer. A sink-only error comes with the finished report.
func (s *Session) RunExperiment(ctx context.Context, id string, cfg ExperimentConfig) (*Report, error) {
	spec, results, err := s.RunMatrix(ctx, id, cfg)
	if err != nil && !SinkOnly(err) {
		return nil, err
	}
	exp, _ := ExperimentByID(id)
	return exp.Render(spec, results), err
}

// probePlan runs the stress test's plan adaptively: it lists each
// platform's datasets in ascending scale order, and a platform stops at
// its first failure — the one experiment whose job list depends on
// earlier outcomes, so there is no static plan to schedule. Probes run
// sequentially, each on an upload of its own.
func (s *Session) probePlan(ctx context.Context, plan *Plan) ([]JobResult, error) {
	var results []JobResult
	var sinkErrs []error
	failed := map[string]bool{}
	for _, job := range plan.Jobs {
		if failed[job.Platform] {
			continue
		}
		res, err := s.RunJob(ctx, job)
		if err != nil {
			// A failing sink must not abort the probe sweep (the job
			// itself completed); real harness errors are fatal.
			if !errors.Is(err, ErrSink) {
				return nil, err
			}
			sinkErrs = append(sinkErrs, err)
		}
		if ctx.Err() != nil {
			break
		}
		results = append(results, res)
		failed[job.Platform] = !res.Completed()
	}
	return results, errors.Join(sinkErrs...)
}
