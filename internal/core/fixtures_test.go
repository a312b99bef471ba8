package core_test

import (
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/metrics"
)

// This file hand-builds the result sets the renderer goldens are rendered
// from: fixed durations, every failure marker, no graph ever loaded. Each
// fixture is an experiment configuration plus the results its matrix
// would return, in plan order.

// fixtureDataset is the identity a result carries of the dataset it ran.
type fixtureDataset struct {
	id    string
	scale float64
	class metrics.Class
}

// fixtureCatalog lists the catalog in ascending scale order — the order
// class selectors resolve to, so fixture results are in plan order.
var fixtureCatalog = []fixtureDataset{
	{"R1", 2.9, metrics.Class2XS}, {"R2", 3.3, metrics.ClassXS}, {"R3", 3.3, metrics.ClassXS},
	{"R4", 3.7, metrics.ClassS}, {"G22", 3.7, metrics.ClassS}, {"G23", 4.1, metrics.ClassM},
	{"D100", 4.2, metrics.ClassM}, {"D100cc015", 4.2, metrics.ClassM}, {"D100cc005", 4.3, metrics.ClassM},
	{"G24", 4.4, metrics.ClassM}, {"D300", 4.7, metrics.ClassL}, {"G25", 4.7, metrics.ClassL},
	{"G26", 5.0, metrics.ClassXL}, {"R6", 5.1, metrics.ClassXL}, {"D1000", 5.2, metrics.ClassXL},
	{"R5", 5.3, metrics.ClassXL},
}

// upToL is the number of leading fixtureCatalog entries of class L or
// smaller: Figure 4's dataset rows.
const upToL = 12

var fixturePlatformFactor = map[string]time.Duration{
	"native": 1, "spmv-s": 2, "spmv-d": 3, "pushpull": 5, "gas": 11, "pregel": 41, "dataflow": 97,
}

// fixtureTproc is a fixed processing time per job: it grows 3x per
// catalog step (40us on R1 to minutes on R5, so every duration format
// appears), differs per platform and algorithm, and shrinks sublinearly
// with threads and machines. rep separates repetitions.
func fixtureTproc(job core.JobSpec, rep int) time.Duration {
	d := 40 * time.Microsecond
	for _, ds := range fixtureCatalog {
		if ds.id == job.Dataset {
			break
		}
		d *= 3
	}
	d *= fixturePlatformFactor[job.Platform]
	for i, a := range algorithms.All {
		if a == job.Algorithm {
			d += d * time.Duration(i) / 2
		}
	}
	par := time.Duration(max(job.Threads, 1) * max(job.Machines, 1))
	return d/par + d/16 + time.Duration(rep)*d/50
}

// fixtureResult is the record of one completed job.
func fixtureResult(job core.JobSpec, rep int) core.JobResult {
	var ds fixtureDataset
	for _, d := range fixtureCatalog {
		if d.id == job.Dataset {
			ds = d
		}
	}
	tproc := fixtureTproc(job, rep)
	return core.JobResult{
		Spec:           job,
		Status:         core.StatusOK,
		Timestamp:      time.Date(2026, 10, 3, 9, 0, 0, 0, time.UTC),
		Scale:          ds.scale,
		Class:          ds.class,
		UploadTime:     tproc/3 + 250*time.Microsecond,
		Makespan:       2*tproc + time.Millisecond,
		ProcessingTime: tproc,
		EPS:            4.5e4 * ds.scale / tproc.Seconds(),
		EVPS:           5e4 * ds.scale / tproc.Seconds(),
		Rounds:         7,
		Validated:      true,
		ValidationOK:   true,
	}
}

// fail turns a fixture result into a job that ended with status st.
func fail(r core.JobResult, st core.Status) core.JobResult {
	return core.JobResult{
		Spec: r.Spec, Status: st, Error: string(st), Timestamp: r.Timestamp,
		Scale: r.Scale, Class: r.Class, UploadTime: r.UploadTime,
	}
}

// reportFixture is one renderer's input.
type reportFixture struct {
	// id is the experiment ID the golden is named after.
	id string
	// cfg is the experiment configuration the matrix was built from.
	cfg core.ExperimentConfig
	// results are the matrix's results, in plan order.
	results []core.JobResult
}

// fixtureJobs compiles spec into its plan-order job list. Class selectors
// are pinned to the first n fixtureCatalog IDs, so nothing materializes.
func fixtureJobs(t testing.TB, spec core.BenchSpec, n int) []core.JobSpec {
	t.Helper()
	if spec.Datasets.MaxClass != "" {
		spec.Datasets = core.DatasetSelector{}
		for _, d := range fixtureCatalog[:n] {
			spec.Datasets.IDs = append(spec.Datasets.IDs, d.id)
		}
	}
	plan, err := core.CompileSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Jobs
}

// fixtureRun turns a job list into results: every job completes unless
// status names another outcome for it. probe drops a platform's jobs
// after its first failure, as the stress test does.
func fixtureRun(jobs []core.JobSpec, probe bool, status func(core.JobSpec, int) core.Status) []core.JobResult {
	var out []core.JobResult
	reps := map[core.JobSpec]int{}
	stopped := map[string]bool{}
	for _, job := range jobs {
		if probe && stopped[job.Platform] {
			continue
		}
		rep := reps[job]
		reps[job]++
		res := fixtureResult(job, rep)
		if st := status(job, rep); st != core.StatusOK {
			res = fail(res, st)
			stopped[job.Platform] = probe
		}
		out = append(out, res)
	}
	return out
}

// reportFixtures builds the fixture of every experiment in the table.
func reportFixtures(t testing.TB) []reportFixture {
	t.Helper()
	is := func(job core.JobSpec, p, ds string, a algorithms.Algorithm) bool {
		return job.Platform == p && job.Dataset == ds && job.Algorithm == a
	}

	// Figures 4 and 5: an OOM, an SLA break and a crash among the cells.
	variety := core.ExperimentConfig{Platforms: []string{"native", "spmv-s", "pregel"}, Threads: 4}
	varietyResults := fixtureRun(fixtureJobs(t, core.DatasetVarietySpec(variety), upToL), false,
		func(job core.JobSpec, _ int) core.Status {
			switch {
			case is(job, "pregel", "D300", algorithms.PR):
				return core.StatusOOM
			case is(job, "pregel", "G25", algorithms.BFS):
				return core.StatusSLABreak
			case is(job, "spmv-s", "R3", algorithms.BFS):
				return core.StatusFailed
			}
			return core.StatusOK
		})

	// Figure 6: pushpull has no LCC, spmv-s runs SSSP on spmv-d, and the
	// substitute runs out of memory on D300.
	algs := core.ExperimentConfig{Platforms: []string{"native", "spmv-s", "pushpull"}, Threads: 4}
	algResults := fixtureRun(fixtureJobs(t, core.AlgorithmVarietySpec(algs), 0), false,
		func(job core.JobSpec, _ int) core.Status {
			switch {
			case job.Platform == "pushpull" && job.Algorithm == algorithms.LCC:
				return core.StatusUnsupported
			case is(job, "spmv-d", "D300", algorithms.SSSP):
				return core.StatusOOM
			}
			return core.StatusOK
		})
	// Jobs after the first of a deployment reuse its upload.
	uploaded := map[[2]string]bool{}
	for i, r := range algResults {
		k := [2]string{r.Spec.Platform, r.Spec.Dataset}
		algResults[i].UploadShared = uploaded[k]
		uploaded[k] = true
	}

	// Figure 7 and Table 9: spmv-s has no single-thread PR baseline.
	vertical := core.ExperimentConfig{Platforms: []string{"native", "spmv-s"}, ThreadSweep: []int{1, 2, 4, 8}}
	verticalResults := fixtureRun(fixtureJobs(t, core.VerticalScalabilitySpec(vertical), 0), false,
		func(job core.JobSpec, _ int) core.Status {
			if is(job, "spmv-s", "D300", algorithms.PR) && job.Threads == 1 {
				return core.StatusSLABreak
			}
			return core.StatusOK
		})

	strong := core.ExperimentConfig{Platforms: []string{"spmv-d", "pregel"}, MachineSweep: []int{1, 2, 4}, Threads: 2}
	strongResults := fixtureRun(fixtureJobs(t, core.StrongScalingSpec(strong), 0), false,
		func(job core.JobSpec, _ int) core.Status {
			if job.Platform == "pregel" && job.Machines == 1 {
				return core.StatusOOM
			}
			return core.StatusOK
		})

	weak := core.ExperimentConfig{
		Platforms: []string{"spmv-d", "gas"}, Threads: 2,
		WeakPairs: []core.WeakPair{{Machines: 1, Dataset: "G22"}, {Machines: 2, Dataset: "G23"}, {Machines: 4, Dataset: "G24"}},
	}
	weakResults := fixtureRun(fixtureJobs(t, core.WeakScalingSpec(weak), 0), false,
		func(job core.JobSpec, _ int) core.Status {
			if is(job, "gas", "G24", algorithms.PR) {
				return core.StatusInvalid
			}
			return core.StatusOK
		})

	makespan := core.ExperimentConfig{Platforms: []string{"native", "spmv-s", "pregel"}, Threads: 4}
	makespanResults := fixtureRun(fixtureJobs(t, core.MakespanBreakdownSpec(makespan), 0), false,
		func(job core.JobSpec, _ int) core.Status {
			if job.Platform == "pregel" {
				return core.StatusSLABreak
			}
			return core.StatusOK
		})

	// Table 10: native runs out of memory on D1000, dataflow breaks the
	// SLA on R4, pregel never fails.
	stress := core.ExperimentConfig{Platforms: []string{"native", "dataflow", "pregel"}, Threads: 4, MemoryBudget: 2 << 20}
	stressResults := fixtureRun(fixtureJobs(t, core.StressTestSpec(stress), len(fixtureCatalog)), true,
		func(job core.JobSpec, _ int) core.Status {
			switch {
			case job.Platform == "native" && job.Dataset == "D1000":
				return core.StatusOOM
			case job.Platform == "dataflow" && job.Dataset == "R4":
				return core.StatusSLABreak
			}
			return core.StatusOK
		})

	// Table 11: spmv-s completes no repetition, pregel loses one.
	variability := core.ExperimentConfig{
		SingleMachine: []string{"native", "spmv-s"}, Distributed: []string{"spmv-d", "pregel"},
		Repetitions: 3, Threads: 4,
	}
	variabilityResults := fixtureRun(fixtureJobs(t, core.VariabilitySpec(variability), 0), false,
		func(job core.JobSpec, rep int) core.Status {
			switch {
			case job.Platform == "spmv-s":
				return core.StatusFailed
			case job.Platform == "pregel" && rep == 1:
				return core.StatusSLABreak
			}
			return core.StatusOK
		})

	return []reportFixture{
		{"fig4", variety, varietyResults},
		{"fig5", variety, varietyResults},
		{"table8", makespan, makespanResults},
		{"fig6", algs, algResults},
		{"fig7", vertical, verticalResults},
		{"table9", vertical, verticalResults},
		{"fig8", strong, strongResults},
		{"fig9", weak, weakResults},
		{"table10", stress, stressResults},
		{"table11", variability, variabilityResults},
	}
}
