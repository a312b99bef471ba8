package core

import (
	"fmt"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/metrics"
)

// This file holds the pure half of the experiment table: one renderer per
// paper artifact, each a function of the matrix's spec and results alone.
// Axes — platforms, thread and machine sweeps, weak pairs, repetitions —
// come from the spec; dataset rows, classes and scales come from the
// results, so no renderer loads a graph or sees a Session. Specs reach
// here from archived commits too, so a renderer indexes no axis it has
// not checked: a missing axis reads as its zero value, a missing job as
// "-".

// resultIndex indexes results by job. Keys are job specs with the SLA
// cleared, so renderers look jobs up without re-deriving the spec-level
// SLA stamp; repetitions of the same job accumulate in plan order.
type resultIndex map[JobSpec][]JobResult

func indexResults(results []JobResult) resultIndex {
	m := make(resultIndex, len(results))
	for _, r := range results {
		k := r.Spec
		k.SLA = 0
		m[k] = append(m[k], r)
	}
	return m
}

// jobs returns every repetition of one matrix cell.
func (m resultIndex) jobs(platform, dataset string, a algorithms.Algorithm, cfg ResourceSpec) []JobResult {
	return m[JobSpec{
		Platform: platform, Dataset: dataset, Algorithm: a,
		Threads: cfg.Threads, Machines: cfg.Machines, MemoryPerMachine: cfg.MemoryPerMachine,
	}]
}

// row completes a table row with one cell per platform for the job
// (dataset, a, cfg). A platform's SSSP cell comes from its substitute
// backend where it has one, marked "(D)" when that job completed.
func (m resultIndex) row(labels, platforms []string, dataset string, a algorithms.Algorithm, cfg ResourceSpec) []string {
	for _, p := range platforms {
		eff := effectivePlatform(p, a)
		c := "-"
		if rs := m.jobs(eff, dataset, a, cfg); len(rs) > 0 {
			c = cell(rs[0])
			if eff != p && rs[0].Status == StatusOK {
				c += " (D)"
			}
		}
		labels = append(labels, c)
	}
	return labels
}

// first returns the first point of an axis, or the zero value of an
// empty one.
func first[T any](axis []T) (v T) {
	if len(axis) > 0 {
		v = axis[0]
	}
	return v
}

// renderDatasetVariety renders Figure 4 (Section 4.1). Its rows are the
// datasets the results ran, in first-seen (ascending-scale plan) order,
// labeled with the class they ran as.
func renderDatasetVariety(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "fig4",
		Title:   "Dataset variety: Tproc for BFS and PR, single machine",
		Columns: append([]string{"dataset", "class", "algorithm"}, spec.Platforms...),
	}
	idx, seen := indexResults(results), map[string]bool{}
	for _, r := range results {
		ds, class := r.Spec.Dataset, string(r.Class)
		if seen[ds] {
			continue
		}
		seen[ds] = true
		for _, a := range spec.Algorithms {
			labels := []string{fmt.Sprintf("%s(%s)", ds, class), class, string(a)}
			rep.Rows = append(rep.Rows, idx.row(labels, spec.Platforms, ds, a, first(spec.Configs)))
		}
	}
	return rep
}

// renderThroughput renders Figure 5 (Section 4.1): EPS and EVPS of the
// completed single-machine BFS jobs of the Figure 4 matrix.
func renderThroughput(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "fig5",
		Title:   "Dataset variety: EPS and EVPS for BFS, single machine",
		Columns: []string{"dataset", "platform", "EPS", "EVPS"},
		Notes:   []string{"ideal platforms would show constant EPS/EVPS across datasets; variation indicates dataset sensitivity"},
	}
	for _, p := range spec.Platforms {
		for _, r := range results {
			if r.Spec.Platform == p && r.Spec.Algorithm == algorithms.BFS && r.Spec.Machines == 1 && r.Status == StatusOK {
				// A zero Tproc measured no throughput: its rates are undefined.
				eps, evps := "-", "-"
				if r.ProcessingTime > 0 {
					eps, evps = fmtRate(r.EPS), fmtRate(r.EVPS)
				}
				rep.Rows = append(rep.Rows, []string{r.Spec.Dataset, p, eps, evps})
			}
		}
	}
	return rep
}

// renderAlgorithmVariety renders Figure 6 (Section 4.2): all six
// algorithms on the spec's datasets.
func renderAlgorithmVariety(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "fig6",
		Title:   "Algorithm variety: Tproc for all core algorithms on R4(S) and D300(L)",
		Columns: append([]string{"dataset", "algorithm"}, spec.Platforms...),
	}
	idx := indexResults(results)
	for _, ds := range spec.Datasets.IDs {
		for _, a := range algorithms.All {
			rep.Rows = append(rep.Rows, idx.row([]string{ds, string(a)}, spec.Platforms, ds, a, first(spec.Configs)))
		}
	}
	return rep
}

// sweepRows fills rep with one row per (algorithm, resource point) of the
// spec's inline sweep, labeled by axis(point) — the shape Figures 7 and
// 8 share.
func sweepRows(rep *Report, spec BenchSpec, results []JobResult, axis func(ResourceSpec) int) *Report {
	rep.Columns = append(rep.Columns, spec.Platforms...)
	idx, ds := indexResults(results), first(spec.Datasets.IDs)
	for _, a := range spec.Algorithms {
		for _, cfg := range spec.Configs {
			rep.Rows = append(rep.Rows, idx.row([]string{string(a), fmt.Sprint(axis(cfg))}, spec.Platforms, ds, a, cfg))
		}
	}
	return rep
}

// renderVerticalScalability renders Figure 7 (Section 4.3).
func renderVerticalScalability(spec BenchSpec, results []JobResult) *Report {
	return sweepRows(&Report{
		ID:      "fig7",
		Title:   "Vertical scalability: Tproc vs. threads, BFS and PR on D300(L)",
		Columns: []string{"algorithm", "threads"},
	}, spec, results, func(cfg ResourceSpec) int { return cfg.Threads })
}

// renderStrongScaling renders Figure 8 (Section 4.4).
func renderStrongScaling(spec BenchSpec, results []JobResult) *Report {
	return sweepRows(&Report{
		ID:      "fig8",
		Title:   "Strong horizontal scalability: Tproc vs. machines, BFS and PR on D1000(XL)",
		Columns: []string{"algorithm", "machines"},
	}, spec, results, func(cfg ResourceSpec) int { return cfg.Machines })
}

// renderVerticalSpeedup renders Table 9: per platform and algorithm, the
// maximum speedup over the single-thread run across the completed
// single-machine jobs of the Figure 7 matrix.
func renderVerticalSpeedup(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "table9",
		Title:   "Vertical scalability: maximum speedup on D300(L), 1-32 threads",
		Columns: append([]string{"algorithm"}, spec.Platforms...),
	}
	ds := first(spec.Datasets.IDs)
	for _, a := range spec.Algorithms {
		row := []string{string(a)}
		for _, p := range spec.Platforms {
			var base, best time.Duration
			for _, r := range results {
				if r.Spec.Platform != p || r.Spec.Dataset != ds || r.Spec.Algorithm != a ||
					r.Spec.Machines != 1 || r.Status != StatusOK {
					continue
				}
				if r.Spec.Threads == 1 {
					base = r.ProcessingTime
				}
				if best == 0 || r.ProcessingTime < best {
					best = r.ProcessingTime
				}
			}
			if base == 0 || best == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", metrics.Speedup(base, best)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// renderWeakScaling renders Figure 9 (Section 4.5): one row per
// algorithm and (machines, dataset) pair — the spec's sweeps.
func renderWeakScaling(spec BenchSpec, results []JobResult) *Report {
	axes := first(spec.Sweeps)
	rep := &Report{
		ID:      "fig9",
		Title:   "Weak horizontal scalability: Tproc vs. machines, BFS and PR on G22..G26",
		Columns: append([]string{"algorithm", "machines", "dataset"}, axes.Platforms...),
		Notes:   []string{"per-machine work is constant; ideal weak scaling keeps Tproc flat"},
	}
	idx := indexResults(results)
	for _, a := range axes.Algorithms {
		for _, sw := range spec.Sweeps {
			cfg, ds := first(sw.Configs), first(sw.Datasets.IDs)
			rep.Rows = append(rep.Rows, idx.row([]string{string(a), fmt.Sprint(cfg.Machines), ds}, axes.Platforms, ds, a, cfg))
		}
	}
	return rep
}

// renderStressTest renders Table 10 (Section 4.6): per platform, the
// first probe that did not complete — the results list each platform's
// probes in ascending scale order — with the scale and class it ran as.
func renderStressTest(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "table10",
		Title:   fmt.Sprintf("Stress test: smallest dataset failing BFS on one machine (budget %s)", fmtBytes(first(spec.Configs).MemoryPerMachine)),
		Columns: []string{"platform", "smallest failing dataset", "scale", "class"},
		Notes:   []string{"datasets probed in ascending scale order; '-' means every dataset completed"},
	}
	for _, p := range spec.Platforms {
		row := []string{p, "-", "-", "-"}
		for _, r := range results {
			if r.Spec.Platform == p && !r.Completed() {
				row = []string{p, r.Spec.Dataset, fmt.Sprintf("%.1f", r.Scale), string(r.Class)}
				break
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// renderVariability renders Table 11 (Section 4.7): mean Tproc and its
// coefficient of variation over the completed repetitions of each
// platform, one sweep per deployment style.
func renderVariability(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "table11",
		Title:   fmt.Sprintf("Variability: mean Tproc and CV over %d runs of BFS", spec.Repetitions),
		Columns: []string{"platform", "config", "mean", "CV"},
	}
	idx := indexResults(results)
	for _, sw := range spec.Sweeps {
		cfg, ds := first(sw.Configs), first(sw.Datasets.IDs)
		label := fmt.Sprintf("D (%d machines, %s)", cfg.Machines, ds)
		if cfg.Machines == 1 {
			label = fmt.Sprintf("S (1 machine, %s)", ds)
		}
		for _, p := range sw.Platforms {
			var samples []time.Duration
			for _, r := range idx.jobs(p, ds, algorithms.BFS, cfg) {
				if r.Completed() {
					samples = append(samples, r.ProcessingTime)
				}
			}
			row := []string{p, label, "F", "-"}
			if len(samples) > 0 {
				mean, cv := metrics.Mean(samples), "-" // a zero mean leaves the CV undefined
				if mean > 0 {
					cv = fmt.Sprintf("%.1f%%", 100*metrics.CV(samples))
				}
				row = []string{p, label, fmtDuration(mean), cv}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// renderMakespanBreakdown renders Table 8 (Section 4.1): makespan versus
// processing time per platform, exposing per-platform overhead. Every
// deployment of the matrix has a single job, so each platform's upload is
// real, never amortized.
func renderMakespanBreakdown(spec BenchSpec, results []JobResult) *Report {
	rep := &Report{
		ID:      "table8",
		Title:   "Tproc and makespan for BFS on D300(L)",
		Columns: []string{"platform", "upload", "execute", "job makespan", "Tproc", "Tproc/makespan"},
		Notes:   []string{"overhead (makespan - Tproc) covers engine setup, graph loading and output offload; the paper reports 66-99.8% overhead for JVM/cluster platforms"},
	}
	idx := indexResults(results)
	for _, p := range spec.Platforms {
		res := first(idx.jobs(p, first(spec.Datasets.IDs), algorithms.BFS, first(spec.Configs)))
		if !res.Completed() {
			failed := "-"
			if res.Status != "" {
				failed = cell(res)
			}
			rep.Rows = append(rep.Rows, []string{p, failed, "-", "-", "-", "-"})
			continue
		}
		// The paper's makespan covers the whole job, including the
		// platform-specific conversion this harness performs at upload.
		total := res.UploadTime + res.Makespan
		ratio := "-" // 0/0 when nothing was measured
		if total > 0 {
			ratio = fmt.Sprintf("%.1f%%", float64(res.ProcessingTime)/float64(total)*100)
		}
		rep.Rows = append(rep.Rows, []string{
			p,
			fmtDuration(res.UploadTime),
			fmtDuration(res.Makespan),
			fmtDuration(total),
			fmtDuration(res.ProcessingTime),
			ratio,
		})
	}
	return rep
}
