package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"graphalytics/internal/algorithms"
)

// This file implements the results analysis & modeling component of the
// architecture (Figure 1, components 11-12): it distills a run's results
// into the kind of cross-platform findings the paper reports
// ("GraphMat and PGX.D significantly outperform their competitors",
// "Giraph and GraphX are consistently two orders of magnitude slower").

// PlatformSummary aggregates one platform's results across a set of jobs.
type PlatformSummary struct {
	Platform string
	// Jobs and Completed count attempted and successful jobs.
	Jobs, Completed int
	// SLACompliance is Completed/Jobs.
	SLACompliance float64
	// GeoMeanSlowdown is the geometric mean, over jobs completed by both,
	// of this platform's Tproc divided by the per-job best Tproc. 1.0
	// means "fastest everywhere".
	GeoMeanSlowdown float64
	// WorstSlowdown is the largest per-job slowdown factor.
	WorstSlowdown float64
}

// Analyze summarizes every platform appearing in results over the
// (platform × dataset × algorithm × resources) jobs they contain. The
// outcome is a function of the result sequence alone: platforms and jobs
// are visited in first-seen order, so the float sums are reproducible to
// the last bit, and platforms tying on slowdown order by name.
func Analyze(results []JobResult) []PlatformSummary {
	type jobKey struct {
		dataset   string
		algorithm algorithms.Algorithm
		threads   int
		machines  int
	}
	type platformJobs struct {
		attempts int
		tproc    map[jobKey]time.Duration
		keys     []jobKey // first-seen order
	}
	best := make(map[jobKey]time.Duration)
	perPlatform := make(map[string]*platformJobs)
	var platforms []string // first-seen order
	for _, r := range results {
		if r.Status == StatusUnsupported {
			continue
		}
		pj := perPlatform[r.Spec.Platform]
		if pj == nil {
			pj = &platformJobs{tproc: make(map[jobKey]time.Duration)}
			perPlatform[r.Spec.Platform] = pj
			platforms = append(platforms, r.Spec.Platform)
		}
		pj.attempts++
		if r.Status != StatusOK || r.ProcessingTime <= 0 {
			continue
		}
		k := jobKey{r.Spec.Dataset, r.Spec.Algorithm, r.Spec.Threads, r.Spec.Machines}
		if cur, ok := best[k]; !ok || r.ProcessingTime < cur {
			best[k] = r.ProcessingTime
		}
		cur, ok := pj.tproc[k]
		if !ok {
			pj.keys = append(pj.keys, k)
		}
		if !ok || r.ProcessingTime < cur {
			pj.tproc[k] = r.ProcessingTime
		}
	}

	var out []PlatformSummary
	for _, platform := range platforms {
		pj := perPlatform[platform]
		if len(pj.keys) == 0 {
			continue
		}
		s := PlatformSummary{Platform: platform, Jobs: pj.attempts, Completed: len(pj.keys)}
		s.SLACompliance = float64(s.Completed) / float64(s.Jobs)
		var logSum float64
		for _, k := range pj.keys {
			slow := float64(pj.tproc[k]) / float64(best[k])
			logSum += math.Log(slow)
			if slow > s.WorstSlowdown {
				s.WorstSlowdown = slow
			}
		}
		s.GeoMeanSlowdown = math.Exp(logSum / float64(len(pj.keys)))
		out = append(out, s)
	}
	slices.SortStableFunc(out, func(a, b PlatformSummary) int {
		return cmp.Or(cmp.Compare(a.GeoMeanSlowdown, b.GeoMeanSlowdown), cmp.Compare(a.Platform, b.Platform))
	})
	return out
}

// AnalysisReport renders the platform summaries and derives the paper's
// style of key findings.
func AnalysisReport(results []JobResult) *Report {
	summaries := Analyze(results)
	rep := &Report{
		ID:      "analysis",
		Title:   "Cross-platform analysis (geometric-mean slowdown vs. per-job best)",
		Columns: []string{"platform", "jobs", "completed", "SLA compliance", "geo-mean slowdown", "worst slowdown"},
	}
	for _, s := range summaries {
		rep.Rows = append(rep.Rows, []string{
			s.Platform,
			fmt.Sprint(s.Jobs),
			fmt.Sprint(s.Completed),
			fmt.Sprintf("%.0f%%", 100*s.SLACompliance),
			fmt.Sprintf("%.1fx", s.GeoMeanSlowdown),
			fmt.Sprintf("%.0fx", s.WorstSlowdown),
		})
	}
	if len(summaries) >= 2 {
		fastest := summaries[0]
		slowest := summaries[len(summaries)-1]
		orders := 0
		if fastest.GeoMeanSlowdown > 0 {
			orders = int(math.Floor(math.Log10(slowest.GeoMeanSlowdown / fastest.GeoMeanSlowdown)))
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s is the fastest platform overall; %s trails it by roughly %d order(s) of magnitude",
			fastest.Platform, slowest.Platform, orders))
	}
	return rep
}
