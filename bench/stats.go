package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// summary is what every emitted number carries: its sample count and
// spread next to the median, so a reader can tell a measurement from an
// anecdote (ROADMAP aim 1).
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// TailPct and Tail are the highest percentile with at least ten
	// samples beyond it and its value; TailPct is 0 when the median is
	// already that percentile.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// spreadPct is the interquartile range as a share of the median.
func (s summary) spreadPct() float64 {
	if s.Median == 0 {
		return 0
	}
	return 100 * (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the "inclusive" method: q=0 is the minimum, q=1
// the maximum, q=0.5 the usual median).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailPerMille are the candidates of the percentile rule, ascending, in
// thousandths so the rule is integer arithmetic.
var tailPerMille = []int{900, 950, 990, 999}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it; 0 means no candidate qualifies and the median
// is all the sample supports.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// summarize reduces samples to a summary; it does not modify samples.
func summarize(unit string, samples []float64) summary {
	s := slices.Clone(samples)
	slices.Sort(s)
	out := summary{
		Unit: unit, N: len(s),
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailPct, out.Tail = p, quantile(s, p/100)
	}
	return out
}

// recorder collects samples by metric name. Only names from the metric
// table (metrics.go) are accepted, so a typo fails loudly instead of
// inventing a metric nobody declared.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]float64)} }

// add records one sample of a declared metric.
func (r *recorder) add(name string, v float64) {
	if _, ok := metricByName[name]; !ok {
		panic(fmt.Sprintf("bench: sample for undeclared metric %q", name))
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// get returns the samples recorded under name.
func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples[name]
}

// median returns the median of samples, NaN when there are none.
func median(samples []float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return quantile(s, 0.5)
}
