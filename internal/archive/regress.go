package archive

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"regexp"
	"slices"
	"strings"
	"text/tabwriter"
)

// This file is the cross-run regression engine: it turns two archived
// bench snapshots into per-metric deltas (benchstat-style) and judges
// them against gates — regex-selected hot-path metrics with a noise
// threshold. CI runs it against the committed baseline archive and
// fails the build on a gated regression.

// Gate selects metrics (by regex over the metric key) that must not
// regress by more than Threshold percent. All tracked metrics are
// lower-is-better, so only increases count as regressions.
type Gate struct {
	Pattern   *regexp.Regexp
	Threshold float64 // percent
}

// ParseGate parses "regex" or "regex=pct" into a gate, defaulting the
// threshold to def percent.
func ParseGate(s string, def float64) (Gate, error) {
	pat, thr := s, def
	if i := strings.LastIndex(s, "="); i >= 0 {
		pat = s[:i]
		if _, err := fmt.Sscanf(s[i+1:], "%f", &thr); err != nil {
			return Gate{}, fmt.Errorf("archive: gate %q: bad threshold %q", s, s[i+1:])
		}
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return Gate{}, fmt.Errorf("archive: gate %q: %w", s, err)
	}
	return Gate{Pattern: re, Threshold: thr}, nil
}

// benchFile mirrors the scripts/bench.sh snapshot shape.
type benchFile struct {
	Date    string       `json:"date"`
	Results []benchEntry `json:"results"`
}

type benchEntry struct {
	Name    string   `json:"name"`
	NsPerOp *float64 `json:"ns_per_op"`
	BPerOp  *float64 `json:"bytes_per_op"`
	Allocs  *float64 `json:"allocs_per_op"`
}

// procSuffix strips go test's "-<GOMAXPROCS>" benchmark-name suffix so
// snapshots taken at different GOMAXPROCS remain comparable by key.
var procSuffix = regexp.MustCompile(`-\d+$`)

// BenchMetrics flattens a bench.sh snapshot into metric keys:
// "<bench>/ns", "<bench>/allocs", "<bench>/B" per benchmark, plus the
// derived "derived/map_open_ratio" (mmap open time at scale 16 over
// scale 12 — the snapshot size-independence hot path from PR 9).
func BenchMetrics(benchJSON []byte) (map[string]float64, error) {
	var f benchFile
	if err := json.Unmarshal(benchJSON, &f); err != nil {
		return nil, fmt.Errorf("archive: decode bench snapshot: %w", err)
	}
	m := make(map[string]float64, 3*len(f.Results))
	for _, r := range f.Results {
		name := procSuffix.ReplaceAllString(r.Name, "")
		if r.NsPerOp != nil {
			m[name+"/ns"] = *r.NsPerOp
		}
		if r.Allocs != nil {
			m[name+"/allocs"] = *r.Allocs
		}
		if r.BPerOp != nil {
			m[name+"/B"] = *r.BPerOp
		}
	}
	s12, ok12 := m["BenchmarkSnapshotMapOpen/scale12/ns"]
	s16, ok16 := m["BenchmarkSnapshotMapOpen/scale16/ns"]
	if ok12 && ok16 && s12 > 0 {
		m["derived/map_open_ratio"] = s16 / s12
	}
	return m, nil
}

// BenchMetricsAt loads the bench snapshot archived in commit ref and
// flattens it into metrics.
func (a *Archive) BenchMetricsAt(ref string) (map[string]float64, error) {
	id, err := a.Resolve(ref)
	if err != nil {
		return nil, err
	}
	c, err := a.Load(id)
	if err != nil {
		return nil, err
	}
	if c.Kind != KindBench {
		return nil, fmt.Errorf("archive: commit %s is a %q commit, not %q", short(id), c.Kind, KindBench)
	}
	b, err := a.PayloadBytes(c, ChunkBench)
	if err != nil {
		return nil, err
	}
	return BenchMetrics(b)
}

// Delta is one metric compared across the two snapshots.
type Delta struct {
	Metric    string  `json:"metric"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	Percent   float64 `json:"percent"`
	Gated     bool    `json:"gated,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Regressed bool    `json:"regressed,omitempty"`
}

// RegressReport is the outcome of one baseline-vs-latest diff.
type RegressReport struct {
	Deltas []Delta `json:"deltas"`
	// Missing lists gated baseline metrics absent from the latest
	// snapshot — a gated hot path silently dropped from the bench run
	// counts as a regression, never as a pass.
	Missing     []string `json:"missing,omitempty"`
	Regressions int      `json:"regressions"`
}

// OK reports whether no gated metric regressed.
func (r *RegressReport) OK() bool { return r.Regressions == 0 }

// Regress diffs latest against baseline. Every metric present in both
// snapshots yields a delta; metrics matching a gate are judged against
// its threshold. A gated metric present in the baseline but missing
// from the latest snapshot is a regression.
func Regress(baseline, latest map[string]float64, gates []Gate) *RegressReport {
	rep := &RegressReport{}
	for _, k := range slices.Sorted(maps.Keys(baseline)) {
		old := baseline[k]
		gate, gated := matchGate(gates, k)
		now, ok := latest[k]
		if !ok {
			if gated {
				rep.Missing = append(rep.Missing, k)
				rep.Regressions++
			}
			continue
		}
		d := Delta{Metric: k, Old: old, New: now}
		switch {
		case old != 0:
			d.Percent = (now - old) / old * 100
		case now != 0:
			d.Percent = 100 // from zero: treat any growth as +100%
		}
		if gated {
			d.Gated, d.Threshold, d.Regressed = true, gate.Threshold, d.Percent > gate.Threshold
			if d.Regressed {
				rep.Regressions++
			}
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

func matchGate(gates []Gate, key string) (Gate, bool) {
	for _, g := range gates {
		if g.Pattern.MatchString(key) {
			return g, true
		}
	}
	return Gate{}, false
}

// Render writes the report benchstat-style: one row per metric with
// old/new values and the signed delta, gated rows marked with their
// verdict, then a summary line. When gatedOnly is set, ungated rows
// are suppressed (CI logs stay readable on large snapshots).
func (r *RegressReport) Render(w io.Writer, gatedOnly bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\told\tnew\tdelta\tverdict")
	for _, d := range r.Deltas {
		if gatedOnly && !d.Gated {
			continue
		}
		verdict := ""
		if d.Gated {
			verdict = fmt.Sprintf("ok (gate %.4g%%)", d.Threshold)
			if d.Regressed {
				verdict = fmt.Sprintf("REGRESSED (gate %.4g%%)", d.Threshold)
			}
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%+.1f%%\t%s\n", d.Metric, d.Old, d.New, d.Percent, verdict)
	}
	for _, k := range r.Missing {
		fmt.Fprintf(tw, "%s\t-\t-\t\tMISSING (gated metric dropped)\n", k)
	}
	tw.Flush()
	if r.OK() {
		fmt.Fprintln(w, "regress ok: no gated metric regressed")
	} else {
		fmt.Fprintf(w, "regress FAILED: %d gated regression(s)\n", r.Regressions)
	}
}
