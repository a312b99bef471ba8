// Command bench is the repository's performance benchmark: four named
// workloads, three gated end-to-end metrics each, and a traced run that
// decomposes them layer by layer. It measures the harness from outside —
// timing public calls, reading JobResult fields, core.Observer events and
// SSE record timestamps — and changes nothing outside this directory.
// README.md has the tables; BENCHMARK.json at the repository root is the
// contract later performance claims are judged against.
//
//	go run ./bench                              every workload, untraced
//	go run ./bench -workload load -trace 1      one workload, per-layer
//	go run ./bench -repeat 2                    two sets, checked against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphalytics/internal/archive"
)

// run is the state of one workload execution.
type run struct {
	workload string
	sz       sizes
	seed     uint64
	p        int // worker budget: min(NumCPU, 4)
	seconds  float64
	traced   bool
	dir      string // scratch directory, inside the working directory

	rec *recorder
	tr  *tracer // spans of traced rounds; nil on untraced runs

	// roundWall holds round wall times, traced and untraced apart; their
	// medians give the tracing overhead.
	roundWall map[bool][]float64

	mu        sync.Mutex // guards the check counters: daemon clients check concurrently
	attempted int
	failed    int
	failures  []string // first few failed checks, for the report
}

// check counts one correctness check; a failed one is reported and makes
// the command exit non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// must is check for an error a correct program never returns.
func (r *run) must(err error, what string) bool {
	r.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// tracing reports whether round i records spans. A traced run alternates
// traced and untraced rounds, so the tracing overhead is measured inside
// one process on interleaved samples.
func (r *run) tracing(round int) bool { return r.traced && round%2 == 1 }

// roundTracer returns the tracer for round i: nil on untraced rounds.
func (r *run) roundTracer(round int) *tracer {
	if r.tracing(round) {
		return r.tr
	}
	return nil
}

// setUp repeats a workload's set-up and records each repetition's wall
// under setup_s, whose median is reported. An expensive set-up is not
// repeated: repetitions stop at sizes.setups or once they have taken
// setupBudget together. body returns false when the set-up failed.
func (r *run) setUp(body func() bool) bool {
	start := time.Now()
	for i := 0; i < r.sz.setups && (i == 0 || time.Since(start) < setupBudget); i++ {
		t := time.Now()
		if !body() {
			return false
		}
		r.rec.add("setup_s", time.Since(t).Seconds())
	}
	return true
}

// rounds calls body(i) until the time budget is spent, and at least
// sizes.minRounds times (one more on a traced run, so that its
// alternating rounds split evenly), so every end-to-end median has its
// samples however slow the machine. body returns the work the round
// completed; each round's work over its wall time is one work_per_s
// sample.
func (r *run) rounds(body func(i int) (work float64)) {
	minRounds := r.sz.minRounds
	if r.traced {
		minRounds += minRounds % 2
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < r.seconds; i++ {
		t := time.Now()
		work := body(i)
		wall := time.Since(t).Seconds()
		r.rec.add("work_per_s", work/wall)
		r.roundWall[r.tracing(i)] = append(r.roundWall[r.tracing(i)], wall)
	}
}

// result is one workload's outcome: the document -out writes and the
// source of the last stdout line.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Breakdown is seconds per layer over the traced operations, with
	// "unattributed"; the rows sum to BreakdownWall.
	Breakdown     map[string]float64 `json:"breakdown,omitempty"`
	BreakdownWall float64            `json:"breakdown_wall_s,omitempty"`
	BreakdownOps  int                `json:"breakdown_ops,omitempty"`
	Spans         []span             `json:"spans,omitempty"`
}

// document is what -out writes: every number with the machine it was
// taken on.
type document struct {
	Stamp   stamp    `json:"stamp"`
	Results []result `json:"results"`
}

// stamp is the archive's environment record (Go version, OS, CPUs, git
// revision) plus what only a benchmark run has.
type stamp struct {
	archive.Environment
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Time       string  `json:"time"`
}

// workerBudget sizes load for 2-4 cores of a shared box.
func workerBudget() int { return min(runtime.NumCPU(), 4) }

// workloads maps a name to its implementation.
var workloads = map[string]func(*run){
	wlLoad:    runLoad,
	wlKernels: runKernels,
	wlSuite:   runSuite,
	wlDaemon:  runDaemon,
}

// execute runs one workload and reduces its samples.
func execute(name string, sz sizes, seed uint64, seconds float64, traced bool, scratch string) (result, error) {
	r := &run{
		workload: name, sz: sz, seed: seed, p: workerBudget(),
		seconds: seconds, traced: traced,
		rec: newRecorder(), roundWall: make(map[bool][]float64),
	}
	if traced {
		r.tr = newTracer(name)
	}
	dir, err := os.MkdirTemp(scratch, name+"-")
	if err != nil {
		return result{}, err
	}
	r.dir = dir
	defer os.RemoveAll(dir)

	workloads[name](r)

	res := result{Workload: name, Metrics: make(map[string]summary)}
	r.rec.add("process.peak_rss_mb", peakRSSMB())
	if r.tr != nil {
		res.Spans = r.tr.spans
		res.Breakdown, res.BreakdownWall = selfTimes(r.tr.spans)
		for _, s := range r.tr.spans {
			if s.Parent == 0 {
				res.BreakdownOps++
			}
		}
		// Breakdown rows per traced round (per traced run on daemon).
		if n := float64(len(r.roundWall[true])); n > 0 {
			for _, l := range breakdownLayers {
				r.rec.add("self."+l+"_s", res.Breakdown[l]/n)
			}
			r.rec.add("self.unattributed_s", res.Breakdown[unattributed]/n)
		}
		if on, off := r.roundWall[true], r.roundWall[false]; len(on) > 0 && len(off) > 0 {
			r.rec.add("trace_overhead_pct", 100*(median(on)/median(off)-1))
		}
	}
	res.Correct, res.Attempted, res.Failed, res.Failures = r.failed == 0, r.attempted, r.failed, r.failures
	for name, samples := range r.rec.samples {
		res.Metrics[name] = summarize(metricByName[name].Unit, samples)
	}
	// ROADMAP aim 1a: no end-to-end median on fewer than minSamples. The
	// set-up time states its own, smaller, repetition count.
	for _, d := range endToEnd {
		s, ok := res.Metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("workload %s did not measure %s", name, d.Name)
		}
		if d.Name != "setup_s" && s.N < sz.minSamples {
			return res, fmt.Errorf("workload %s: %s has %d samples, fewer than %d", name, d.Name, s.N, sz.minSamples)
		}
	}
	return res, nil
}

// peakRSSMB reads the process's high-water resident set from /proc; 0
// where that is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// resultLine is the contract's last stdout line. A metric's value is
// the median of its samples; a per-layer metric the workload does not
// exercise reads 0.
func resultLine(res result, traced bool) string {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]entry, len(defs))
	for _, d := range defs {
		metrics[d.Name] = entry{Value: res.Metrics[d.Name].Median, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the workload
	}
	return string(line)
}

// printResult prints every metric by name with unit, sample count and
// spread, then the breakdown when there is one.
func printResult(res result) {
	fmt.Printf("\n== workload %s: %d checks, %d failed ==\n", res.Workload, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	fmt.Printf("%-36s %14s %-6s %6s %14s %14s %7s  %s\n", "metric", "median", "unit", "n", "q1", "q3", "iqr%", "tail")
	row := func(d metricDef) {
		s, ok := res.Metrics[d.Name]
		if !ok {
			return
		}
		tail := ""
		if s.TailPct > 0 {
			tail = fmt.Sprintf("p%g=%.6g", s.TailPct, s.Tail)
		}
		fmt.Printf("%-36s %14.6g %-6s %6d %14.6g %14.6g %7.2f  %s\n", d.Name, s.Median, s.Unit, s.N, s.Q1, s.Q3, s.spreadPct(), tail)
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
	if res.BreakdownOps == 0 {
		return
	}
	fmt.Printf("\nbreakdown of %s: %d traced operations, %.4f s wall\n", res.Workload, res.BreakdownOps, res.BreakdownWall)
	layers := make([]string, 0, len(res.Breakdown))
	for l := range res.Breakdown {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return res.Breakdown[layers[i]] > res.Breakdown[layers[j]] })
	sum := 0.0
	for _, l := range layers {
		v := res.Breakdown[l]
		sum += v
		fmt.Printf("  %-14s %10.4f s %6.2f %%\n", l, v, 100*v/res.BreakdownWall)
	}
	fmt.Printf("  %-14s %10.4f s %6.2f %%\n", "sum", sum, 100*sum/res.BreakdownWall)
}

// compare prints, per end-to-end metric, how far set b is from set a
// against the metric's bound, and reports whether every one is within it.
func compare(a, b []result) bool {
	ok := true
	fmt.Printf("\n%-10s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse%", "bound%")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].Metrics[d.Name].Median, b[i].Metrics[d.Name].Median
			worse := (y - x) / x
			if d.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > d.Bound || math.IsNaN(worse) {
				verdict, ok = "  EXCEEDED", false
			}
			fmt.Printf("%-10s %-12s %14.6g %14.6g %9.2f %7.2f%s\n", a[i].Workload, d.Name, x, y, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok
}

func main() {
	workload := flag.String("workload", "all", "workload to run: load, kernels, suite, daemon or all")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each workload's timed window")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics and breakdown")
	out := flag.String("out", "", "also write every metric, stamped and with its spread (and spans when traced), to this JSON file")
	repeat := flag.Int("repeat", 1, "run the selection this many times and check each later set against the first within the bounds")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s or all)\n", *workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	traced := *trace != 0

	runtime.GOMAXPROCS(workerBudget())
	// Scratch lives inside the working directory: the benchmark reads
	// and writes nothing outside its checkout.
	scratch, err := filepath.Abs(".bench_tmp")
	if err == nil {
		err = os.MkdirAll(scratch, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	doc := document{Stamp: stamp{
		Environment: archive.CaptureEnv(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Traced: traced,
		Time: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("bench: GOMAXPROCS=%d NumCPU=%d %s seed=%d seconds=%g traced=%v commit=%q\n",
		doc.Stamp.GOMAXPROCS, doc.Stamp.CPUs, doc.Stamp.Go, *seed, *seconds, traced, doc.Stamp.Git)

	exit := 0
	var sets [][]result
	var lines []string
	for rep := 0; rep < *repeat; rep++ {
		var set []result
		for _, name := range names {
			res, err := execute(name, fullSizes, *seed, *seconds, traced, scratch)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printResult(res)
			if !res.Correct {
				exit = 1
			}
			set = append(set, res)
			lines = append(lines, resultLine(res, traced))
		}
		sets = append(sets, set)
		doc.Results = append(doc.Results, set...)
	}
	for i := 1; i < len(sets); i++ {
		if !compare(sets[0], sets[i]) {
			exit = 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	os.Remove(scratch) // leaves it when another run still uses it
	// One result object per workload run; the last line is the contract's.
	fmt.Println()
	for _, l := range lines {
		fmt.Println(l)
	}
	os.Exit(exit)
}
