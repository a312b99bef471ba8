package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"graphalytics/internal/core"
)

// This file renders an archived results commit into the Graphalytics
// reporting schema: the benchmark-results.js data file consumed by the
// reference report site (SNIPPETS.md Snippet 2 — system / environment /
// experiments / jobs / runs), plus a self-contained static HTML page
// that loads it. All IDs are deterministic short hashes of their
// grouping keys, so the same commit always renders byte-identical
// report data. Next to them goes tables.txt: the paper tables of the
// commit, rendered by core's pure renderers from the sealed spec and
// results alone — a commit regenerates its figures without re-running
// anything.

// ReportData is the top-level benchmark-results.js object.
type ReportData struct {
	ID            string        `json:"id"`
	System        System        `json:"system"`
	Configuration Configuration `json:"configuration"`
	Result        Result        `json:"result"`
}

// System describes the platform and environment under test.
type System struct {
	Platform    PlatformInfo    `json:"platform"`
	Environment EnvironmentInfo `json:"environment"`
	Benchmark   map[string]Tool `json:"benchmark"`
}

// PlatformInfo names the graph-processing platform (or platforms — a
// multi-platform sweep lists them all in Name).
type PlatformInfo struct {
	Name    string `json:"name"`
	Acronym string `json:"acronym"`
	Version string `json:"version"`
	Link    string `json:"link"`
}

// EnvironmentInfo describes the machines the benchmark ran on.
type EnvironmentInfo struct {
	Name     string    `json:"name"`
	Acronym  string    `json:"acronym"`
	Version  string    `json:"version"`
	Link     string    `json:"link"`
	Machines []Machine `json:"machines"`
}

// Machine is one machine shape in the environment.
type Machine struct {
	Quantity int               `json:"quantity"`
	OS       string            `json:"operating-system"`
	CPU      CPU               `json:"cpu"`
	Memory   map[string]string `json:"memory"`
	Network  map[string]string `json:"network"`
	Storage  map[string]string `json:"storage"`
	Accel    map[string]string `json:"accel"`
}

// CPU names the processor and its core count.
type CPU struct {
	Name  string `json:"name"`
	Cores string `json:"cores"`
}

// Tool is one benchmark software component and its version.
type Tool struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Link    string `json:"link"`
}

// Configuration carries the benchmark's target scale and resources.
type Configuration struct {
	TargetScale string              `json:"target-scale"`
	Resources   map[string]Resource `json:"resources"`
}

// Resource is one resource baseline of the configuration.
type Resource struct {
	Name        string  `json:"name"`
	Baseline    float64 `json:"baseline"`
	Scalability bool    `json:"scalability"`
}

// Result holds the experiment/job/run index maps.
type Result struct {
	Experiments map[string]Experiment `json:"experiments"`
	Jobs        map[string]Job        `json:"jobs"`
	Runs        map[string]Run        `json:"runs"`
}

// Experiment groups the jobs of one experiment type (one per
// algorithm, the paper's baseline experiments).
type Experiment struct {
	ID   string   `json:"id"`
	Type string   `json:"type"`
	Jobs []string `json:"jobs"`
}

// Job is one (platform, dataset, algorithm, configuration) cell with
// its repeated runs. Platform is an extension over the reference
// schema so multi-platform sweeps stay distinguishable.
type Job struct {
	ID         string   `json:"id"`
	Algorithm  string   `json:"algorithm"`
	Dataset    string   `json:"dataset"`
	Scale      float64  `json:"scale"`
	Repetition int      `json:"repetition"`
	Runs       []string `json:"runs"`
	Platform   string   `json:"platform,omitempty"`
}

// Run is one execution: epoch-millisecond timestamp, success flag, and
// the paper's run-time breakdown in milliseconds.
type Run struct {
	ID             string `json:"id"`
	Timestamp      int64  `json:"timestamp"`
	Success        bool   `json:"success"`
	Makespan       int64  `json:"makespan"`
	ProcessingTime int64  `json:"processing-time"`
}

// shortID derives a deterministic report ID: prefix + first 8 hex
// digits of the SHA-256 of the key.
func shortID(prefix string, key ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(key, "\x00")))
	return prefix + hex.EncodeToString(sum[:4])
}

// BuildReport renders one archived results commit into the report
// schema. Experiments group jobs per algorithm; jobs group runs per
// (platform, dataset, algorithm, threads, machines); runs carry the
// per-execution timings.
func (a *Archive) BuildReport(c *Commit) (*ReportData, error) {
	results, env, spec, err := a.sealedRun(c)
	if err != nil {
		return nil, err
	}
	return buildReport(c, results, env, spec), nil
}

// sealedRun decodes what a results commit seals — the inputs every
// report of the commit is a pure function of. spec is nil for a run
// sealed without one.
func (a *Archive) sealedRun(c *Commit) (results []core.JobResult, env Environment, spec *core.BenchSpec, err error) {
	if results, err = a.Results(c); err != nil {
		return nil, env, nil, err
	}
	if env, err = a.Env(c); err != nil {
		return nil, env, nil, err
	}
	spec, err = a.Spec(c)
	return results, env, spec, err
}

func buildReport(c *Commit, results []core.JobResult, env Environment, spec *core.BenchSpec) *ReportData {
	rep := &ReportData{
		ID: shortID("b", c.ID),
		System: System{
			Platform: platformInfo(results),
			Environment: EnvironmentInfo{
				Name:    fmt.Sprintf("%s/%s", env.OS, env.Arch),
				Acronym: env.OS,
				Version: env.Go,
				Machines: []Machine{{
					Quantity: 1,
					OS:       env.OS,
					CPU:      CPU{Name: env.Arch, Cores: fmt.Sprint(env.CPUs)},
					Memory:   map[string]string{},
					Network:  map[string]string{},
					Storage:  map[string]string{},
					Accel:    map[string]string{},
				}},
			},
			Benchmark: map[string]Tool{
				"graphalytics-go": {
					Name:    env.Harness,
					Version: env.Version + "+" + shortGit(env.Git),
					Link:    "https://ldbcouncil.org/benchmarks/graphalytics/",
				},
			},
		},
		Configuration: Configuration{
			TargetScale: targetScale(results),
			Resources:   resources(results),
		},
		Result: Result{
			Experiments: map[string]Experiment{},
			Jobs:        map[string]Job{},
			Runs:        map[string]Run{},
		},
	}
	if spec != nil {
		rep.System.Benchmark["spec"] = Tool{Name: spec.Name, Version: "1", Link: ""}
	}

	type jobKey struct {
		platform, dataset, algorithm string
		threads, machines            int
	}
	jobOf := map[jobKey]string{}
	for i, r := range results {
		jk := jobKey{r.Spec.Platform, r.Spec.Dataset, string(r.Spec.Algorithm), r.Spec.Threads, r.Spec.Machines}
		jid, ok := jobOf[jk]
		if !ok {
			jid = shortID("j", jk.platform, jk.dataset, jk.algorithm, fmt.Sprint(jk.threads), fmt.Sprint(jk.machines))
			jobOf[jk] = jid
			rep.Result.Jobs[jid] = Job{
				ID:        jid,
				Algorithm: strings.ToLower(string(r.Spec.Algorithm)),
				Dataset:   r.Spec.Dataset,
				Scale:     r.Scale,
				Platform:  r.Spec.Platform,
			}
			etype := "baseline-alg-" + strings.ToLower(string(r.Spec.Algorithm))
			eid := shortID("e", etype)
			exp, ok := rep.Result.Experiments[eid]
			if !ok {
				exp = Experiment{ID: eid, Type: etype}
			}
			exp.Jobs = append(exp.Jobs, jid)
			rep.Result.Experiments[eid] = exp
		}
		rid := shortID("r", jid, fmt.Sprint(i))
		rep.Result.Runs[rid] = Run{
			ID:             rid,
			Timestamp:      r.Timestamp.UnixMilli(),
			Success:        r.Status == core.StatusOK,
			Makespan:       r.Makespan.Milliseconds(),
			ProcessingTime: r.ProcessingTime.Milliseconds(),
		}
		job := rep.Result.Jobs[jid]
		job.Runs = append(job.Runs, rid)
		job.Repetition = len(job.Runs)
		rep.Result.Jobs[jid] = job
	}
	for eid, exp := range rep.Result.Experiments {
		sort.Strings(exp.Jobs)
		rep.Result.Experiments[eid] = exp
	}
	return rep
}

func platformInfo(results []core.JobResult) PlatformInfo {
	seen := map[string]bool{}
	var names []string
	for _, r := range results {
		if !seen[r.Spec.Platform] {
			seen[r.Spec.Platform] = true
			names = append(names, r.Spec.Platform)
		}
	}
	sort.Strings(names)
	name := strings.Join(names, "+")
	if name == "" {
		name = "unknown"
	}
	return PlatformInfo{Name: name, Acronym: name, Version: HarnessVersion,
		Link: "https://ldbcouncil.org/benchmarks/graphalytics/"}
}

// targetScale is the largest T-shirt class seen across the results.
func targetScale(results []core.JobResult) string {
	best := ""
	var bestScale float64 = -1
	for _, r := range results {
		if r.Scale > bestScale {
			bestScale = r.Scale
			best = string(r.Class)
		}
	}
	if best == "" {
		best = "?"
	}
	return best
}

func resources(results []core.JobResult) map[string]Resource {
	maxThreads, maxMachines := 0, 0
	for _, r := range results {
		if r.Spec.Threads > maxThreads {
			maxThreads = r.Spec.Threads
		}
		if r.Spec.Machines > maxMachines {
			maxMachines = r.Spec.Machines
		}
	}
	return map[string]Resource{
		"cpu-core":     {Name: "cpu-core", Baseline: float64(maxThreads), Scalability: true},
		"cpu-instance": {Name: "cpu-instance", Baseline: float64(maxMachines), Scalability: true},
	}
}

func shortGit(rev string) string {
	if len(rev) > 8 {
		return rev[:8]
	}
	if rev == "" {
		return "unknown"
	}
	return rev
}

// WriteReportJS writes the data file: "var results = <json>;" — the
// exact shape the Graphalytics report site loads. The JSON body is
// indented for human diffing; map keys are sorted by the encoder, so
// the output is deterministic.
func WriteReportJS(w io.Writer, rep *ReportData) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("archive: render report: %w", err)
	}
	_, err = fmt.Fprintf(w, "var results = %s;\n", b)
	return err
}

// WriteReportHTML writes a self-contained static report page that
// loads benchmark-results.js from its own directory and renders the
// experiment/job/run tables client-side — no server or framework
// required, so the page works from a file:// checkout of the archive
// as well as from the daemon's /v1/archive endpoints.
func WriteReportHTML(w io.Writer) error {
	_, err := io.WriteString(w, reportHTML)
	return err
}

// tables renders the text tables of a results commit: the paper
// artifacts registered for the matrix its spec names (a commit sealed
// from DatasetVarietySpec renders Figures 4 and 5), or the plain job
// table for any other spec.
func tables(c *Commit, spec *core.BenchSpec, results []core.JobResult) []*core.Report {
	var out []*core.Report
	if spec != nil {
		for _, exp := range core.Experiments() {
			if exp.Matrix == spec.Name {
				out = append(out, exp.Render(*spec, results))
			}
		}
	}
	if len(out) == 0 {
		out = append(out, core.JobTable(c.Name, "spec results: "+c.Name, results))
	}
	return out
}

// WriteReportDir renders commit ref into dir as benchmark-results.js +
// index.html + tables.txt.
func (a *Archive) WriteReportDir(ref, dir string) error {
	id, err := a.Resolve(ref)
	if err != nil {
		return err
	}
	c, err := a.Load(id)
	if err != nil {
		return err
	}
	results, env, spec, err := a.sealedRun(c)
	if err != nil {
		return err
	}
	rep := buildReport(c, results, env, spec)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("archive: report dir: %w", err)
	}
	var js strings.Builder
	if err := WriteReportJS(&js, rep); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "benchmark-results.js"), []byte(js.String())); err != nil {
		return err
	}
	var html strings.Builder
	if err := WriteReportHTML(&html); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "index.html"), []byte(html.String())); err != nil {
		return err
	}
	var txt strings.Builder
	for _, t := range tables(c, spec, results) {
		if err := t.Render(&txt); err != nil {
			return err
		}
	}
	return writeFileAtomic(filepath.Join(dir, "tables.txt"), []byte(txt.String()))
}

const reportHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Graphalytics benchmark report</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1b1b1b; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: .5rem 0 1.5rem; }
th, td { border: 1px solid #ccc; padding: .3rem .6rem; text-align: left; font-size: .9rem; }
th { background: #f2f2f2; }
.ok { color: #176b1e; } .fail { color: #a11212; font-weight: 600; }
code { background: #f5f5f5; padding: 0 .2rem; }
#meta { color: #555; font-size: .9rem; }
</style>
</head>
<body>
<h1>Graphalytics benchmark report</h1>
<p id="meta"></p>
<h2>System</h2>
<table id="system"></table>
<h2>Jobs</h2>
<table id="jobs"></table>
<script src="benchmark-results.js"></script>
<script>
(function () {
  var r = results;
  document.getElementById('meta').textContent =
    'report ' + r.id + ' — platform ' + r.system.platform.name +
    ' — target scale ' + r.configuration['target-scale'];
  var sys = document.getElementById('system');
  var m = r.system.environment.machines[0] || {};
  sys.innerHTML =
    '<tr><th>Platform</th><td>' + r.system.platform.name + ' v' + r.system.platform.version + '</td></tr>' +
    '<tr><th>Environment</th><td>' + r.system.environment.name + ' (' + r.system.environment.version + ')</td></tr>' +
    '<tr><th>Machine</th><td>' + (m.cpu ? m.cpu.name + ' × ' + m.cpu.cores + ' cores' : '?') + '</td></tr>';
  var rows = ['<tr><th>Job</th><th>Platform</th><th>Algorithm</th><th>Dataset</th><th>Scale</th><th>Runs</th><th>Success</th><th>Median makespan (ms)</th><th>Median Tproc (ms)</th></tr>'];
  var jobIds = Object.keys(r.result.jobs).sort();
  function median(xs) {
    if (!xs.length) return NaN;
    var s = xs.slice().sort(function (a, b) { return a - b; });
    return s[Math.floor(s.length / 2)];
  }
  jobIds.forEach(function (jid) {
    var j = r.result.jobs[jid];
    var runs = j.runs.map(function (rid) { return r.result.runs[rid]; });
    var okRuns = runs.filter(function (x) { return x.success; });
    var cls = okRuns.length === runs.length ? 'ok' : 'fail';
    rows.push('<tr><td><code>' + j.id + '</code></td><td>' + (j.platform || '') + '</td><td>' + j.algorithm +
      '</td><td>' + j.dataset + '</td><td>' + j.scale + '</td><td>' + runs.length +
      '</td><td class="' + cls + '">' + okRuns.length + '/' + runs.length +
      '</td><td>' + median(runs.map(function (x) { return x.makespan; })) +
      '</td><td>' + median(runs.map(function (x) { return x['processing-time']; })) + '</td></tr>');
  });
  document.getElementById('jobs').innerHTML = rows.join('');
}());
</script>
</body>
</html>
`
