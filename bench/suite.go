package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/archive"
	"graphalytics/internal/core"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/platforms"
	"graphalytics/internal/validation"
	"graphalytics/internal/workload"
)

// The suite workload's inputs and goldens. The goldens pin the workload
// itself: a catalog or engine-registry change that alters what runs fails
// a check instead of silently shifting the numbers.
var (
	//go:embed testdata/suite.spec.json
	suiteSpecJSON []byte
	//go:embed testdata/suite.plan.golden
	suitePlanGolden string
	//go:embed testdata/suite.unsupported.golden
	suiteUnsupportedGolden string
)

// planShape renders what a compiled plan runs: job and deployment counts,
// then one line per deployment with its algorithms in plan order.
func planShape(p *core.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d jobs %d deployments\n", len(p.Jobs), len(p.Deployments))
	for _, d := range p.Deployments {
		fmt.Fprintf(&b, "%s %s threads=%d machines=%d:", d.Platform, d.Dataset, d.Config.Threads, d.Config.Machines)
		for _, ji := range d.Jobs {
			fmt.Fprintf(&b, " %s", p.Jobs[ji].Algorithm)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// jobTriple names a job the way suite.unsupported.golden lists it.
func jobTriple(s core.JobSpec) string {
	return fmt.Sprintf("%s %s %s", s.Platform, s.Dataset, s.Algorithm)
}

// dirKB is the size of everything under dir.
func dirKB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1024
}

// eventLog is the traced pass's core.Observer. The session serializes
// Observe calls, so appending needs no lock.
type eventLog struct{ events []core.Event }

func (l *eventLog) Observe(e core.Event) {
	if e.Result != nil {
		res := *e.Result
		e.Result = &res
	}
	l.events = append(l.events, e)
}

// suiteSpec decodes the suite's spec bytes the way the CLI decodes a
// spec file.
func (r *run) suiteSpec() (*core.BenchSpec, error) {
	spec, err := core.DecodeSpec(bytes.NewReader(suiteSpecJSON))
	if err == nil && r.sz.suiteDatasets != nil {
		for i := range spec.Sweeps {
			spec.Sweeps[i].Datasets = core.DatasetSelector{IDs: r.sz.suiteDatasets}
		}
	}
	return spec, err
}

// suitePass is one user-visible operation: spec bytes in, sealed commit
// root out, on a fresh session and a fresh archive over cacheDir. A cold
// pass gets an empty cacheDir, a warm pass the one a cold pass filled —
// the second CLI invocation.
type suitePass struct {
	plan    *core.Plan
	results []core.JobResult
	arch    *archive.Archive
	root    string
	wall    time.Duration
	compile time.Duration
	// compiled is when Compile returned: materializations before it
	// belong to the compile span, later ones to the run.
	compiled time.Time
	runplan  time.Duration
	seal     time.Duration
}

func (r *run) suitePass(tr *tracer, op int, kind, cacheDir string) (*suitePass, error) {
	archDir, err := os.MkdirTemp(r.dir, "archive-")
	if err != nil {
		return nil, err
	}
	p := &suitePass{}
	root := tr.begin(0, "suite."+kind+"_pass", op)
	t0 := time.Now()

	sp := tr.begin(root, "core.decode_spec", op)
	spec, err := r.suiteSpec()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "archive.open", op)
	p.arch, err = archive.Open(archDir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sink := core.NewArchiveSink(p.arch, spec.Name, spec)
	opts := []core.Option{
		core.WithCacheDir(cacheDir), core.WithParallelism(r.p),
		core.WithSink(core.NewJSONLSink(io.Discard)), core.WithSink(sink),
	}
	var log *eventLog
	if tr != nil {
		log = &eventLog{}
		opts = append(opts, core.WithObserver(log))
	}
	s := core.NewSession(opts...)

	compileSpan := tr.begin(root, "core.compile", op)
	t := time.Now()
	p.plan, err = s.Compile(*spec)
	p.compiled = time.Now()
	p.compile = p.compiled.Sub(t)
	tr.end(compileSpan)
	if err != nil {
		return nil, err
	}
	runSpan := tr.begin(root, "core.runplan", op)
	t = time.Now()
	p.results, err = s.RunPlan(context.Background(), p.plan)
	p.runplan = time.Since(t)
	tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "archive.seal", op)
	t = time.Now()
	p.root, err = sink.Commit()
	p.seal = time.Since(t)
	tr.end(sp)
	tr.end(root)
	p.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if log != nil {
		r.suiteEvents(tr, op, kind, compileSpan, runSpan, log.events, p)
	}
	return p, nil
}

// suiteEvents turns one traced pass's Observer events into spans and
// per-layer numbers. A job span runs from job-started to job-finished;
// its children are the upload it performed (deployment-uploaded carries
// the duration) and the execute (JobResult.Makespan, placed after the
// upload); what is left of the job — reference wait, validation, record —
// is its self time and is charged to core. Materializations that ran a
// generator or decoded a snapshot become workload spans.
func (r *run) suiteEvents(tr *tracer, op int, kind string, compileSpan, runSpan int, events []core.Event, p *suitePass) {
	type job struct {
		start    time.Time
		upload   time.Duration // performed by this job, zero when shared
		uploaded time.Time
	}
	active := make(map[int]*job)
	bySpec := make(map[core.JobSpec]*job)
	counts := make(map[string]float64)
	elapsed := make(map[string]time.Duration)
	var jobWall, residual, upload time.Duration
	uploads := 0.0
	for _, e := range events {
		switch e.Type {
		case core.EventDatasetMaterialized:
			counts[e.Source]++
			elapsed[e.Source] += e.Elapsed
			if e.Source != string(graphstore.SourceMemory) {
				parent := runSpan
				if !e.Time.After(p.compiled) {
					parent = compileSpan
				}
				tr.add(parent, "workload.materialize_"+e.Source, op, e.Time.Add(-e.Elapsed), e.Time)
			}
		case core.EventJobStarted:
			j := &job{start: e.Time}
			active[e.Index], bySpec[e.Spec] = j, j
		case core.EventDeploymentUploaded:
			if j := bySpec[e.Spec]; j != nil {
				j.upload, j.uploaded = e.Elapsed, e.Time
			}
			uploads++
			upload += e.Elapsed
		case core.EventJobFinished:
			j := active[e.Index]
			if j == nil {
				continue
			}
			delete(active, e.Index)
			delete(bySpec, e.Spec)
			dur := e.Time.Sub(j.start)
			jobWall += dur
			residual += dur - j.upload - e.Result.Makespan
			id := tr.add(runSpan, "core.job", op, j.start, e.Time)
			execStart := j.start
			if j.upload > 0 {
				tr.add(id, "platforms."+e.Spec.Platform+".upload", op, j.uploaded.Add(-j.upload), j.uploaded)
				execStart = j.uploaded
			}
			if e.Result.Makespan > 0 {
				tr.add(id, "platforms."+e.Spec.Platform+".execute", op, execStart, execStart.Add(e.Result.Makespan))
			}
		}
	}
	if kind == "cold" {
		r.rec.add("workload.materialize_built_s", elapsed[string(graphstore.SourceBuilt)].Seconds())
		r.rec.add("graphstore.hits_built", counts[string(graphstore.SourceBuilt)])
		return
	}
	r.rec.add("workload.materialize_snapshot_s", elapsed[string(graphstore.SourceSnapshot)].Seconds())
	r.rec.add("graphstore.hits_snapshot", counts[string(graphstore.SourceSnapshot)])
	r.rec.add("graphstore.hits_memory", counts[string(graphstore.SourceMemory)])
	r.rec.add("core.upload_s", upload.Seconds())
	r.rec.add("core.uploads_performed", uploads)
	r.rec.add("core.job_residual_s", residual.Seconds())
	r.rec.add("core.worker_idle_share", 1-jobWall.Seconds()/(float64(r.p)*p.runplan.Seconds()))
}

// runSuite is the user's end to end: the whole catalog on all seven
// engines from a spec file to a sealed, verifiable commit root. One round
// is a cold pass and a warm pass over the cache the cold one filled.
func runSuite(r *run) {
	platforms.RegisterAll()
	unsupported := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(suiteUnsupportedGolden), "\n") {
		unsupported[line] = true
	}

	// Set-up: compile the spec once on a throwaway store and hold the
	// plan against its golden, so the timed passes run the declared
	// workload or not at all.
	if !r.setUp(func() bool {
		spec, err := r.suiteSpec()
		if !r.must(err, "suite set-up: decode spec") {
			return false
		}
		dir, err := os.MkdirTemp(r.dir, "setup-")
		if !r.must(err, "suite set-up: scratch") {
			return false
		}
		plan, err := core.NewSession(core.WithCacheDir(dir)).Compile(*spec)
		if !r.must(err, "suite set-up: compile") {
			return false
		}
		r.check(r.sz.suiteDatasets != nil || planShape(plan) == suitePlanGolden, "suite: the compiled plan (%d jobs, %d deployments) differs from testdata/suite.plan.golden", len(plan.Jobs), len(plan.Deployments))
		os.RemoveAll(dir)
		return true
	}) {
		return
	}

	verdict := func(p *suitePass) {
		r.check(len(p.results) == len(p.plan.Jobs), "suite: %d results for %d jobs", len(p.results), len(p.plan.Jobs))
		for _, res := range p.results {
			if unsupported[jobTriple(res.Spec)] {
				r.check(res.Status == core.StatusUnsupported, "suite: %s is %s, want unsupported", jobTriple(res.Spec), res.Status)
			} else {
				r.check(res.Status == core.StatusOK && res.ValidationOK, "suite: %s is %s (validated %v): %s", jobTriple(res.Spec), res.Status, res.ValidationOK, res.Error)
			}
		}
	}
	layers := func(p *suitePass) {
		r.rec.add("core.compile_ms", p.compile.Seconds()*1e3)
		r.rec.add("core.runplan_s", p.runplan.Seconds())
		r.rec.add("archive.seal_ms", p.seal.Seconds()*1e3)
		r.rec.add("archive.kb_per_commit", dirKB(p.arch.Dir()))
		engine := make(map[string]time.Duration)
		algo := make(map[algorithms.Algorithm]time.Duration)
		for _, res := range p.results {
			engine[res.Spec.Platform] += res.Makespan
			algo[res.Spec.Algorithm] += res.Makespan
		}
		for _, e := range engineNames {
			r.rec.add("platforms."+e+".makespan_s", engine[e].Seconds())
		}
		for _, a := range algorithms.All {
			r.rec.add("core.algo."+strings.ToLower(string(a))+".makespan_s", algo[a].Seconds())
		}
	}

	var last *suitePass
	var cacheDir string
	r.rounds(func(i int) (jobs float64) {
		tr := r.roundTracer(i)
		// Archives and caches are removed as the rounds go, which keeps
		// the scratch directory small and the file system in one state:
		// on the sandbox's ext4 a seal's 632 small files cost 0.3-0.4 s
		// while earlier deletions are being committed and a tenth of that
		// on an idle disk, and only the former can be had on every round.
		if last != nil {
			os.RemoveAll(cacheDir)
			os.RemoveAll(last.arch.Dir())
		}
		var err error
		cacheDir, err = os.MkdirTemp(r.dir, "cache-")
		if !r.must(err, "suite: scratch") {
			return
		}
		cold, err := r.suitePass(tr, 2*i, "cold", cacheDir)
		if !r.must(err, "suite: cold pass") {
			return
		}
		r.rec.add("cold_spec_to_root_s", cold.wall.Seconds())
		verdict(cold)
		os.RemoveAll(cold.arch.Dir())

		warm, err := r.suitePass(tr, 2*i+1, "warm", cacheDir)
		if !r.must(err, "suite: warm pass") {
			return
		}
		r.rec.add("warm_spec_to_root_s", warm.wall.Seconds())
		r.rec.add("op_p50_ms", warm.wall.Seconds()*1e3)
		verdict(warm)
		layers(warm)
		last = warm
		return float64(len(cold.results) + len(warm.results))
	})
	if last == nil {
		return
	}

	// The sealed archive must verify offline and render its report.
	t := time.Now()
	rep, err := last.arch.Verify()
	r.rec.add("archive.verify_ms", time.Since(t).Seconds()*1e3)
	if r.must(err, "suite: archive verify") {
		r.check(rep.OK(), "suite: archive verify found %d problems", len(rep.Problems))
	}
	t = time.Now()
	r.must(last.arch.WriteReportDir(last.root, filepath.Join(r.dir, "report")), "suite: write report")
	r.rec.add("archive.report_ms", time.Since(t).Seconds()*1e3)

	if r.traced {
		r.suiteProbes(last, cacheDir)
	}
}

// suiteProbes measures what a pass spends on reference outputs,
// validation and the JSONL sink by doing that work alone, over the plan's
// dataset x algorithm set. Traced runs only.
func (r *run) suiteProbes(p *suitePass, cacheDir string) {
	type pair struct {
		dataset string
		algo    algorithms.Algorithm
	}
	seen := make(map[pair]bool)
	var pairs []pair
	for _, res := range p.results {
		k := pair{res.Spec.Dataset, res.Spec.Algorithm}
		if res.Status == core.StatusOK && !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
	}
	store := graphstore.New(graphstore.Options{Dir: cacheDir})
	for i := 0; i < r.sz.probeReps; i++ {
		var reference, validate time.Duration
		for _, k := range pairs {
			d, err := workload.ByID(k.dataset)
			if !r.must(err, "suite probe: dataset "+k.dataset) {
				return
			}
			g, err := workload.LoadFrom(store, k.dataset)
			if !r.must(err, "suite probe: load "+k.dataset) {
				return
			}
			t := time.Now()
			out, err := algorithms.RunReference(g, k.algo, d.Params)
			reference += time.Since(t)
			if !r.must(err, "suite probe: reference "+k.dataset+" "+string(k.algo)) {
				return
			}
			t = time.Now()
			rep := validation.Validate(out, out, g.IDs())
			validate += time.Since(t)
			r.check(rep.OK, "suite probe: an output differs from itself")
		}
		r.rec.add("algorithms.reference_catalog_s", reference.Seconds())
		r.rec.add("validation.validate_catalog_ms", validate.Seconds()*1e3)

		sink := core.NewJSONLSink(io.Discard)
		t := time.Now()
		for _, res := range p.results {
			if err := sink.Consume(res); !r.must(err, "suite probe: jsonl sink") {
				return
			}
		}
		r.rec.add("core.sink_jsonl_us_per_result", time.Since(t).Seconds()*1e6/float64(len(p.results)))
	}
}
