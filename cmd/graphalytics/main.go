// Command graphalytics is the benchmark CLI: it lists platforms and
// datasets, runs single jobs and benchmark specs, runs the paper's
// experiment suites, streams results as JSON lines, and seals runs into
// the content-addressed archive — from which `archive report` regenerates
// every report, the paper tables included, without re-running anything.
//
// Usage:
//
//	graphalytics list                         # platforms, datasets, survey
//	graphalytics run -platform native -dataset D300 -algorithm BFS
//	graphalytics suite -id fig4               # run one experiment suite
//	graphalytics suite -id all -out results.jsonl -parallel 4
//	graphalytics renewal -budget 2s           # re-derive class L
//
// Long-running commands (run, suite, warm, renewal) honor Ctrl-C: the first
// interrupt cancels the session context, in-flight jobs abort and are
// marked canceled along with jobs not yet started, and the harness exits
// promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"time"

	"graphalytics"
	"graphalytics/internal/algorithms"
	"graphalytics/internal/archive"
	"graphalytics/internal/core"
	"graphalytics/internal/granula"
	"graphalytics/internal/validation"
	"graphalytics/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "suite":
		err = cmdSuite(ctx, os.Args[2:])
	case "warm":
		err = cmdWarm(ctx, os.Args[2:])
	case "renewal":
		err = cmdRenewal(ctx, os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "submit":
		err = cmdSubmit(ctx, os.Args[2:])
	case "watch":
		err = cmdWatch(ctx, os.Args[2:])
	case "archive":
		err = cmdArchive(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphalytics:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: graphalytics <list|run|plan|suite|warm|renewal|validate|submit|watch|archive> [flags]
  list                      print platforms, datasets and the workload survey
  run     -platform -dataset -algorithm [-threads -machines -archive] [-cache-dir DIR] [-mmap]
  run     -spec spec.json [-out results.jsonl] [-parallel N] [-progress] [-cache-dir DIR] [-mmap] [-archive-dir DIR]
  plan    -spec spec.json [-json]        compile a spec and print the plan (dry run)
  suite   -id <fig4|fig5|fig6|fig7|fig8|fig9|fig10|table8|table9|table10|table11|all> [-out results.jsonl] [-parallel N] [-progress] [-cache-dir DIR]
  warm    -cache-dir DIR [-parallel N] [-dataset IDS] [-mmap]   materialize datasets into a snapshot cache
  renewal -budget <duration> [-platform native]
  validate -algorithm <name> -got <file> -want <file>
  submit  -spec spec.json [-server URL] [-key K] [-watch] [-out results.jsonl]
  watch   -run <id> [-server URL] [-key K] [-out results.jsonl]
  archive verify|head|log|show|commit-bench|report|regress [-dir DIR] ...

'submit' and 'watch' talk to a running graphalyticsd daemon over its
HTTP API: submit posts the spec as a new run; watch follows a run's
live SSE event stream (reconnecting with Last-Event-ID) and can save
its JSONL results.

A spec file is a declarative benchmark definition (platforms, datasets by
ID or scale class, algorithms, resource sweeps, repetitions, SLA,
validation policy). 'plan' shows the compiled job listing grouped into
shared-upload deployments without running anything; 'run -spec' executes
it, paying one graph upload per deployment group.

-cache-dir persists datasets as binary CSR snapshots: the first run
generates and caches them, later runs (and 'warm'-ed caches) load the
snapshots instead of re-generating.

-archive-dir seals a completed 'run -spec' into the content-addressed
run archive: results, spec and environment are committed under a Merkle
root chained to the previous commit, so the same spec and results
always produce the same commit ID. 'archive verify' re-derives every
hash offline; 'archive report' regenerates a commit's reports from the
sealed record alone: the Graphalytics report pages plus tables.txt — the
paper tables of an experiment spec (a fig4 commit renders Figures 4 and
5), the job table of any other; 'archive regress' diffs two archived
bench snapshots and exits nonzero on gated hot-path regressions (the CI
gate). 'suite' runs each job matrix once and streams -out as jobs finish.

-mmap serves warm snapshots as mmap-backed graphs: open is O(header),
the CSR arrays are read zero-copy from the page cache, and pages stay
reclaimable by the OS — so graphs larger than RAM can run. Out-of-core
datasets (XL22, XL24) materialize through a spill-to-disk builder and
are warmed by name: 'warm -cache-dir DIR -dataset XL22 -mmap'.`)
}

// progressObserver renders the session's event stream as live progress
// lines, each prefixed with the event's session sequence number and
// wall-clock timestamp (the same stamps the service daemon's SSE stream
// carries, so a console trace and an SSE trace line up event for
// event). The session serializes Observe calls, so no locking is needed.
func progressObserver(w io.Writer) graphalytics.Observer {
	return graphalytics.ObserverFunc(func(e graphalytics.Event) {
		stamp := fmt.Sprintf("#%-4d %s", e.Seq, e.Time.Format("15:04:05.000"))
		switch e.Type {
		case graphalytics.EventExperimentStarted:
			fmt.Fprintf(w, "%s >> %s: running\n", stamp, e.Experiment)
		case graphalytics.EventExperimentFinished:
			fmt.Fprintf(w, "%s >> %s: done\n", stamp, e.Experiment)
		case graphalytics.EventDatasetMaterialized:
			// Memory hits are the steady state and would swamp the log;
			// show only the loads that did real work, so a warmed cache is
			// visibly all "snapshot" and a cold one all "built".
			if src := graphalytics.DatasetSource(e.Source); src == graphalytics.SourceSnapshot || src == graphalytics.SourceBuilt {
				fmt.Fprintf(w, "%s    dataset %-6s %-9s %v\n", stamp, e.Dataset, e.Source, e.Elapsed.Round(time.Microsecond))
			}
		case graphalytics.EventJobFinished:
			pos := fmt.Sprintf("[%d/%d] ", e.Index+1, e.Total)
			if e.Err != nil {
				fmt.Fprintf(w, "%s    %s%s/%s/%s: harness error: %v\n",
					stamp, pos, e.Spec.Platform, e.Spec.Dataset, e.Spec.Algorithm, e.Err)
				return
			}
			r := e.Result
			fmt.Fprintf(w, "%s    %s%-9s %-6s %-5s t=%-2d m=%-2d %-14s Tproc=%v\n",
				stamp, pos, e.Spec.Platform, e.Spec.Dataset, e.Spec.Algorithm,
				e.Spec.Threads, e.Spec.Machines, r.Status, r.ProcessingTime)
		}
	})
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("Platforms (engine -> paper system):")
	for _, name := range graphalytics.Platforms() {
		p, err := graphalytics.PlatformByName(name)
		if err != nil {
			return err
		}
		kind := "single-machine"
		if p.Distributed() {
			kind = "distributed"
		}
		fmt.Printf("  %-9s -> %-12s %-14s %s\n", name, graphalytics.PaperName(name), kind, p.Description())
	}
	fmt.Println("\nDatasets:")
	for _, d := range graphalytics.Datasets() {
		g, err := graphalytics.LoadDataset(d.ID)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %-22s |V|=%-8d |E|=%-9d scale=%.1f class=%-3s %s\n",
			d.ID, g.Name(), g.NumVertices(), g.NumEdges(),
			graphalytics.GraphScale(g), graphalytics.DatasetClass(g), d.Domain)
	}
	// Out-of-core entries are listed from catalog metadata only: their
	// point is that they are too large to materialize casually.
	fmt.Println("\nOn-demand out-of-core datasets (warm -dataset ID -mmap):")
	for _, d := range workload.FullCatalog() {
		if !d.OutOfCore {
			continue
		}
		fmt.Printf("  %-10s %-22s scale=%.1f class=XL  %s (streamed build + mmap)\n",
			d.ID, d.Name, d.PaperScale, d.Domain)
	}
	fmt.Println("\nWorkload selection survey (Table 1):")
	for _, row := range workload.Survey() {
		kind := "unweighted"
		if row.Weighted {
			kind = "weighted"
		}
		fmt.Printf("  %-10s %-18s %3d articles (%.1f%%)  selected: %s\n",
			kind, row.Class, row.Count, row.Percent, orDash(row.Selected))
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// cmdPlan compiles a benchmark spec and prints the resulting plan — the
// dry run of the Spec → Plan → Run pipeline. The listing is deterministic
// for a given spec and catalog, so it can be diffed against a golden
// file (CI does).
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	specPath := fs.String("spec", "", "benchmark spec JSON file (required)")
	asJSON := fs.Bool("json", false, "emit the compiled plan as JSON instead of a listing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("plan: -spec is required")
	}
	sp, err := graphalytics.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	plan, err := graphalytics.CompileSpec(*sp)
	if err != nil {
		return err
	}
	if *asJSON {
		return plan.WriteJSON(os.Stdout)
	}
	return plan.Render(os.Stdout)
}

// runSpec executes a benchmark spec end to end: compile to a plan, run it
// with shared uploads, stream results to the sinks (-out JSONL), then
// render the job table and the cross-platform analysis from the results
// the run returned. With archiveDir, the
// completed run is sealed into the content-addressed archive and the
// commit ID printed — the handle `archive verify` and the daemon's
// /v1/archive endpoints accept.
func runSpec(ctx context.Context, specPath, out string, parallel int, progress bool, cacheDir string, mmap bool, archiveDir string) error {
	sp, err := graphalytics.LoadSpec(specPath)
	if err != nil {
		return err
	}
	var asink *core.ArchiveSink
	if archiveDir != "" {
		arch, err := archive.Open(archiveDir)
		if err != nil {
			return err
		}
		asink = core.NewArchiveSink(arch, sp.Name, sp)
	}
	opts := []graphalytics.Option{
		graphalytics.WithParallelism(parallel),
	}
	if asink != nil {
		// It buffers until the explicit Commit below, after the run and
		// its -out stream have finished.
		opts = append(opts, graphalytics.WithSink(asink))
	}
	if progress {
		opts = append(opts, graphalytics.WithObserver(progressObserver(os.Stderr)))
	}
	if cacheDir != "" {
		opts = append(opts, graphalytics.WithCacheDir(cacheDir))
		if mmap {
			opts = append(opts, graphalytics.WithMappedSnapshots(true))
		}
	}
	var outFile *os.File
	if out != "" {
		outFile, err = os.Create(out)
		if err != nil {
			return err
		}
		defer outFile.Close()
		opts = append(opts, graphalytics.WithSink(graphalytics.NewJSONLSink(outFile)))
	}
	s := graphalytics.NewSession(opts...)
	plan, err := s.Compile(*sp)
	if err != nil {
		return err
	}
	fmt.Printf("plan %s: %d jobs in %d deployments (%d uploads instead of %d)\n",
		plan.Name, len(plan.Jobs), len(plan.Deployments), len(plan.Deployments), len(plan.Jobs))
	results, err := s.RunPlan(ctx, plan)
	// A failing sink (e.g. the -out file's disk filling up) must not
	// discard a completed run: render the report and analysis, then
	// surface the sink error.
	var sinkErr error
	if err != nil {
		if !graphalytics.SinkOnly(err) {
			return err
		}
		sinkErr = err
	}
	ok := 0
	for _, res := range results {
		if res.Completed() {
			ok++
		}
	}
	if err := core.JobTable(sp.Name, "spec results: "+sp.Name, results).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("%d/%d jobs completed\n", ok, len(results))
	if err := core.AnalysisReport(results).Render(os.Stdout); err != nil {
		return err
	}
	if outFile != nil {
		fmt.Printf("%d results streamed to %s\n", len(results), outFile.Name())
	}
	// Seal only completed runs: an interrupted run's partial results
	// must never masquerade as an archived benchmark.
	if asink != nil && ctx.Err() == nil {
		root, err := asink.Commit()
		if err != nil {
			return err
		}
		fmt.Printf("run archived: commit %s (%d results)\n", root, asink.Len())
	}
	if sinkErr != nil {
		return sinkErr
	}
	return ctx.Err()
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "benchmark spec JSON file; runs the compiled plan instead of a single job")
	platformName := fs.String("platform", "native", "engine to run on")
	dataset := fs.String("dataset", "D300", "dataset ID from the catalog")
	algorithm := fs.String("algorithm", "BFS", "one of BFS PR WCC CDLP LCC SSSP")
	threads := fs.Int("threads", 4, "threads per machine")
	machines := fs.Int("machines", 1, "simulated machines")
	sla := fs.Duration("sla", time.Minute, "makespan budget")
	archivePath := fs.String("archive", "", "write the Granula archive JSON to this path")
	outputPath := fs.String("output", "", "write the per-vertex output in the Graphalytics output format")
	out := fs.String("out", "", "with -spec: stream the results (JSON lines) to this path")
	parallel := fs.Int("parallel", 1, "with -spec: concurrent jobs (1 preserves timing fidelity)")
	progress := fs.Bool("progress", false, "with -spec: stream per-job progress to stderr")
	cacheDir := fs.String("cache-dir", "", "load/persist datasets as binary snapshots under this directory")
	mmap := fs.Bool("mmap", false, "with -cache-dir: serve warm snapshots as mmap-backed graphs")
	archiveDir := fs.String("archive-dir", "", "with -spec: seal the completed run into the content-addressed archive under this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mmap && *cacheDir == "" {
		return fmt.Errorf("run: -mmap requires -cache-dir (mapping needs on-disk snapshots)")
	}
	if *specPath != "" {
		// The single-job flags have no effect in spec mode; reject them
		// loudly instead of silently dropping what the user asked for.
		specFlags := map[string]bool{"spec": true, "out": true, "parallel": true, "progress": true, "cache-dir": true, "mmap": true, "archive-dir": true}
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if !specFlags[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("run: %s cannot be combined with -spec (the spec defines the jobs)", strings.Join(stray, " "))
		}
		return runSpec(ctx, *specPath, *out, *parallel, *progress, *cacheDir, *mmap, *archiveDir)
	}
	if *archiveDir != "" {
		return fmt.Errorf("run: -archive-dir requires -spec (single jobs are not archived)")
	}

	a := algorithms.Algorithm(*algorithm)
	if !slices.Contains(algorithms.All, a) {
		return fmt.Errorf("run: %w %q (have %v)", algorithms.ErrUnknownAlgorithm, *algorithm, algorithms.All)
	}

	var g *graphalytics.Graph
	var err error
	if *cacheDir != "" {
		st := graphalytics.NewGraphStore(graphalytics.GraphStoreOptions{Dir: *cacheDir, MapSnapshots: *mmap})
		g, err = graphalytics.LoadDatasetFrom(st, *dataset)
	} else {
		g, err = graphalytics.LoadDataset(*dataset)
	}
	if err != nil {
		return err
	}
	d, err := workload.ByID(*dataset)
	if err != nil {
		return err
	}
	// The SLA window opens before upload and cancels it too.
	cfg := graphalytics.RunConfig{Threads: *threads, Machines: *machines, Net: graphalytics.DefaultNetwork()}
	jctx, cancel := context.WithTimeout(ctx, *sla)
	defer cancel()
	res, err := graphalytics.Run(jctx, *platformName, g, a, d.Params, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s/%s: Tproc=%v makespan=%v rounds=%d network=%v\n",
		*algorithm, *platformName, *dataset, res.ProcessingTime, res.Makespan, res.Rounds, res.NetworkTime)
	if err := granula.Render(os.Stdout, res.Archive); err != nil {
		return err
	}
	if *archivePath != "" {
		f, err := os.Create(*archivePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Archive.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("archive written to", *archivePath)
	}

	if *outputPath != "" {
		f, err := os.Create(*outputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := algorithms.WriteOutput(f, g.IDs(), res.Output); err != nil {
			return err
		}
		fmt.Println("output written to", *outputPath)
	}

	want, err := graphalytics.Reference(g, algorithms.Algorithm(*algorithm), d.Params)
	if err != nil {
		return err
	}
	rep := graphalytics.Validate(res.Output, want, g)
	if !rep.OK {
		return fmt.Errorf("output validation failed: %v", rep.Error())
	}
	fmt.Println("output validated against the reference implementation")
	return nil
}

// cmdValidate compares two output files (e.g. a platform's output against
// a published reference output) under the benchmark's equivalence rules.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	algorithm := fs.String("algorithm", "BFS", "algorithm the outputs belong to")
	gotPath := fs.String("got", "", "output file to check")
	wantPath := fs.String("want", "", "reference output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	read := func(path string) ([]int64, *algorithms.Output, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return algorithms.ReadOutput(f, algorithms.Algorithm(*algorithm))
	}
	gotIDs, got, err := read(*gotPath)
	if err != nil {
		return err
	}
	wantIDs, want, err := read(*wantPath)
	if err != nil {
		return err
	}
	if len(gotIDs) != len(wantIDs) {
		return fmt.Errorf("vertex counts differ: %d vs %d", len(gotIDs), len(wantIDs))
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			return fmt.Errorf("vertex id mismatch at row %d: %d vs %d", i, gotIDs[i], wantIDs[i])
		}
	}
	rep := validation.Validate(got, want, gotIDs)
	if !rep.OK {
		return rep.Error()
	}
	fmt.Printf("outputs equivalent (%d vertices checked)\n", rep.Checked)
	return nil
}

// suiteAxes are the platform sets and thread count the suites sweep.
type suiteAxes struct {
	single, dist []string
	threads      int
}

// config returns the paper's configuration of one suite; suites over the
// same matrix (fig4/fig5, fig7/table9) get the same one.
func (a suiteAxes) config(id string) core.ExperimentConfig {
	switch id {
	case "fig8", "fig9":
		return core.ExperimentConfig{Platforms: a.dist, Threads: 2,
			MachineSweep: []int{1, 2, 4, 8, 16}, WeakPairs: core.DefaultWeakPairs()}
	case "table10":
		return core.ExperimentConfig{Platforms: append(slices.Clone(a.single), "spmv-d"), Threads: a.threads, MemoryBudget: 2 << 20}
	case "table11":
		return core.ExperimentConfig{SingleMachine: a.single, Distributed: a.dist, Repetitions: 10, Threads: a.threads}
	default:
		return core.ExperimentConfig{Platforms: a.single, Threads: a.threads, ThreadSweep: []int{1, 2, 4, 8, 16, 32}}
	}
}

// suiteIDs lists every suite in the paper's order: the experiment table,
// then the Datagen self-test, which runs no jobs.
func suiteIDs() []string {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	return append(ids, "fig10")
}

// runSuites regenerates the given paper artifacts in order, rendering
// each to w. Every job matrix executes once: an artifact over a matrix
// that already ran (fig5 after fig4, table9 after fig7) is rendered from
// those results.
func runSuites(ctx context.Context, s *core.Session, ids []string, axes suiteAxes, w io.Writer) error {
	type matrix struct {
		spec    core.BenchSpec
		results []core.JobResult
	}
	ran := map[string]matrix{}
	var sinkErrs []error
	for _, id := range ids {
		if id == "fig10" {
			rep, err := core.DataGeneration([]float64{3, 10, 30, 100}, []int{1, 2, 4}, 1000)
			if err != nil {
				return err
			}
			if err := rep.Render(w); err != nil {
				return err
			}
			continue
		}
		exp, ok := core.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("unknown suite %q", id)
		}
		m, ok := ran[exp.Matrix]
		if !ok {
			spec, results, err := s.RunMatrix(ctx, id, axes.config(id))
			if err != nil {
				// A failing sink must not discard completed suites: keep
				// rendering, surface the sink errors at the end.
				if !core.SinkOnly(err) {
					return err
				}
				sinkErrs = append(sinkErrs, err)
			}
			m = matrix{spec, results}
			ran[exp.Matrix] = m
		}
		if err := exp.Render(m.spec, m.results).Render(w); err != nil {
			return err
		}
	}
	return errors.Join(sinkErrs...)
}

func cmdSuite(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id (fig4..fig10, table8..table11, all)")
	out := fs.String("out", "", "stream the results (JSON lines) to this path as jobs finish")
	threads := fs.Int("threads", 4, "threads per machine")
	sla := fs.Duration("sla", time.Minute, "makespan budget per job")
	parallel := fs.Int("parallel", 1, "concurrent jobs per sweep (1 preserves timing fidelity)")
	progress := fs.Bool("progress", false, "stream per-job progress to stderr")
	cacheDir := fs.String("cache-dir", "", "load/persist datasets as binary snapshots under this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []graphalytics.Option{
		graphalytics.WithSLA(*sla),
		graphalytics.WithParallelism(*parallel),
	}
	if *progress {
		opts = append(opts, graphalytics.WithObserver(progressObserver(os.Stderr)))
	}
	if *cacheDir != "" {
		opts = append(opts, graphalytics.WithCacheDir(*cacheDir))
	}
	if *out != "" {
		// Streamed, not saved at the end: an interrupt or a late harness
		// error keeps every result that finished before it.
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		opts = append(opts, graphalytics.WithSink(graphalytics.NewJSONLSink(f)))
	}
	ids := []string{*id}
	if *id == "all" {
		ids = suiteIDs()
	}
	axes := suiteAxes{graphalytics.SingleMachinePlatforms(), graphalytics.DistributedPlatforms(), *threads}
	err := runSuites(ctx, graphalytics.NewSession(opts...), ids, axes, os.Stdout)
	if *out != "" {
		fmt.Printf("results streamed to %s\n", *out)
	}
	return err
}

// cmdWarm materializes the whole catalog into a snapshot cache on a
// bounded worker pool, so subsequent runs with the same -cache-dir load
// binary snapshots instead of re-running generators.
func cmdWarm(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("warm", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "dataset snapshot cache directory (required)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent materializations")
	datasets := fs.String("dataset", "", "comma-separated dataset IDs (default: the whole in-core catalog; out-of-core XL datasets must be named here)")
	mmap := fs.Bool("mmap", false, "serve warm snapshots as mmap-backed graphs (zero-copy, O(header) open)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheDir == "" {
		return fmt.Errorf("warm: -cache-dir is required")
	}
	st := graphalytics.NewGraphStore(graphalytics.GraphStoreOptions{Dir: *cacheDir, MapSnapshots: *mmap})
	start := time.Now()
	onEach := func(id string, r graphalytics.GraphStoreResult, err error) {
		if err != nil {
			fmt.Printf("  %-10s ERROR %v\n", id, err)
			return
		}
		resident := "heap"
		if r.MappedBytes > 0 {
			resident = "mapped"
		}
		fmt.Printf("  %-10s %-9s |V|=%-8d |E|=%-9d %-6s %v\n",
			id, r.Source, r.Graph.NumVertices(), r.Graph.NumEdges(), resident, r.Elapsed.Round(time.Microsecond))
	}
	var err error
	if *datasets != "" {
		err = graphalytics.WarmDatasets(ctx, st, *parallel, strings.Split(*datasets, ","), onEach)
	} else {
		err = graphalytics.WarmCatalog(ctx, st, *parallel, onEach)
	}
	if err != nil {
		return err
	}
	fmt.Printf("catalog warmed into %s in %v\n", *cacheDir, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdRenewal(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("renewal", flag.ExitOnError)
	budget := fs.Duration("budget", 2*time.Second, "single-machine BFS time budget")
	platformName := fs.String("platform", "native", "state-of-the-art platform to measure with")
	threads := fs.Int("threads", 4, "threads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	class, err := graphalytics.RenewClassL(ctx, *platformName, *threads, *budget)
	if err != nil {
		return err
	}
	fmt.Printf("renewal process: with a %v BFS budget on %s, class L re-derives to %s\n",
		*budget, *platformName, class)
	return nil
}
