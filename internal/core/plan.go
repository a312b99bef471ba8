package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// A Plan is the explicit, deterministic middle stage of the Spec → Plan →
// Run pipeline: the ordered job list a BenchSpec compiles into, with the
// jobs grouped into deployments — one deployment per distinct
// (platform, dataset, config) point, holding the jobs that can share a
// single graph upload. Plans are inspectable (Render) and serializable
// (JSON), so a benchmark run can be reviewed, diffed against a golden
// listing, or shipped to another process before anything executes.
type Plan struct {
	// Name labels the plan (usually the spec's name).
	Name string `json:"name"`
	// SLA echoes the spec's per-job budget (also stamped on each job).
	SLA Duration `json:"sla,omitempty"`
	// Validation echoes the spec's output-checking policy; RunPlan
	// applies it over the session's own validation setting.
	Validation ValidationPolicy `json:"validation,omitempty"`
	// Jobs is the ordered job list; RunPlan returns one result per job,
	// in this order.
	Jobs []JobSpec `json:"jobs"`
	// Deployments groups job indices by (platform, dataset, config).
	Deployments []Deployment `json:"deployments"`
}

// Deployment is one deployment group of a plan: the jobs that run on the
// same platform, dataset and resource configuration — under the same
// per-job SLA, since the group's single upload runs inside one SLA
// window — and therefore share one uploaded-graph handle during
// execution.
type Deployment struct {
	Platform string       `json:"platform"`
	Dataset  string       `json:"dataset"`
	Config   ResourceSpec `json:"config"`
	// Jobs lists indices into Plan.Jobs, in plan order.
	Jobs []int `json:"jobs"`
}

// deployKey identifies a deployment group. It includes the per-job SLA:
// jobs with different SLA budgets must not share an upload, or the first
// job's window would decide the whole group's upload fate.
type deployKey struct {
	platform string
	dataset  string
	cfg      ResourceSpec
	sla      time.Duration
}

// resourceOf extracts the deployment-relevant resources of a job.
func resourceOf(spec JobSpec) ResourceSpec {
	return ResourceSpec{Threads: spec.Threads, Machines: spec.Machines, MemoryPerMachine: spec.MemoryPerMachine}
}

// planBuilder accumulates jobs and keyed deployment groups.
type planBuilder struct {
	plan   *Plan
	groups map[deployKey]int
}

func (b *planBuilder) add(spec JobSpec) {
	i := len(b.plan.Jobs)
	b.plan.Jobs = append(b.plan.Jobs, spec)
	key := deployKey{spec.Platform, spec.Dataset, resourceOf(spec), spec.SLA}
	gi, ok := b.groups[key]
	if !ok {
		gi = len(b.plan.Deployments)
		b.groups[key] = gi
		b.plan.Deployments = append(b.plan.Deployments, Deployment{
			Platform: spec.Platform, Dataset: spec.Dataset, Config: resourceOf(spec),
		})
	}
	b.plan.Deployments[gi].Jobs = append(b.plan.Deployments[gi].Jobs, i)
}

// Compile expands a BenchSpec into a Plan, resolving dataset selectors
// through the session's graph store (so class-based selectors hit the
// same cache, and materialization events reach the session's observer).
// A class selector materializes up to the session's parallelism datasets
// at once.
func (s *Session) Compile(spec BenchSpec) (*Plan, error) {
	return compile(spec, func(d workload.Dataset) (*graph.Graph, error) { return s.loadGraph(d) }, s.cfg.parallelism)
}

// CompileSpec expands a BenchSpec into a Plan: for each sweep, the cross
// product platform × dataset × config × algorithm × repetition, in that
// nesting order, so the jobs of one deployment group are consecutive and
// an N-algorithm sweep pays one upload. load materializes datasets when a
// selector filters by class, up to GOMAXPROCS at once, so load must be
// safe for concurrent use; nil selects the workload package's default
// store. Compilation is deterministic: the same spec always yields a
// byte-identical plan listing.
func CompileSpec(spec BenchSpec, load func(workload.Dataset) (*graph.Graph, error)) (*Plan, error) {
	return compile(spec, load, runtime.GOMAXPROCS(0))
}

// compile is CompileSpec with the class scan's worker bound.
func compile(spec BenchSpec, load func(workload.Dataset) (*graph.Graph, error), workers int) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if load == nil {
		load = func(d workload.Dataset) (*graph.Graph, error) { return workload.Load(d.ID) }
	}
	name := spec.Name
	if name == "" {
		name = "bench"
	}
	b := &planBuilder{
		plan:   &Plan{Name: name, SLA: spec.SLA, Validation: spec.Validation},
		groups: make(map[deployKey]int),
	}
	for _, sw := range spec.sweeps() {
		platforms := sw.Platforms
		if len(platforms) == 0 {
			platforms = platform.Names()
		}
		datasets, err := sw.Datasets.resolve(load, workers)
		if err != nil {
			return nil, fmt.Errorf("core: compile %q: %w", name, err)
		}
		algs := sw.Algorithms
		if len(algs) == 0 {
			algs = algorithms.All
		}
		cfgs := sw.Configs
		if len(cfgs) == 0 {
			cfgs = []ResourceSpec{{}}
		}
		reps := sw.Repetitions
		if reps < 1 {
			reps = spec.Repetitions
		}
		if reps < 1 {
			reps = 1
		}
		for _, p := range platforms {
			for _, d := range datasets {
				for _, cfg := range cfgs {
					for _, a := range algs {
						for r := 0; r < reps; r++ {
							b.add(JobSpec{
								Platform:         p,
								Dataset:          d.ID,
								Algorithm:        a,
								Threads:          cfg.Threads,
								Machines:         cfg.Machines,
								MemoryPerMachine: cfg.MemoryPerMachine,
								SLA:              time.Duration(spec.SLA),
							})
						}
					}
				}
			}
		}
	}
	return b.plan, nil
}

// PlanFromSpecs builds a plan from an explicit job list, preserving the
// given order and grouping jobs into deployments by
// (platform, dataset, config). It is how code that already assembles a
// job list — one job or a matrix — runs it: Session.RunPlan on the
// returned plan gives one result per spec, in spec order.
func PlanFromSpecs(name string, specs []JobSpec) *Plan {
	if name == "" {
		name = "bench"
	}
	b := &planBuilder{plan: &Plan{Name: name}, groups: make(map[deployKey]int)}
	for _, spec := range specs {
		b.add(spec)
	}
	return b.plan
}

// check verifies the deployment groups reference every job exactly once.
// Plans built by Compile or PlanFromSpecs always pass; it guards
// hand-written or deserialized plans.
func (p *Plan) check() error {
	seen := make([]bool, len(p.Jobs))
	for gi, dep := range p.Deployments {
		for _, ji := range dep.Jobs {
			if ji < 0 || ji >= len(p.Jobs) {
				return fmt.Errorf("core: plan %q: deployment %d references job %d of %d", p.Name, gi, ji, len(p.Jobs))
			}
			if seen[ji] {
				return fmt.Errorf("core: plan %q: job %d appears in multiple deployments", p.Name, ji)
			}
			seen[ji] = true
			job := p.Jobs[ji]
			if job.Platform != dep.Platform || job.Dataset != dep.Dataset || resourceOf(job) != dep.Config {
				return fmt.Errorf("core: plan %q: job %d does not match its deployment key", p.Name, ji)
			}
			if job.SLA != p.Jobs[dep.Jobs[0]].SLA {
				return fmt.Errorf("core: plan %q: deployment %d mixes SLA budgets (job %d)", p.Name, gi, ji)
			}
		}
	}
	for ji, ok := range seen {
		if !ok {
			return fmt.Errorf("core: plan %q: job %d belongs to no deployment", p.Name, ji)
		}
	}
	return nil
}

// Render writes the plan as a deterministic, diffable text listing — the
// dry-run artifact of `graphalytics plan`.
func (p *Plan) Render(w io.Writer) error {
	jobs := "jobs"
	if len(p.Jobs) == 1 {
		jobs = "job"
	}
	deps := "deployments"
	if len(p.Deployments) == 1 {
		deps = "deployment"
	}
	if _, err := fmt.Fprintf(w, "plan %s: %d %s in %d %s\n", p.Name, len(p.Jobs), jobs, len(p.Deployments), deps); err != nil {
		return err
	}
	if p.SLA != 0 {
		if _, err := fmt.Fprintf(w, "sla: %v\n", time.Duration(p.SLA)); err != nil {
			return err
		}
	}
	if p.Validation != ValidationInherit {
		if _, err := fmt.Fprintf(w, "validation: %s\n", p.Validation); err != nil {
			return err
		}
	}
	for gi, dep := range p.Deployments {
		cfg := fmt.Sprintf("threads=%d machines=%d", dep.Config.Threads, dep.Config.Machines)
		if dep.Config.MemoryPerMachine != 0 {
			cfg += fmt.Sprintf(" mem=%d", dep.Config.MemoryPerMachine)
		}
		if _, err := fmt.Fprintf(w, "deployment %d: %s/%s %s (%d jobs, 1 upload)\n",
			gi+1, dep.Platform, dep.Dataset, cfg, len(dep.Jobs)); err != nil {
			return err
		}
		for _, ji := range dep.Jobs {
			if _, err := fmt.Fprintf(w, "  job %3d: %s\n", ji+1, p.Jobs[ji].Algorithm); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON serializes the plan as indented JSON.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("core: encode plan: %w", err)
	}
	return nil
}

// deployment is the upload the jobs of one deployment group share. The
// first job that needs the graph performs the upload; the group's later
// jobs reuse its handle, or its error. One goroutine runs the group's
// jobs in turn and frees the handle once, after the last of them, so the
// value needs no lock: RunPlan's worker owns it.
type deployment struct {
	uploaded bool
	up       platform.Uploaded
	dur      time.Duration
	err      error
}

// upload returns the group's uploaded handle, running do only for the
// first job that asks; shared reports whether the handle (or error) came
// from an earlier job's upload.
func (d *deployment) upload(do func() (platform.Uploaded, time.Duration, error)) (up platform.Uploaded, dur time.Duration, shared bool, err error) {
	shared = d.uploaded
	if !shared {
		d.uploaded = true
		d.up, d.dur, d.err = do()
	}
	return d.up, d.dur, shared, d.err
}

// free releases the group's upload, if one was performed.
func (d *deployment) free() {
	if d.up != nil {
		d.up.Free()
	}
}

// RunPlan executes a compiled plan on the session's bounded worker pool
// and returns one result per plan job, in plan order. Jobs of the same
// deployment group share a single graph upload: the first job performs it
// (under the job SLA, cancellable), the rest reuse the handle, and the
// group's worker frees it after the last job — an N-algorithm sweep pays
// one upload instead of N. The *deployment* is the unit of parallelism: a
// group's jobs run sequentially on one worker (engines hang per-upload
// state — clusters, message arenas — off the handle, so concurrent
// execution on one handle would interleave their counters), while
// distinct deployments overlap up to WithParallelism. Each job's
// UploadTime records the group's real upload and UploadShared whether it
// was amortized; SLA accounting charges the recorded upload against every
// job's budget, so statuses match a run that gives each job a deployment
// of its own. Results are delivered to the session's sinks in plan order.
// Failures — cancellation included — are encoded in the result status,
// so a sweep keeps going; the error return joins harness-level problems
// (unknown platform or dataset) in plan order with sink failures, which
// SinkOnly tells apart. Per-call options override session settings for
// this plan only. Cancelling ctx interrupts in-flight jobs and marks the
// rest StatusCanceled; every performed upload is still freed exactly
// once.
func (s *Session) RunPlan(ctx context.Context, p *Plan, opts ...Option) ([]JobResult, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	batch := s.batchSession(opts)
	switch p.Validation {
	case ValidationReference:
		batch.cfg.validate = true
	case ValidationNone:
		batch.cfg.validate = false
	}
	if p.SLA != 0 {
		// The plan's own SLA governs its jobs. Compiled plans stamp it on
		// every JobSpec anyway; this applies it equally to hand-authored
		// or deserialized plans whose jobs were left unstamped, so the
		// rendered "sla:" line and the executed budget never disagree.
		batch.cfg.sla = time.Duration(p.SLA)
	}

	results := make([]JobResult, len(p.Jobs))
	errs := make([]error, len(p.Jobs))

	// Reorder buffer: jobs finish in any order but are delivered to the
	// sinks in plan order as soon as the contiguous prefix is done.
	var commitMu sync.Mutex
	var sinkErrs []error
	done := make([]bool, len(p.Jobs))
	next := 0
	commit := func(i int) {
		commitMu.Lock()
		defer commitMu.Unlock()
		done[i] = true
		for next < len(p.Jobs) && done[next] {
			if err := batch.record(results[next]); err != nil {
				sinkErrs = append(sinkErrs, err)
			}
			next++
		}
	}

	// The deployment is the work unit. A group's jobs run sequentially, in
	// plan order, on the worker that claimed the group — the shared handle
	// (cluster counters, per-upload engine arenas) is never used by two
	// jobs at once — while distinct deployments run concurrently.
	workers := batch.cfg.parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(p.Deployments))
	groups := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range groups {
				var dep deployment
				for _, ji := range p.Deployments[gi].Jobs {
					results[ji], errs[ji] = batch.execute(ctx, p.Jobs[ji], batchPos{index: ji, total: len(p.Jobs)}, &dep)
					commit(ji)
				}
				dep.free()
			}
		}()
	}
	for gi := range p.Deployments {
		groups <- gi
	}
	close(groups)
	wg.Wait()
	return results, errors.Join(append(errs, sinkErrs...)...)
}
