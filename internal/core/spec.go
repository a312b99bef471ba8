package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/metrics"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// This file defines the declarative half of the Spec → Plan → Run
// pipeline: a BenchSpec is the benchmark definition as a first-class,
// serializable artifact (the paper's component 1 plus the user's
// component 2), which Compile expands into an explicit Plan (plan.go)
// that Session.RunPlan executes. The experiment suites of Table 6 are
// expressed as spec builders in experiments.go.

// Duration is a time.Duration that marshals as a Go duration string
// ("30s", "1m") and unmarshals from either a string or integer
// nanoseconds, so spec files stay human-writable while old numeric
// descriptions keep decoding.
type Duration time.Duration

// MarshalJSON renders the duration as a string ("1m0s").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("core: parse duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("core: parse duration %s: %w", b, err)
	}
	*d = Duration(n)
	return nil
}

// ValidationPolicy selects how a plan's outputs are checked.
type ValidationPolicy string

const (
	// ValidationInherit (the zero value) leaves validation to the
	// session's own setting.
	ValidationInherit ValidationPolicy = ""
	// ValidationReference validates every output against the reference
	// implementation, regardless of the session setting.
	ValidationReference ValidationPolicy = "reference"
	// ValidationNone skips validation, regardless of the session setting.
	ValidationNone ValidationPolicy = "none"
)

// DatasetSelector selects catalog datasets either explicitly by ID (in
// the given order) or by scale class ("every dataset up to class L", the
// paper's selection idiom, sorted by ascending scale). The zero selector
// selects the full catalog in catalog order.
type DatasetSelector struct {
	// IDs lists catalog dataset IDs; when non-empty it wins over MaxClass.
	IDs []string `json:"ids,omitempty"`
	// MaxClass selects every catalog dataset whose T-shirt class is at
	// most this class (e.g. "L"), sorted by ascending scale. Resolving it
	// materializes the whole catalog, since class derives from the built
	// graph: concurrently, as many datasets at once as the compiling
	// session's parallelism (GOMAXPROCS for CompileSpec).
	MaxClass string `json:"max_class,omitempty"`
}

// resolve expands the selector against the catalog, materializing graphs
// through load, up to workers at once, when class filtering requires it.
func (sel DatasetSelector) resolve(load func(workload.Dataset) (*graph.Graph, error), workers int) ([]workload.Dataset, error) {
	if len(sel.IDs) > 0 {
		out := make([]workload.Dataset, 0, len(sel.IDs))
		for _, id := range sel.IDs {
			d, err := workload.ByID(id)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}
	if sel.MaxClass != "" {
		max := metrics.Class(sel.MaxClass)
		if !validClass(max) {
			return nil, fmt.Errorf("core: unknown dataset class %q", sel.MaxClass)
		}
		return workload.UpToClassWith(load, max, workers)
	}
	return workload.Catalog(), nil
}

// validClass reports whether c is one of the defined T-shirt classes.
func validClass(c metrics.Class) bool {
	switch c {
	case metrics.Class2XS, metrics.ClassXS, metrics.ClassS, metrics.ClassM,
		metrics.ClassL, metrics.ClassXL, metrics.Class2XL:
		return true
	}
	return false
}

// ResourceSpec is one point of a resource sweep: the system under test
// for every job compiled from it. Zero values mean 1 thread, 1 machine,
// unlimited memory.
type ResourceSpec struct {
	Threads          int   `json:"threads,omitempty"`
	Machines         int   `json:"machines,omitempty"`
	MemoryPerMachine int64 `json:"memory_per_machine,omitempty"`
}

// maxResources bounds a config's threads and machines: engines keep
// per-thread state as large as the graph, and the paper's largest
// deployment is 16 machines of 32 threads.
const maxResources = 1024

// Sweep is one cross-product unit of a BenchSpec: platforms × datasets ×
// configs × algorithms × repetitions. Empty axes select everything
// (every registered platform, the full catalog, all six algorithms, one
// default config); Repetitions below 1 inherits the spec default.
type Sweep struct {
	Platforms   []string               `json:"platforms,omitempty"`
	Datasets    DatasetSelector        `json:"datasets,omitempty"`
	Algorithms  []algorithms.Algorithm `json:"algorithms,omitempty"`
	Configs     []ResourceSpec         `json:"configs,omitempty"`
	Repetitions int                    `json:"repetitions,omitempty"`
}

// empty reports whether no axis of the sweep is set.
func (sw Sweep) empty() bool {
	return len(sw.Platforms) == 0 && len(sw.Datasets.IDs) == 0 &&
		sw.Datasets.MaxClass == "" && len(sw.Algorithms) == 0 && len(sw.Configs) == 0
}

// BenchSpec is a declarative benchmark definition: what to run, on what,
// with which resources, how often, and under which SLA and validation
// policy. It is the input of Compile, which expands it into an explicit
// Plan of jobs grouped into deployments; it never runs anything itself.
//
// Simple specs set the top-level axes directly (a single sweep, the
// 10-line quickstart case); richer specs list additional Sweeps — each
// sweep is an independent cross product, compiled in order, and
// deployments are shared across sweeps that hit the same
// (platform, dataset, config) point. A spec with no axes and no sweeps
// compiles to an empty plan; to deliberately select everything (every
// platform, the full catalog, all six algorithms), declare one explicit
// all-default sweep: `"sweeps": [{}]`.
type BenchSpec struct {
	// Name labels the plan, reports and results.
	Name string `json:"name"`

	// The inline sweep, used when any of these axes is set.
	Platforms  []string               `json:"platforms,omitempty"`
	Datasets   DatasetSelector        `json:"datasets,omitempty"`
	Algorithms []algorithms.Algorithm `json:"algorithms,omitempty"`
	Configs    []ResourceSpec         `json:"configs,omitempty"`

	// Sweeps lists additional cross-product units beyond the inline one.
	Sweeps []Sweep `json:"sweeps,omitempty"`

	// Repetitions is the default per-job repeat count for sweeps that do
	// not set their own; values below 1 select 1.
	Repetitions int `json:"repetitions,omitempty"`
	// SLA is the per-job makespan budget stamped on every compiled job;
	// zero defers to the running session's SLA.
	SLA Duration `json:"sla,omitempty"`
	// Validation selects the output-checking policy for the whole plan.
	Validation ValidationPolicy `json:"validation,omitempty"`
}

// sweeps returns the spec's effective sweep list: the inline sweep (when
// any of its axes is set) followed by the explicit ones. A fully unset
// spec has no sweeps — it compiles to an empty plan, never to an
// accidental everything-matrix.
func (sp *BenchSpec) sweeps() []Sweep {
	inline := Sweep{
		Platforms:  sp.Platforms,
		Datasets:   sp.Datasets,
		Algorithms: sp.Algorithms,
		Configs:    sp.Configs,
	}
	var out []Sweep
	if !inline.empty() {
		out = append(out, inline)
	}
	return append(out, sp.Sweeps...)
}

// Validate checks the spec's platforms, algorithms, explicit dataset IDs,
// resources and validation policy against the registry, the catalog and
// maxResources before anything is compiled, so configuration errors
// surface immediately.
func (sp *BenchSpec) Validate() error {
	known := map[algorithms.Algorithm]bool{}
	for _, a := range algorithms.All {
		known[a] = true
	}
	for si, sw := range sp.sweeps() {
		for _, p := range sw.Platforms {
			if _, err := platform.Get(p); err != nil {
				return fmt.Errorf("core: spec %q sweep %d: %w", sp.Name, si, err)
			}
		}
		for _, id := range sw.Datasets.IDs {
			if _, err := workload.ByID(id); err != nil {
				return fmt.Errorf("core: spec %q sweep %d: %w", sp.Name, si, err)
			}
		}
		if c := sw.Datasets.MaxClass; c != "" && !validClass(metrics.Class(c)) {
			return fmt.Errorf("core: spec %q sweep %d: unknown dataset class %q", sp.Name, si, c)
		}
		for _, a := range sw.Algorithms {
			if !known[a] {
				return fmt.Errorf("core: spec %q sweep %d: %w: %q", sp.Name, si, algorithms.ErrUnknownAlgorithm, a)
			}
		}
		if sw.Repetitions < 0 {
			return fmt.Errorf("core: spec %q sweep %d: negative repetitions", sp.Name, si)
		}
		for _, c := range sw.Configs {
			if c.Threads < 0 || c.Machines < 0 || c.MemoryPerMachine < 0 || max(c.Threads, c.Machines) > maxResources {
				return fmt.Errorf("core: spec %q sweep %d: config %+v: threads and machines must be in [0, %d], memory_per_machine not negative", sp.Name, si, c, maxResources)
			}
		}
	}
	switch sp.Validation {
	case ValidationInherit, ValidationReference, ValidationNone:
	default:
		return fmt.Errorf("core: spec %q: unknown validation policy %q", sp.Name, sp.Validation)
	}
	if sp.Repetitions < 0 {
		return fmt.Errorf("core: spec %q: negative repetitions", sp.Name)
	}
	return nil
}

// WriteSpec serializes a spec as indented JSON.
func WriteSpec(w io.Writer, sp *BenchSpec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sp); err != nil {
		return fmt.Errorf("core: encode spec: %w", err)
	}
	return nil
}

// DecodeSpec reads a JSON benchmark spec from r under the same strict
// rules as LoadSpec: unknown fields are rejected, because empty axes
// default to "everything" and a misspelled key ("platform" for
// "platforms") would otherwise silently expand the benchmark instead of
// erroring. For the same reason the spec must be the whole input: anything
// after it but white space is an error, not silently dropped. This is the
// decoding surface the service daemon applies to request bodies, so a
// POSTed spec gets exactly the file-spec treatment.
func DecodeSpec(r io.Reader) (*BenchSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp BenchSpec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("core: decode spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("core: decode spec: trailing data after the spec")
	}
	return &sp, nil
}

// LoadSpec reads a JSON benchmark spec from a file; see DecodeSpec for
// the strict decoding rules.
func LoadSpec(path string) (*BenchSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open spec: %w", err)
	}
	defer f.Close()
	sp, err := DecodeSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return sp, nil
}
