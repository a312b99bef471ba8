package graphalytics

import (
	"io"

	"graphalytics/internal/core"
)

// This file is the facade of the Spec → Plan → Run pipeline: declare a
// BenchSpec (what to run, on what, with which resources, how often, under
// which SLA and validation policy), compile it into an explicit Plan —
// an ordered job list grouped into deployments by (platform, dataset,
// config) — and execute it with Session.RunPlan, which holds one uploaded
// graph per deployment group so an N-algorithm sweep pays one upload
// instead of N. Results stream to pluggable sinks in plan order.
//
//	spec := graphalytics.BenchSpec{
//	    Name:       "sweep",
//	    Platforms:  []string{"native"},
//	    Datasets:   graphalytics.DatasetSelector{IDs: []string{"D300"}},
//	    Algorithms: []graphalytics.Algorithm{graphalytics.BFS, graphalytics.PR},
//	    Configs:    []graphalytics.ResourceSpec{{Threads: 4, Machines: 1}},
//	    SLA:        graphalytics.SpecDuration(time.Minute),
//	}
//	s := graphalytics.NewSession()
//	plan, _ := s.Compile(spec)
//	results, _ := s.RunPlan(ctx, plan)

// BenchSpec is a declarative benchmark definition, the input of Compile.
type BenchSpec = core.BenchSpec

// Sweep is one cross-product unit of a BenchSpec.
type Sweep = core.Sweep

// DatasetSelector selects catalog datasets by ID or by maximum scale
// class.
type DatasetSelector = core.DatasetSelector

// ResourceSpec is one point of a resource sweep (threads, machines,
// memory budget).
type ResourceSpec = core.ResourceSpec

// SpecDuration is the duration type spec files use: it marshals as a Go
// duration string ("30s") and accepts integer nanoseconds.
type SpecDuration = core.Duration

// ValidationPolicy selects how a plan's outputs are checked.
type ValidationPolicy = core.ValidationPolicy

// The validation policies.
const (
	ValidationInherit   = core.ValidationInherit
	ValidationReference = core.ValidationReference
	ValidationNone      = core.ValidationNone
)

// Plan is a compiled benchmark: ordered jobs grouped into deployments.
type Plan = core.Plan

// Deployment is one shared-upload group of a plan.
type Deployment = core.Deployment

// CompileSpec expands a spec into a plan using the default graph store;
// Session.Compile resolves dataset selectors through the session's store
// instead.
func CompileSpec(spec BenchSpec) (*Plan, error) { return core.CompileSpec(spec, nil) }

// PlanFromSpecs builds a plan from an explicit job list, preserving order
// and grouping jobs into shared-upload deployments.
func PlanFromSpecs(name string, specs []JobSpec) *Plan { return core.PlanFromSpecs(name, specs) }

// LoadSpec reads a JSON benchmark spec from a file.
func LoadSpec(path string) (*BenchSpec, error) { return core.LoadSpec(path) }

// DecodeSpec reads a JSON benchmark spec from a reader under the same
// strict unknown-field rules as LoadSpec.
func DecodeSpec(r io.Reader) (*BenchSpec, error) { return core.DecodeSpec(r) }

// WriteSpec serializes a spec as indented JSON.
func WriteSpec(w io.Writer, sp *BenchSpec) error { return core.WriteSpec(w, sp) }

// Sink consumes recorded job results in commit order; see core.Sink for
// the contract.
type Sink = core.Sink

// ErrSink marks sink-delivery failures in returned errors: the jobs
// completed, only delivery failed. Use errors.Is to keep sweeping.
var ErrSink = core.ErrSink

// SinkOnly reports whether err consists solely of sink-delivery
// failures — the run's work is intact, only delivery failed.
func SinkOnly(err error) bool { return core.SinkOnly(err) }

// SinkFunc adapts a function to the Sink interface.
type SinkFunc = core.SinkFunc

// WithSink adds a result sink to a session (repeatable).
func WithSink(k Sink) Option { return core.WithSink(k) }

// NewJSONLSink streams each result to w as one JSON object per line.
func NewJSONLSink(w io.Writer) Sink { return core.NewJSONLSink(w) }

// MultiSink fans results out to several sinks.
func MultiSink(sinks ...Sink) Sink { return core.MultiSink(sinks...) }
