package graphalytics

import (
	"context"
	"time"

	"graphalytics/internal/cluster"
	"graphalytics/internal/core"
	"graphalytics/internal/datagen"
	"graphalytics/internal/graph500"
	"graphalytics/internal/metrics"
	"graphalytics/internal/platforms"
	"graphalytics/internal/workload"
)

// Session is the harness's context-first orchestrator: it runs benchmark
// jobs with SLA enforcement, single-flighted reference validation,
// in-order result delivery to sinks, a bounded-parallelism scheduler
// (RunAll) and a streaming progress Observer. Construct one with NewSession and
// functional options; see DESIGN.md for the full API.
type Session = core.Session

// Option configures a Session (or one RunAll batch).
type Option = core.Option

// ExperimentConfig parameterizes the experiment suites run through a
// Session (platform sets, resource axes, experiment-specific knobs).
type ExperimentConfig = core.ExperimentConfig

// NewSession returns a session with validation on, the default network
// model and GOMAXPROCS parallelism, overridden by the given options.
func NewSession(opts ...Option) *Session { return core.NewSession(opts...) }

// Functional options for NewSession and Session.RunAll.
func WithSLA(d time.Duration) Option            { return core.WithSLA(d) }
func WithValidation(on bool) Option             { return core.WithValidation(on) }
func WithNetwork(n cluster.NetworkModel) Option { return core.WithNetwork(n) }
func WithParallelism(n int) Option              { return core.WithParallelism(n) }
func WithReferenceParallelism(n int) Option     { return core.WithReferenceParallelism(n) }
func WithObserver(o Observer) Option            { return core.WithObserver(o) }

// NetworkModel is the interconnect model distributed jobs are charged
// against; DefaultNetwork approximates the paper's testbed baseline.
type NetworkModel = cluster.NetworkModel

// DefaultNetwork returns the paper-testbed interconnect model.
func DefaultNetwork() NetworkModel { return cluster.DefaultNetwork() }

// Observer receives a session's streaming progress events; Event and
// EventType describe the stream. The session serializes Observe calls,
// stamps every event with a gap-free per-session sequence number and
// timestamp, and recovers observer panics (see core.Observer for the
// full delivery contract).
type (
	Observer     = core.Observer
	ObserverFunc = core.ObserverFunc
	Event        = core.Event
	EventType    = core.EventType
)

// MultiObserver fans one event stream out to several observers.
func MultiObserver(obs ...Observer) Observer { return core.MultiObserver(obs...) }

// The event stream: per-job start/finish, per-experiment phase,
// per-dataset materialization and per-deployment upload events.
const (
	EventJobStarted          = core.EventJobStarted
	EventJobFinished         = core.EventJobFinished
	EventExperimentStarted   = core.EventExperimentStarted
	EventExperimentFinished  = core.EventExperimentFinished
	EventDatasetMaterialized = core.EventDatasetMaterialized
	EventDeploymentUploaded  = core.EventDeploymentUploaded
)

// JobSpec is one benchmark job; JobResult the record of one executed job.
type (
	JobSpec   = core.JobSpec
	JobResult = core.JobResult
)

// Report is a rendered experiment outcome (one paper figure or table).
type Report = core.Report

// Status classifies the outcome of a job; it is terminal for every
// defined value (Status.Terminal) and renders via Status.String.
type Status = core.Status

// Job statuses.
const (
	StatusOK          = core.StatusOK
	StatusSLABreak    = core.StatusSLABreak
	StatusOOM         = core.StatusOOM
	StatusFailed      = core.StatusFailed
	StatusUnsupported = core.StatusUnsupported
	StatusInvalid     = core.StatusInvalid
	StatusCanceled    = core.StatusCanceled
)

// Dataset is one workload catalog entry.
type Dataset = workload.Dataset

// Datasets returns the full workload catalog (Tables 3 and 4 of the paper
// at reproduction scale).
func Datasets() []Dataset { return workload.Catalog() }

// LoadDataset generates (or returns the cached) graph of a catalog entry.
func LoadDataset(id string) (*Graph, error) { return workload.Load(id) }

// DatasetClass returns the T-shirt class of a graph on the reproduction's
// shifted scale.
func DatasetClass(g *Graph) string { return string(workload.Class(g)) }

// GraphScale returns s(V,E) = log10(|V|+|E|), rounded to one decimal.
func GraphScale(g *Graph) float64 { return metrics.Scale(g.NumVertices(), g.NumEdges()) }

// SingleMachinePlatforms lists the engines used in single-machine
// experiments; DistributedPlatforms those used in distributed ones.
func SingleMachinePlatforms() []string { return append([]string(nil), platforms.SingleMachine...) }

// DistributedPlatforms lists the engines used in distributed experiments.
func DistributedPlatforms() []string { return append([]string(nil), platforms.DistributedSet...) }

// Experiment is one row of the experiment table — a paper artifact's ID,
// the builder of its job matrix (Spec: the declarative BenchSpec, for dry
// runs and plan listings) and the pure renderer of its rows (Render).
// Session.RunExperiment(ctx, id, cfg) regenerates an artifact in one
// call; Session.RunMatrix plus Render run a matrix once and render
// several artifacts over it (Figure 5 over Figure 4's, Table 9 over
// Figure 7's). See DESIGN.md's per-experiment index.
type Experiment = core.Experiment

// ExperimentByID looks an artifact ("fig4", "table9", ...) up in the
// experiment table.
func ExperimentByID(id string) (Experiment, bool) { return core.ExperimentByID(id) }

// WeakPair couples a machine count with its Graph500 dataset.
type WeakPair = core.WeakPair

// DefaultWeakPairs mirrors the paper's weak-scaling series.
func DefaultWeakPairs() []WeakPair { return core.DefaultWeakPairs() }

// DataGeneration runs Figure 10 (Datagen old vs. new flow and worker
// scalability).
func DataGeneration(scaleFactors []float64, workers []int, edgesPerUnit int) (*Report, error) {
	return core.DataGeneration(scaleFactors, workers, edgesPerUnit)
}

// Generator facades.

// DatagenConfig parameterizes the social-network generator.
type DatagenConfig = datagen.Config

// DatagenResult is a generated social network with generation statistics.
type DatagenResult = datagen.Result

// Datagen flows (Figure 10 compares them).
const (
	DatagenFlowNew = datagen.FlowNew
	DatagenFlowOld = datagen.FlowOld
)

// GenerateSocialNetwork runs the LDBC Datagen reimplementation.
func GenerateSocialNetwork(cfg DatagenConfig) (*DatagenResult, error) { return datagen.Generate(cfg) }

// Graph500Config parameterizes the Kronecker generator.
type Graph500Config = graph500.Config

// GenerateGraph500 runs the Graph500 R-MAT generator.
func GenerateGraph500(cfg Graph500Config) (*Graph, error) { return graph500.Generate(cfg) }

// RenewClassL re-derives the benchmark's reference class: the largest
// class whose graphs all complete BFS within the budget on the given
// single-machine platform (the renewal process of Section 2.4).
// Cancelling ctx aborts the BFS in flight and returns an error wrapping
// ctx.Err().
func RenewClassL(ctx context.Context, platformName string, threads int, budget time.Duration) (string, error) {
	timer := func(g *Graph, source int64) (time.Duration, error) {
		res, err := RunWithBudget(ctx, platformName, g, BFS, Params{Source: source},
			RunConfig{Threads: threads, Machines: 1}, budget*10)
		if err != nil {
			return 0, err
		}
		return res.ProcessingTime, nil
	}
	out, err := workload.RenewClassL(timer, budget)
	if err != nil {
		return "", err
	}
	return string(out.ClassL), nil
}
