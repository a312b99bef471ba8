// Package graphalytics is a Go implementation of LDBC Graphalytics, the
// industrial-grade benchmark for graph analysis platforms (Iosup et al.,
// VLDB 2016). It bundles:
//
//   - the benchmark specification: six deterministic core algorithms (BFS,
//     PageRank, weakly connected components, community detection by label
//     propagation, local clustering coefficient, single-source shortest
//     paths), reference implementations and output validation;
//   - the workload: a dataset catalog with seeded stand-in generators for
//     the paper's real-world graphs, the LDBC Datagen social-network
//     generator with a tunable clustering coefficient, and the Graph500
//     Kronecker generator;
//   - six graph-analysis engines spanning the programming models the paper
//     evaluates (vertex-centric BSP, RDD dataflow, gather-apply-scatter,
//     sparse matrix, hand-tuned native, adaptive push-pull);
//   - the harness: job orchestration with SLA enforcement, a results
//     database, Granula performance archives, and the full experiment
//     suite of the paper (baseline, scalability, robustness, self-test).
//
// This package is the public facade; see the examples directory for
// runnable entry points and DESIGN.md for the architecture.
package graphalytics

import (
	"context"
	"fmt"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/validation"
)

func init() { platforms.RegisterAll() }

// Graph is an immutable graph in the Graphalytics data model.
type Graph = graph.Graph

// Builder assembles graphs; see NewBuilder.
type Builder = graph.Builder

// BuildOptions control duplicate-edge and self-loop handling.
type BuildOptions = graph.BuildOptions

// Edge is an edge in external-identifier space.
type Edge = graph.Edge

// Algorithm names one of the six core algorithms.
type Algorithm = algorithms.Algorithm

// The six core Graphalytics algorithms.
const (
	BFS  = algorithms.BFS
	PR   = algorithms.PR
	WCC  = algorithms.WCC
	CDLP = algorithms.CDLP
	LCC  = algorithms.LCC
	SSSP = algorithms.SSSP
)

// Algorithms lists the six core algorithms in benchmark order.
var Algorithms = algorithms.All

// Unreachable is the BFS output value for unreachable vertices.
const Unreachable = algorithms.Unreachable

// Params carries per-run algorithm parameters (source vertex, iteration
// counts, damping factor).
type Params = algorithms.Params

// Output holds per-vertex algorithm results.
type Output = algorithms.Output

// Platform is the driver interface of a graph-analysis engine.
type Platform = platform.Platform

// RunConfig selects the resources of the system under test.
type RunConfig = platform.RunConfig

// Result is the outcome of executing one algorithm job on a platform.
type Result = platform.Result

// NewBuilder returns a Builder for a directed or undirected, optionally
// weighted graph.
func NewBuilder(directed, weighted bool) *Builder { return graph.NewBuilder(directed, weighted) }

// FromEdges builds a graph from an edge list, adding endpoint vertices
// implicitly.
func FromEdges(name string, directed, weighted bool, edges []Edge, opts BuildOptions) (*Graph, error) {
	return graph.FromEdges(name, directed, weighted, edges, opts)
}

// LoadGraph reads a graph from vertex/edge files in the Graphalytics text
// format.
func LoadGraph(vPath, ePath string, directed, weighted bool) (*Graph, error) {
	return graph.LoadVE(vPath, ePath, directed, weighted, graph.BuildOptions{})
}

// SaveGraph writes a graph in the Graphalytics text format.
func SaveGraph(g *Graph, vPath, ePath string) error { return graph.SaveVE(g, vPath, ePath) }

// Platforms returns the names of the registered engines.
func Platforms() []string { return platform.Names() }

// PlatformByName looks up a registered engine.
func PlatformByName(name string) (Platform, error) { return platform.Get(name) }

// PaperName maps an engine name to the platform it stands in for in the
// paper's evaluation (Table 5), e.g. "pregel" -> "Giraph".
func PaperName(engine string) string {
	if n, ok := platforms.PaperName[engine]; ok {
		return n
	}
	return engine
}

// Run executes one algorithm on one platform end to end (upload, execute,
// free) and returns the platform result. The context gates the whole job,
// upload included (Platform.UploadContext), so a deadline or cancellation
// interrupts a pathological upload instead of waiting it out. It is the
// simplest entry point:
//
//	res, err := graphalytics.Run(ctx, "native", g, graphalytics.BFS,
//	    graphalytics.Params{Source: 1}, graphalytics.RunConfig{Threads: 4})
func Run(ctx context.Context, platformName string, g *Graph, a Algorithm, p Params, cfg RunConfig) (*Result, error) {
	pl, err := platform.Get(platformName)
	if err != nil {
		return nil, err
	}
	up, err := pl.UploadContext(ctx, g, cfg)
	if err != nil {
		return nil, fmt.Errorf("graphalytics: upload to %s: %w", platformName, err)
	}
	defer up.Free()
	return pl.Execute(ctx, up, a, p)
}

// RunWithBudget is Run bounded by an SLA-style makespan budget layered
// onto ctx: the deadline covers upload plus execution, and cancelling ctx
// aborts the job early.
func RunWithBudget(ctx context.Context, platformName string, g *Graph, a Algorithm, p Params, cfg RunConfig, budget time.Duration) (*Result, error) {
	bctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	return Run(bctx, platformName, g, a, p, cfg)
}

// Reference computes the reference output that defines correctness for an
// algorithm on a graph. Reference kernels run in parallel on the shared
// internal fork-join runtime with automatic worker sizing; the output is
// bit-identical to the sequential reference at any worker count (see
// WithReferenceParallelism to pin the worker count on a Session).
func Reference(g *Graph, a Algorithm, p Params) (*Output, error) {
	return algorithms.RunReference(g, a, p)
}

// ValidationReport is the outcome of validating an output against the
// reference.
type ValidationReport = validation.Report

// Validate checks a platform output against the reference output.
func Validate(got, want *Output, g *Graph) ValidationReport {
	return validation.Validate(got, want, g.IDs())
}
