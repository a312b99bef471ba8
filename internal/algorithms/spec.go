// Package algorithms defines the six core Graphalytics algorithms — BFS,
// PageRank, weakly connected components, community detection by label
// propagation, local clustering coefficient, and single-source shortest
// paths — together with reference implementations in two forms: the
// sequential oracles (Ref*) in reference.go, and parallel kernels (Par*)
// on the shared internal/par runtime that reproduce the oracles bit for
// bit at any worker count (parallel.go; the oracle remains the arbiter in
// tests).
//
// The algorithm definitions are abstract (Section 2.2.3 of the paper):
// platforms may implement them any way they like, and correctness is
// defined as output equivalence to the reference implementation in this
// package. All six algorithms are deterministic.
//
// Outputs are indexed by internal vertex index; identifier-space outputs
// (WCC component labels, CDLP community labels) use external vertex
// identifiers as label values, following the Graphalytics specification.
package algorithms

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"graphalytics/internal/graph"
)

// Algorithm names one of the six core algorithms.
type Algorithm string

// The six core algorithms selected by the two-stage workload selection
// process (Table 1): five for unweighted graphs and SSSP for weighted
// graphs.
const (
	BFS  Algorithm = "BFS"
	PR   Algorithm = "PR"
	WCC  Algorithm = "WCC"
	CDLP Algorithm = "CDLP"
	LCC  Algorithm = "LCC"
	SSSP Algorithm = "SSSP"
)

// All lists the core algorithms in the order used throughout the paper.
var All = []Algorithm{BFS, PR, WCC, CDLP, LCC, SSSP}

// Unreachable is the BFS output value for vertices that cannot be reached
// from the source.
const Unreachable = int64(math.MaxInt64)

// Default algorithm parameters used when a benchmark description does not
// override them.
const (
	DefaultDamping        = 0.85
	DefaultPRIterations   = 20
	DefaultCDLPIterations = 10
)

// Params carries the per-run algorithm parameters from the benchmark
// description (e.g., the root for BFS or the number of iterations for PR).
type Params struct {
	// Source is the external identifier of the source vertex for BFS and
	// SSSP.
	Source int64
	// Iterations is the fixed iteration count for PR and CDLP.
	Iterations int
	// Damping is the PageRank damping factor.
	Damping float64
}

// WithDefaults returns a copy of p with zero fields replaced by the
// algorithm's defaults.
func (p Params) WithDefaults(a Algorithm) Params {
	if p.Iterations == 0 {
		switch a {
		case PR:
			p.Iterations = DefaultPRIterations
		case CDLP:
			p.Iterations = DefaultCDLPIterations
		}
	}
	if p.Damping == 0 && a == PR {
		p.Damping = DefaultDamping
	}
	return p
}

// Output holds per-vertex algorithm results, indexed by internal vertex
// index. Exactly one of Int and Float is non-nil: Int for BFS (hop count),
// WCC (component label) and CDLP (community label); Float for PR (rank),
// LCC (clustering coefficient) and SSSP (distance).
type Output struct {
	Algorithm Algorithm
	Int       []int64
	Float     []float64
}

// Len returns the number of per-vertex values.
func (o *Output) Len() int {
	if o.Int != nil {
		return len(o.Int)
	}
	return len(o.Float)
}

// IsFloat reports whether the output carries floating-point values.
func (o *Output) IsFloat() bool { return o.Float != nil }

// Errors returned for invalid algorithm requests.
var (
	// ErrUnknownAlgorithm is returned for an algorithm name outside the
	// core set.
	ErrUnknownAlgorithm = errors.New("algorithms: unknown algorithm")
	// ErrSourceNotFound is returned when the BFS/SSSP source vertex does
	// not exist in the graph.
	ErrSourceNotFound = errors.New("algorithms: source vertex not in graph")
	// ErrNeedsWeights is returned when SSSP is requested on an unweighted
	// graph.
	ErrNeedsWeights = errors.New("algorithms: SSSP requires a weighted graph")
)

// Job is a checked algorithm request on one graph: a core algorithm, its
// parameters with defaults applied, and the source resolved to an internal
// vertex index. The reference kernels and every engine dispatch from it.
type Job struct {
	Algorithm Algorithm
	Params
	// SourceIndex is the internal index of Params.Source, for BFS and SSSP.
	SourceIndex int32
}

// Resolve checks the request (g, a, p) and returns its Job. It fails with
// ErrUnknownAlgorithm for a name outside All, ErrNeedsWeights for SSSP on
// an unweighted graph, and ErrSourceNotFound when BFS or SSSP names a
// source vertex g does not have.
func Resolve(g *graph.Graph, a Algorithm, p Params) (Job, error) {
	j := Job{Algorithm: a, Params: p.WithDefaults(a)}
	if !slices.Contains(All, a) {
		return j, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, a)
	}
	if a == SSSP && !g.Weighted() {
		return j, ErrNeedsWeights
	}
	if a == BFS || a == SSSP {
		src, ok := g.Index(p.Source)
		if !ok {
			return j, fmt.Errorf("%w: %d", ErrSourceNotFound, p.Source)
		}
		j.SourceIndex = src
	}
	return j, nil
}

// Ints wraps a kernel's integer per-vertex values (BFS, WCC, CDLP) as the
// job's output, passing a kernel error through.
func (j Job) Ints(vals []int64, err error) (*Output, error) {
	if err != nil {
		return nil, err
	}
	return &Output{Algorithm: j.Algorithm, Int: vals}, nil
}

// Floats is Ints for floating-point values (PR, LCC, SSSP).
func (j Job) Floats(vals []float64, err error) (*Output, error) {
	if err != nil {
		return nil, err
	}
	return &Output{Algorithm: j.Algorithm, Float: vals}, nil
}

// RunReference executes the reference implementation of a on g and
// returns the reference output used for validating platform results.
// Kernels run on the shared parallel runtime with automatic worker
// sizing; outputs are bit-identical to the sequential oracles (Ref*) at
// any worker count. Use RunReferenceWorkers to pin the worker count.
func RunReference(g *graph.Graph, a Algorithm, p Params) (*Output, error) {
	return RunReferenceWorkers(g, a, p, 0)
}

// RunReferenceWorkers is RunReference with an explicit worker count;
// workers <= 0 sizes the pool automatically from the graph. The pinned
// count covers all six algorithms, including SSSP: delta-stepping ParSSSP
// honors the pin on every relax phase (and in its Delta reduction), and
// like the other kernels its output is bit-identical at every count.
func RunReferenceWorkers(g *graph.Graph, a Algorithm, p Params, workers int) (*Output, error) {
	j, err := Resolve(g, a, p)
	if err != nil {
		return nil, err
	}
	switch a {
	case BFS:
		return j.Ints(ParBFS(g, j.SourceIndex, workers), nil)
	case PR:
		return j.Floats(ParPageRank(g, j.Iterations, j.Damping, workers), nil)
	case WCC:
		return j.Ints(ParWCC(g, workers), nil)
	case CDLP:
		return j.Ints(ParCDLP(g, j.Iterations, workers), nil)
	case LCC:
		return j.Floats(ParLCC(g, workers), nil)
	default: // SSSP: Resolve admits only the six core algorithms
		return j.Floats(ParSSSP(g, j.SourceIndex, workers), nil)
	}
}

// Weighted reports whether the algorithm operates on weighted graphs.
func Weighted(a Algorithm) bool { return a == SSSP }
