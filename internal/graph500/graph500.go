// Package graph500 implements the Graph500 synthetic graph generator: a
// Kronecker (R-MAT) generator producing the power-law graphs used by the
// benchmark's G-series datasets (Table 4). Parameters follow the Graph500
// specification: 2^scale vertices, edgefactor*2^scale undirected edges,
// R-MAT initiator probabilities A=0.57, B=0.19, C=0.19 (D=0.05), and a
// random relabeling of vertices so that generated locality does not leak
// into vertex identifiers.
package graph500

import (
	"fmt"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/xrand"
)

// Config parameterizes the generator.
type Config struct {
	// Scale is the base-2 logarithm of the number of vertices.
	Scale int
	// EdgeFactor is the ratio of edges to vertices; the Graph500 default
	// is 16 and is used when zero.
	EdgeFactor int
	// Seed makes the output reproducible.
	Seed uint64
	// A, B, C are the R-MAT initiator probabilities; zero values select
	// the Graph500 defaults (0.57, 0.19, 0.19).
	A, B, C float64
	// Weighted attaches uniform (0, 1] edge weights, for running SSSP on
	// G-series stand-ins.
	Weighted bool
	// Directed emits the R-MAT arcs as directed edges instead of the
	// Graph500 default of undirected edges; the workload catalog uses this
	// for directed power-law stand-ins.
	Directed bool
}

// withDefaults fills in Graph500 default parameters.
func (c Config) withDefaults() Config {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
	return c
}

// Generate produces the Kronecker graph for the configuration
// (undirected unless cfg.Directed is set).
// Self-loops and duplicate edges produced by the R-MAT process are
// discarded, per the Graphalytics data model.
func Generate(cfg Config) (*graph.Graph, error) {
	b := graph.NewBuilder(cfg.Directed, cfg.Weighted)
	if err := Into(cfg, b); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph500: build: %w", err)
	}
	return g, nil
}

// Into streams the Kronecker graph for the configuration into b, never
// materializing the edge list: the only O(n) state is the vertex
// relabeling permutation, and edges are generated in rounds of fixed-size
// blocks, one block per worker, so the extra memory is O(P·genBlock)
// edges for P workers. Each round is handed to b in edge order before the
// next is generated. Feeding a spill-configured builder (Builder.SetSpill
// + BuildTo) therefore assembles the graph out-of-core.
//
// The edges, their weights and their order are those of one sequential
// xrand stream, at any worker count: edge i always takes exactly
// Scale (+1 when weighted) draws, so its draws start at a position Skip
// reaches in O(1). Generate and Into therefore produce the same graph bit
// for bit, whatever GOMAXPROCS is.
func Into(cfg Config, b *graph.Builder) error {
	cfg = cfg.withDefaults()
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return fmt.Errorf("graph500: scale %d out of range [1, 30]", cfg.Scale)
	}
	if cfg.A+cfg.B+cfg.C >= 1 {
		return fmt.Errorf("graph500: initiator probabilities sum to %.3f, want < 1", cfg.A+cfg.B+cfg.C)
	}
	n := 1 << cfg.Scale
	m := int64(cfg.EdgeFactor) * int64(n)
	rng := xrand.New(cfg.Seed)

	// Random vertex relabeling (Graph500 shuffles vertex ids).
	perm := rng.Perm(n)

	b.SetName(fmt.Sprintf("graph500-%d", cfg.Scale))
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.Grow(n, int(m))
	// Every vertex exists even if the R-MAT process left it isolated.
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}

	// The edge stream starts where the permutation left the generator.
	base := *rng
	p := par.Workers(int(m))
	buf := make([]graph.Edge, min(int64(p*genBlock), m))
	for lo := int64(0); lo < m; lo += int64(len(buf)) {
		round := buf[:min(int64(len(buf)), m-lo)]
		blocks := (len(round) + genBlock - 1) / genBlock
		par.Chunks(blocks, p, func(_, blo, bhi int) {
			for k := blo; k < bhi; k++ {
				s, e := k*genBlock, min((k+1)*genBlock, len(round))
				genEdges(round[s:e], base, lo+int64(s), cfg, perm)
			}
		})
		for _, e := range round {
			b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		}
	}
	return nil
}

// genBlock is the number of edges one worker generates per block.
const genBlock = 1 << 14

// genEdges fills out with edges first, first+1, ... of the edge stream
// that starts at rng. Every edge takes exactly Scale draws for its
// quadrant descent plus one for its weight, so edge i's draws start
// i·draws past the stream's start: rmatEdge must never take a
// data-dependent number of draws (a rejection step, say), or Skip would
// land mid-edge and the output would change with the worker count —
// TestGenerateGolden pins it.
//
//graphalint:noalloc
func genEdges(out []graph.Edge, rng xrand.Rand, first int64, cfg Config, perm []int) {
	draws := uint64(cfg.Scale)
	if cfg.Weighted {
		draws++
	}
	rng.Skip(uint64(first) * draws)
	for i := range out {
		src, dst := rmatEdge(&rng, cfg)
		var w float64
		if cfg.Weighted {
			w = rng.Float64() + 1.0/(1<<16) // avoid zero-weight edges
		}
		e := &out[i]
		e.Src, e.Dst, e.Weight = int64(perm[src]), int64(perm[dst]), w
	}
}

// rmatEdge samples one edge by recursive quadrant descent: at each level
// the first of u < A, u < A+B, u < A+B+C that holds picks the top-left,
// top-right (dst bit) or bottom-left (src bit) quadrant, and none of them
// the bottom-right (both bits). The choice is computed without branches,
// because a branch on a random draw mispredicts about half the time and
// cost more than the draw itself.
func rmatEdge(rng *xrand.Rand, cfg Config) (int, int) {
	a, ab, abc := cfg.A, cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
	src, dst := 0, 0
	for level := 0; level < cfg.Scale; level++ {
		u := rng.Float64()
		pastA, pastAB, pastABC := bit(!(u < a)), bit(!(u < ab)), bit(!(u < abc))
		src |= (pastA & pastAB) << level
		dst |= (pastA & ((1 - pastAB) | pastABC)) << level
	}
	return src, dst
}

// bit is 1 for true and 0 for false.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}
