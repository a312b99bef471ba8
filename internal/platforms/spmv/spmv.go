// Package spmv implements a sparse-matrix graph-analysis engine, standing
// in for Intel GraphMat in the paper's evaluation. Pregel-like vertex
// programs are mapped onto generalized sparse matrix-vector products: the
// graph is stored as a sparse matrix in both CSR (rows = edge sources) and
// CSC (columns = edge destinations) layouts, per-vertex state lives in
// dense or sparse vectors, and every algorithm iteration is one or two
// (masked, semiring-generalized) SpMV passes.
//
// Like GraphMat, the engine has two backends that must be selected
// manually: a single-machine shared-memory backend (S) and a distributed
// backend (D) with 1-D row partitioning and an allgather of the operand
// vector per iteration. SSSP is only available on the D backend, mirroring
// the paper's setup.
//
// The matrix's rows are split into contiguous edge-balanced ranges, one
// per machine. BFS (push SpMSpV), PageRank, WCC (min-label SpMV), CDLP
// and SSSP (Bellman-Ford SpMSpV) are the reference kernels' loops on the
// shared cluster runtime (platform.Run); the engine keeps their traffic
// rules — frontier discoveries routed to their owners; contributions, 8
// bytes per owned vertex, and labels, 4 bytes per owned vertex or 12 per
// changed CDLP label, allgathered — and its own LCC round. PageRank is a
// dense pull SpMV in two rounds per iteration: an "apply" round computes
// each machine's slice of the contribution vector rank/outdeg and
// allgathers it, a "gather" round computes A^T * contrib per owned row.
package spmv

import (
	"context"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// Backend selects the GraphMat-style execution backend.
type Backend string

// The two backends. The benchmark harness picks S for single-machine
// experiments and D for distributed ones, as the paper does.
const (
	BackendS Backend = "S" // single-machine shared memory
	BackendD Backend = "D" // distributed, 1-D row-partitioned
)

// New returns the engine with the given backend. The shared-memory backend
// has no SSSP (the paper uses the D backend for SSSP for this reason).
func New(b Backend) platform.Platform {
	e := platform.Engine[*uploaded]{
		Name:        "spmv-s",
		Description: "sparse matrix backend, shared memory (GraphMat(S)-style)",
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(bfs(ctx, u, j.SourceIndex))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(run(ctx, u, platform.Allgather(u.Cl, 8), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
					return k.ApplyGatherPageRank(rt, u.g, j.Iterations, j.Damping)
				}))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(run(ctx, u, platform.Allgather(u.Cl, 4), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					return k.MinLabelWCC(rt, u.g)
				}))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(run(ctx, u, platform.Allgather(u.Cl, 12), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
					return k.CDLP(rt, u.g, j.Iterations)
				}))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(lcc(ctx, u))
			},
		},
		State: func(u *uploaded, j *platform.Job) int64 { return stateFootprint(u.G, j.Algorithm) },
	}
	if b == BackendD {
		e.Name = "spmv-d"
		e.Description = "sparse matrix backend, distributed 1-D partitioning (GraphMat(D)-style)"
		e.Distributed = true
		e.Kernels[algorithms.SSSP] = func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
			return j.Floats(sssp(ctx, u, j.SourceIndex))
		}
	}
	return platform.New(e)
}

type uploaded struct {
	platform.BaseUpload
	// g is the sparse adjacency matrix A (A[i][j] = 1 or the edge weight
	// when edge i->j exists), the engine's own heap-resident copy of the
	// graph: out-adjacency is its CSR rows (push-style SpMSpV over a
	// sparse frontier), in-adjacency its CSC columns (pull-style dense
	// SpMV). An undirected graph's matrix is symmetric and both share
	// storage.
	g *graph.Graph
	// part assigns each machine one contiguous range of rows.
	part *cluster.VertexPartition
}

// load converts the graph into the engine's CSR+CSC matrix layout; the
// context is checked after the conversion, the expensive part.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	c := g.Clone()
	u := &uploaded{g: c, part: cluster.PartitionVerticesRange(c, cl.Machines())}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, nil, err
	}
	// Each machine holds its share of matrix rows/columns plus a full
	// replica of one dense operand vector (the allgathered x).
	n := int64(g.NumVertices())
	matrix := c.MemoryFootprint() - n*8 // the graph less its identifier table
	perMachine := matrix/int64(cl.Machines()) + n*8
	return u, slices.Repeat([]int64{perMachine}, cl.Machines()), nil
}

// stateFootprint estimates the dense vectors the engine allocates per run;
// every machine replicates the operand vectors.
func stateFootprint(g *graph.Graph, a algorithms.Algorithm) int64 {
	n := int64(g.NumVertices())
	switch a {
	case algorithms.PR:
		return n * 24 // rank, next, contrib
	case algorithms.BFS, algorithms.SSSP:
		return n * 16 // value vector + frontier flags
	case algorithms.WCC, algorithms.CDLP:
		return n * 16 // two label vectors
	case algorithms.LCC:
		return n * 8
	}
	return n * 8
}
