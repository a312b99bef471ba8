// Package dataflow implements a dataflow (RDD-style) graph engine in the
// style of Apache Spark GraphX, standing in for GraphX in the paper's
// evaluation. The graph is a pair of partitioned immutable datasets — a
// vertex dataset hash-partitioned by vertex id and an edge dataset cut
// into edge partitions, both residue classes of the graph's vertex and
// stored-arc numbering, read in place — and every algorithm iteration is
// expressed as dataset operations:
//
//	ship:    vertex attributes are shuffled to the edge partitions that
//	         reference them (via routing tables counted at load time);
//	send:    each edge partition scans its triplets and emits messages;
//	reduce:  messages are shuffled to vertex partitions and merged by key
//	         into fresh hash maps;
//	join:    the merged messages are joined with the vertex dataset to
//	         produce the next vertex values.
//
// Faithful to the model, every stage materializes its output and rebuilds
// hash maps each iteration; full edge partitions are rescanned even when
// only a few sources are active. This generality tax is why the paper
// finds GraphX one to two orders of magnitude slower than the fastest
// platforms, and the engine reproduces it structurally.
package dataflow

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// New returns the dataflow engine. All six algorithms are expressed as
// dataflows (the paper's GraphX fails CDLP and LCC at scale — here that
// manifests as SLA breaks rather than a missing implementation).
func New() platform.Platform {
	return platform.New(platform.Engine[*uploaded]{
		Name:        "dataflow",
		Description: "RDD-style dataset joins and shuffles (GraphX/Spark-style)",
		Distributed: true,
		Load:        load,
		Kernels: map[algorithms.Algorithm]platform.Kernel[*uploaded]{
			algorithms.BFS: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(bfsFlow(ctx, u, j.SourceIndex))
			},
			algorithms.PR: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(prFlow(ctx, u, j.Iterations, j.Damping))
			},
			algorithms.WCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(wccFlow(ctx, u))
			},
			algorithms.CDLP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Ints(cdlpFlow(ctx, u, j.Iterations))
			},
			algorithms.LCC: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(lccFlow(ctx, u))
			},
			algorithms.SSSP: func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
				return j.Floats(ssspFlow(ctx, u, j.SourceIndex))
			},
		},
		// Message buffers and join maps: the engine re-materializes these per
		// iteration; the registration covers the peak of one iteration.
		State: func(u *uploaded, _ *platform.Job) int64 { return int64(u.G.NumVertices()) * 48 },
		Annotate: func(u *uploaded, j *platform.Job) {
			j.Tracker.Annotate("edge_partitions", fmt.Sprint(len(u.eparts)))
		},
	})
}

// edgePartition is one partition of the edge dataset, read in place from
// g. The stored arcs — every out-arc of a directed graph, the arc to the
// higher (or equal) index of an undirected one — are numbered row-major
// in g's order, and edge partition p holds those whose number is
// ≡ p (mod len(eparts)). Within a row these are every len(eparts)-th
// position from the first, so a partition is one rowStart per source row
// it touches, ascending: its routing table on the source side.
type edgePartition []rowStart

// rowStart is a source row of an edge partition and the position of the
// partition's first arc in g's out-row of it.
type rowStart struct{ row, first int32 }

type uploaded struct {
	platform.BaseUpload
	eparts []edgePartition
	// nvp is the number of vertex partitions: vertex partition p is the
	// vertices v ≡ p (mod nvp), nvp = 2M.
	nvp int
	// owner[v] is the machine of vertex v: vertex partition p lives on
	// machine p mod M, so v lives on (v mod 2M) mod M = v mod M. Edge
	// partition p lives on machine p mod M: machine m's k-th edge or
	// vertex partition is m + kM.
	owner []int32
	// shipBytes[m] is the per-dense-iteration attribute-shuffle egress of
	// machine m, precomputed from the routing tables.
	shipBytes []int64
}

// arcs yields edge partition p's arcs (src, dst) in row-major order.
func (u *uploaded) arcs(p int) iter.Seq2[int32, int32] {
	return func(yield func(int32, int32) bool) {
		g, stride := u.G, len(u.eparts)
		for _, r := range u.eparts[p] {
			nb := g.OutNeighbors(r.row)
			for i := int(r.first); i < len(nb); i += stride {
				if !yield(r.row, nb[i]) {
					return
				}
			}
		}
	}
}

// partitioning constants: like Spark, the engine over-partitions relative
// to the machine count to balance tasks.
const (
	edgePartsPerMachine   = 4
	vertexPartsPerMachine = 2
)

// load lays the edge and vertex datasets over g and builds the routing
// tables, and reports the (substantial) memory the dataflow representation
// occupies: triplets, routing tables and the vertex dataset, counted as
// if materialized. The context is checked between the phases and
// periodically inside the row scan, so an SLA timer cancels a
// pathological upload mid-flight.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	M := cl.Machines()
	nep := M * edgePartsPerMachine
	n := g.NumVertices()

	u := &uploaded{
		// The driver sets G too; the routing pass reads arcs through it.
		BaseUpload: platform.BaseUpload{G: g},
		eparts:     make([]edgePartition, nep),
		nvp:        M * vertexPartsPerMachine,
		owner:      make([]int32, n),
		shipBytes:  make([]int64, M),
	}
	perMachine := make([]int64, M)
	k := 0 // the number of the row's first stored arc
	for v := int32(0); v < int32(n); v++ {
		if v&0xffff == 0 {
			if err := platform.CheckContext(ctx); err != nil {
				return nil, nil, err
			}
		}
		u.owner[v] = v % int32(M)
		perMachine[u.owner[v]] += 24
		nb := g.OutNeighbors(v)
		lo := 0
		if !g.Directed() {
			lo, _ = slices.BinarySearch(nb, v)
		}
		for i := lo; i < min(len(nb), lo+nep); i++ {
			p := (k + i - lo) % nep
			u.eparts[p] = append(u.eparts[p], rowStart{v, int32(i)})
		}
		k += len(nb) - lo
	}
	// Routing tables and per-iteration shuffle volume: a partition's rows
	// are its distinct sources, and seen[d] = p+1 marks d a destination of
	// partition p.
	seen := make([]int32, n)
	for p, ep := range u.eparts {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, nil, err
		}
		em := int32(p % M)
		ship := func(v int32) {
			if vm := u.owner[v]; vm != em {
				u.shipBytes[vm] += 12
			}
		}
		for _, r := range ep {
			ship(r.row)
		}
		arcs, need := int64(0), int64(len(ep))
		for _, d := range u.arcs(p) {
			arcs++
			if seen[d] != int32(p+1) {
				seen[d] = int32(p + 1)
				need++
				ship(d)
			}
		}
		// Triplet storage: src, dst, weight and two attribute slots per
		// stored arc, plus the routing tables.
		b := arcs*(8+16) + need*4
		if g.Weighted() {
			b += arcs * 8
		}
		perMachine[em] += b
	}
	return u, perMachine, nil
}
