// Package dataflow implements a dataflow (RDD-style) graph engine in the
// style of Apache Spark GraphX, standing in for GraphX in the paper's
// evaluation. The graph is a pair of partitioned immutable datasets — a
// vertex dataset hash-partitioned by vertex id and an edge dataset cut
// into edge partitions — and every algorithm iteration is expressed as
// dataset operations:
//
//	ship:    vertex attributes are shuffled to the edge partitions that
//	         reference them (via routing tables built at load time);
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
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
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

// edgePartition is one partition of the edge dataset.
type edgePartition struct {
	src, dst []int32
	w        []float64 // nil when unweighted
	// needSrc / needDst are the routing tables: the distinct vertices
	// whose attributes this partition needs on the source / destination
	// side of its triplets.
	needSrc, needDst []int32
}

type uploaded struct {
	platform.BaseUpload
	eparts []*edgePartition
	// vparts[p] lists the vertices of vertex partition p.
	vparts [][]int32
	// vpartOf[v] is the vertex partition of v; machineOfV[v] its machine.
	vpartOf   []int32
	machineOf []int32 // machine of vertex partition p
	emachine  []int32 // machine of edge partition p
	// machEparts[m] / machVparts[m] list the edge / vertex partitions
	// hosted on machine m, ascending — the per-stage task lists, built
	// once here instead of rediscovered every dataflow stage.
	machEparts [][]int
	machVparts [][]int
	// shipBytes[m] is the per-dense-iteration attribute-shuffle egress of
	// machine m, precomputed from the routing tables.
	shipBytes []int64
	degrees   []int32 // out-degrees dataset, precomputed at load
	// scratch caches the shuffle plane (staging buffers, CSR inbox,
	// frontier flags, label histogram) between Execute calls.
	scratch mplane.Pool
}

// partitioning constants: like Spark, the engine over-partitions relative
// to the machine count to balance tasks.
const (
	edgePartsPerMachine   = 4
	vertexPartsPerMachine = 2
)

// load materializes the edge and vertex datasets and builds routing
// tables, and reports the (substantial) memory the dataflow representation
// occupies. The context is checked between the materialization phases and
// periodically inside the per-vertex edge scan, so an SLA timer cancels a
// pathological upload mid-flight.
func load(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) (*uploaded, []int64, error) {
	M := cl.Machines()
	nep := M * edgePartsPerMachine
	nvp := M * vertexPartsPerMachine
	n := g.NumVertices()

	u := &uploaded{
		eparts:    make([]*edgePartition, nep),
		vparts:    make([][]int32, nvp),
		vpartOf:   make([]int32, n),
		machineOf: make([]int32, nvp),
		emachine:  make([]int32, nep),
		shipBytes: make([]int64, M),
		degrees:   make([]int32, n),
	}
	u.machEparts = make([][]int, M)
	u.machVparts = make([][]int, M)
	for p := 0; p < nvp; p++ {
		u.machineOf[p] = int32(p % M)
		u.machVparts[p%M] = append(u.machVparts[p%M], p)
	}
	for p := 0; p < nep; p++ {
		u.emachine[p] = int32(p % M)
		u.eparts[p] = &edgePartition{}
		u.machEparts[p%M] = append(u.machEparts[p%M], p)
	}
	for v := 0; v < n; v++ {
		p := int32(v % nvp)
		u.vpartOf[v] = p
		u.vparts[p] = append(u.vparts[p], int32(v))
		u.degrees[v] = int32(g.OutDegree(int32(v)))
	}
	// Round-robin arcs over edge partitions. Undirected edges are stored
	// once and expanded to both triplet directions by the send stage.
	idx := 0
	for v := int32(0); v < int32(n); v++ {
		if v&0xffff == 0 {
			if err := platform.CheckContext(ctx); err != nil {
				return nil, nil, err
			}
		}
		ws := g.OutWeights(v)
		for i, d := range g.OutNeighbors(v) {
			if !g.Directed() && d < v {
				continue
			}
			ep := u.eparts[idx%nep]
			ep.src = append(ep.src, v)
			ep.dst = append(ep.dst, d)
			if ws != nil {
				ep.w = append(ep.w, ws[i])
			}
			idx++
		}
	}
	// Routing tables and per-iteration shuffle volume.
	for p, ep := range u.eparts {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, nil, err
		}
		ep.needSrc = distinct(ep.src)
		ep.needDst = distinct(ep.dst)
		em := u.emachine[p]
		for _, v := range ep.needSrc {
			if vm := u.machineOf[u.vpartOf[v]]; vm != em {
				u.shipBytes[vm] += 12
			}
		}
		for _, v := range ep.needDst {
			if vm := u.machineOf[u.vpartOf[v]]; vm != em {
				u.shipBytes[vm] += 12
			}
		}
	}
	// Memory: triplet storage (src, dst, weight and two attribute slots
	// per stored edge) plus routing tables plus the vertex dataset.
	perMachine := make([]int64, M)
	for p, ep := range u.eparts {
		b := int64(len(ep.src))*(8+16) + int64(len(ep.needSrc)+len(ep.needDst))*4 + int64(len(ep.w))*8
		perMachine[u.emachine[p]] += b
	}
	for p, verts := range u.vparts {
		perMachine[u.machineOf[p]] += int64(len(verts)) * 24
	}
	return u, perMachine, nil
}

// distinct returns the sorted distinct values of xs.
func distinct(xs []int32) []int32 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int32(nil), xs...)
	slices.Sort(out)
	uniq := out[:0]
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			uniq = append(uniq, x)
		}
	}
	return uniq
}
