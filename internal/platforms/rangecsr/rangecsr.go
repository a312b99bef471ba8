// Package rangecsr is what the spmv and pushpull engines have in common:
// both keep a private CSR copy of the graph in both directions, split the
// vertices into contiguous edge-balanced ranges, one per machine, run WCC
// as dense min-label pulls over the owned range followed by an allgather,
// and run SSSP as synchronous Bellman-Ford rounds over each machine's
// owned frontier. The layout with its ascending dangling-vertex list, the
// pooled per-job scratch, those two kernels and the frontier delivery
// live here once, as does CDLP: the reference kernel
// (algorithms.Kernels.CDLP) on the shared cluster runtime (platform.Run),
// each machine folding its Range and broadcasting its changed labels.
// Everything that makes the engines different — names and backends, what
// a machine is charged for the layout, the BFS / PageRank / LCC round
// loops, and the traffic of their rounds and of SSSP's — stays in the
// engine packages.
package rangecsr

import (
	"context"
	"math"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// Layout is an uploaded graph in engine-private storage.
type Layout struct {
	// G is the engine's own heap-resident copy of the graph: out-adjacency
	// is the matrix's CSR rows / the push direction, in-adjacency its CSC
	// columns / the pull direction.
	G *graph.Graph
	// Part assigns each machine one contiguous vertex range.
	Part *cluster.VertexPartition
	// Dangling lists the vertices without out-edges in ascending order:
	// PageRank folds their mass with par.SumBlockedAt, the oracle's tree.
	Dangling []int32
	// pool caches the WCC/SSSP working buffers between jobs.
	pool mplane.Pool
}

// New copies g into engine storage and partitions it over the machines.
// The copy is the upload work the harness times, and it keeps the kernels
// off a mapped dataset's pages.
func New(g *graph.Graph, machines int) *Layout {
	c := g.Clone()
	l := &Layout{G: c, Part: cluster.PartitionVerticesRange(c, machines)}
	for v := int32(0); v < int32(c.NumVertices()); v++ {
		if c.OutDegree(v) == 0 {
			l.Dangling = append(l.Dangling, v)
		}
	}
	return l
}

// Range returns the vertex range [lo, hi) machine mach owns; it is empty
// when there are more machines than vertices.
func (l *Layout) Range(mach int) (lo, hi int) {
	verts := l.Part.Verts[mach]
	if len(verts) == 0 {
		return 0, 0
	}
	return int(verts[0]), int(verts[0]) + len(verts)
}

// CDLP is the reference kernel's frontier label propagation on the
// upload's machines, each folding its Range; a machine broadcasts one
// sparse (id, label) update, 12 bytes, per changed vertex rather than its
// dense label slice.
func CDLP(ctx context.Context, b *platform.BaseUpload, l *Layout, iterations int) ([]int64, error) {
	broadcast := func(mach, updates int) { b.Cl.Broadcast(mach, int64(updates)*12) }
	return platform.Run(ctx, b, l.Range, broadcast, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
		return k.CDLP(rt, l.G, iterations)
	})
}

// scratch is the pooled per-job working state of the WCC and SSSP
// kernels, hung off the layout so repeated jobs on one upload reuse it.
type scratch struct {
	moved []bool // per-thread WCC flags: a label in the chunk moved

	// SSSP state: distances, claims, and per machine its frontier with
	// the frontier's round-start distances and the round's discoveries.
	bits    []uint64    // tentative distances as float bits
	claimed []uint32    // per-round discovery claim stamps
	fronts  [][]int32   // per-machine frontiers
	starts  [][]float64 // parallel to fronts
	disc    [][]int32   // per-machine discoveries
}

func newScratch() *scratch { return &scratch{} }

// WCC pulls minimum labels over both directions — a dense min-SpMV over
// columns plus, on directed graphs, rows — until the label vector reaches
// its fixpoint, allgathering each machine's label slice per round. It
// returns the component labels and the number of rounds run. The round
// and its chunk body are bound once and their flags pooled, so a job
// allocates the same however many rounds it runs.
func (l *Layout) WCC(ctx context.Context, cl *cluster.Cluster) ([]int64, int, error) {
	g, part := l.G, l.Part
	n := g.NumVertices()
	directed := g.Directed()
	labels := make([]int32, n)
	next := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	sc := mplane.Acquire(&l.pool, newScratch)
	defer l.pool.Put(sc)
	sc.moved = mplane.Grow(sc.moved, cl.Threads())
	var verts []int32 // the running machine's vertices
	pull := func(w, lo, hi int) {
		moved := false
		for _, v := range verts[lo:hi] {
			best := labels[v]
			for _, in := range g.InNeighbors(v) {
				if lab := labels[in]; lab < best {
					best = lab
				}
			}
			if directed {
				for _, out := range g.OutNeighbors(v) {
					if lab := labels[out]; lab < best {
						best = lab
					}
				}
			}
			next[v] = best
			if best != labels[v] {
				moved = true
			}
		}
		sc.moved[w] = moved
	}
	changed := false
	round := func(mach int, th *cluster.Threads) error {
		verts = part.Verts[mach]
		clear(sc.moved)
		th.ChunksIndexed(len(verts), pull)
		for _, m := range sc.moved {
			changed = changed || m
		}
		cl.Broadcast(mach, int64(len(verts))*4)
		return nil
	}
	rounds := 0
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, 0, err
		}
		changed = false
		if err := cl.RunRound(round); err != nil {
			return nil, 0, err
		}
		labels, next = next, labels
		rounds++
		if !changed {
			break
		}
	}
	out := make([]int64, n)
	for v, lab := range labels {
		out[v] = g.VertexID(lab)
	}
	return out, rounds, nil
}

// SSSP runs single-source shortest paths as synchronous Bellman-Ford
// rounds, a sparse SpMSpV over the (min, +) semiring. In a round every
// machine relaxes the out-edges of the frontier vertices it owns under
// its threads' chunks (algorithms.SSSPRelaxRange), from the distances they
// had when the round began, and hands the vertices it improved — each
// claimed once per round across all machines — to charge, which accounts
// the engine's traffic for them. Between rounds the discoveries are
// delivered to their owners as the next frontier, and its distances are
// snapshotted. Which vertices a round discovers, and so the round count,
// depend on the graph and the source alone; their order may depend on the
// schedule. It returns the distances and the number of rounds; every
// per-round buffer comes from the pooled scratch.
func (l *Layout) SSSP(ctx context.Context, cl *cluster.Cluster, source int32, charge func(mach int, discovered []int32)) ([]float64, int, error) {
	g, n, machines := l.G, l.G.NumVertices(), l.Part.Machines
	sc := mplane.Acquire(&l.pool, newScratch)
	defer l.pool.Put(sc)
	sc.bits = mplane.Grow(sc.bits, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range sc.bits {
		sc.bits[i] = inf
	}
	sc.bits[source] = math.Float64bits(0)
	// Claims carry a stamp that changes every round, so the claim array is
	// cleared once per job rather than between rounds.
	sc.claimed = mplane.GrowZero(sc.claimed, n)
	if len(sc.disc) != machines {
		sc.disc, sc.fronts, sc.starts = make([][]int32, machines), make([][]int32, machines), make([][]float64, machines)
	}
	for m := range sc.disc {
		sc.disc[m] = sc.disc[m][:0]
	}
	sc.disc[0] = append(sc.disc[0], source) // delivered to its owner below
	var (
		stamp  uint32
		local  []int32
		starts []float64
	)
	relax := func(_, lo, hi int, out []int32) []int32 {
		return algorithms.SSSPRelaxRange(g, sc.bits, local[lo:hi], starts[lo:hi], sc.claimed, stamp, out)
	}
	round := func(mach int, th *cluster.Threads) error {
		local, starts = sc.fronts[mach], sc.starts[mach]
		sc.disc[mach] = th.Collect(len(local), sc.disc[mach], relax)
		charge(mach, sc.disc[mach])
		return nil
	}
	rounds := 0
	for ; l.Deliver(sc.disc, sc.fronts) > 0; rounds++ {
		for m, front := range sc.fronts {
			sc.starts[m] = sc.starts[m][:0]
			for _, v := range front {
				sc.starts[m] = append(sc.starts[m], math.Float64frombits(sc.bits[v]))
			}
		}
		if err := platform.CheckContext(ctx); err != nil {
			return nil, 0, err
		}
		stamp++
		if err := cl.RunRound(round); err != nil {
			return nil, 0, err
		}
	}
	dist := make([]float64, n)
	for i, b := range sc.bits {
		dist[i] = math.Float64frombits(b)
	}
	return dist, rounds, nil
}

// Deliver replaces the per-machine frontiers with a round's discoveries,
// each at the machine that owns it, and returns how many there are.
func (l *Layout) Deliver(discovered, frontiers [][]int32) int {
	for m := range frontiers {
		frontiers[m] = frontiers[m][:0]
	}
	total := 0
	for _, list := range discovered {
		for _, v := range list {
			o := l.Part.Owner[v]
			frontiers[o] = append(frontiers[o], v)
		}
		total += len(list)
	}
	return total
}
