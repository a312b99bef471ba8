// Package rangecsr is what the spmv and pushpull engines have in common:
// both keep a private CSR copy of the graph in both directions, split the
// vertices into contiguous edge-balanced ranges, one per machine, and run
// WCC and CDLP as dense pulls over the owned range followed by an
// allgather. The layout, the pooled per-job scratch and those two kernels
// live here once. Everything that makes the engines different — names and
// backends, what a machine is charged for the layout, the BFS / PageRank /
// SSSP / LCC round loops and their traffic — stays in the engine packages.
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
	// scratch caches the CDLP/SSSP working buffers between jobs.
	scratch mplane.Pool
}

// New copies g into engine storage and partitions it over the machines.
// The copy is the upload work the harness times, and it keeps the kernels
// off a mapped dataset's pages.
func New(g *graph.Graph, machines int) *Layout {
	c := g.Clone()
	return &Layout{G: c, Part: cluster.PartitionVerticesRange(c, machines)}
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

// Scratch is the pooled per-job working state of the CDLP and SSSP
// kernels, hung off the layout so repeated jobs on one upload reuse it.
type Scratch struct {
	counts  mplane.WorkerCounts // per-thread CDLP counters
	changes []int               // per-thread CDLP changed-vertex counts
	labels  []int32             // CDLP working labels (internal-index domain)
	nextLab []int32
	dirty   []uint32 // CDLP frontier stamps: recompute v this round
	changed []bool   // CDLP: v's label moved this round

	// SSSP state; the round loops that use it are the engines' own.
	bits    []uint64  // tentative distances as float bits
	claimed []uint32  // per-round discovery claim stamps
	parts   [][]int32 // per-thread relax buffers
	Disc    [][]int32 // per-machine merged discoveries
	Fronts  [][]int32 // per-machine frontiers (routed discoveries)
	Routing []int64   // per-destination-machine byte staging
	Front   []int32   // the global frontier (broadcast discoveries)
	Local   []int32   // a machine's owned slice of Front
}

// acquire checks the layout's scratch out for one job.
func (l *Layout) acquire() *Scratch {
	return mplane.Acquire(&l.scratch, func() *Scratch { return &Scratch{} })
}

// Release returns a job's scratch for the next job on this layout.
func (l *Layout) Release(sc *Scratch) { l.scratch.Put(sc) }

// externalIDs translates dense labels (internal vertex indices) into the
// external identifiers the output carries.
func (l *Layout) externalIDs(labels []int32) []int64 {
	out := make([]int64, len(labels))
	for v, lab := range labels {
		out[v] = l.G.VertexID(lab)
	}
	return out
}

// WCC pulls minimum labels over both directions — a dense min-SpMV over
// columns plus, on directed graphs, rows — until the label vector reaches
// its fixpoint, allgathering each machine's label slice per round. It
// returns the component labels and the number of rounds run.
func (l *Layout) WCC(ctx context.Context, cl *cluster.Cluster) ([]int64, int, error) {
	g, part := l.G, l.Part
	n := g.NumVertices()
	directed := g.Directed()
	labels := make([]int32, n)
	next := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	changed := make([]bool, cl.Machines())
	rounds := 0
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, 0, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := part.Verts[mach]
			parts := make([]bool, th.Count())
			th.ChunksIndexed(len(verts), func(w, lo, hi int) {
				ch := false
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
						ch = true
					}
				}
				parts[w] = ch
			})
			ch := false
			for _, p := range parts {
				ch = ch || p
			}
			changed[mach] = ch
			cl.Broadcast(mach, int64(len(verts))*4)
			return nil
		}); err != nil {
			return nil, 0, err
		}
		labels, next = next, labels
		rounds++
		any := false
		for _, c := range changed {
			any = any || c
		}
		if !any {
			break
		}
	}
	return l.externalIDs(labels), rounds, nil
}

// CDLP runs the deterministic label-propagation iterations as frontier-
// masked pulls on the dense label domain: labels are internal vertex
// indices (translated once at the end — the argmax is isomorphic, see
// mplane.LabelCounts). Round zero uses the closed form over the sorted
// adjacency; later rounds recompute only the vertices whose neighborhood
// changed last round, and stop early once a round changes nothing — all
// bit-identical to the dense schedule (see algorithms.CDLPFrontierRange).
// The frontier is stamped between rounds as uncharged harness bookkeeping,
// like the pregel engine's active-list rebuild, and skipped while the
// changed set still blankets the graph (algorithms.CDLPScatterWorthwhile).
// The allgather shrinks with the frontier: instead of its dense label
// slice, a machine ships one sparse (id, label) update per changed vertex.
// Each thread folds into its own counter and counts its own changes.
func (l *Layout) CDLP(ctx context.Context, cl *cluster.Cluster, iterations int) ([]int64, error) {
	g := l.G
	n := g.NumVertices()
	if n == 0 {
		return []int64{}, nil
	}
	sc := l.acquire()
	defer l.Release(sc)
	sc.counts.Ensure(cl.Threads(), n)
	sc.changes = mplane.Grow(sc.changes, cl.Threads())
	sc.labels = mplane.Grow(sc.labels, n)
	sc.nextLab = mplane.Grow(sc.nextLab, n)
	labels, next := sc.labels, sc.nextLab
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	sc.dirty = mplane.GrowZero(sc.dirty, n) // stale stamps from a previous job must not leak in
	sc.changed = mplane.Grow(sc.changed, n)
	var (
		it    int
		base  int      // first vertex of the machine in the round
		dirty []uint32 // nil: every vertex is dirty (round zero, dense rounds)
	)
	fold := func(w, lo, hi int) {
		if it == 0 {
			sc.changes[w] = algorithms.CDLPInitRange(g, next, sc.changed, base+lo, base+hi)
		} else {
			sc.changes[w] = algorithms.CDLPFrontierRange(g, labels, next, base+lo, base+hi, sc.counts.At(w), dirty, uint32(it), sc.changed)
		}
	}
	total := 0
	round := func(mach int, th *cluster.Threads) error {
		var end int
		base, end = l.Range(mach)
		clear(sc.changes)
		th.ChunksIndexed(end-base, fold)
		updates := 0
		for _, c := range sc.changes {
			updates += c
		}
		total += updates
		cl.Broadcast(mach, int64(updates)*12)
		return nil
	}
	for ; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		total = 0
		if err := cl.RunRound(round); err != nil {
			return nil, err
		}
		labels, next = next, labels
		if total == 0 {
			break
		}
		dirty = nil
		if algorithms.CDLPScatterWorthwhile(total, n) && it+1 < iterations {
			dirty = sc.dirty
			algorithms.CDLPScatterRange(g, sc.changed, dirty, uint32(it+1), 0, n)
		}
	}
	return l.externalIDs(labels), nil
}

// StartSSSP checks the scratch out for one SSSP job (the caller Releases
// it): every distance +Inf but the source's 0, no vertex claimed, one
// discovery list per machine. Relax stamps its claims with a value that
// changes every round, so the claim array is cleared here, once per job,
// rather than between rounds.
func (l *Layout) StartSSSP(source int32) *Scratch {
	sc, n, machines := l.acquire(), l.G.NumVertices(), l.Part.Machines
	sc.bits = mplane.Grow(sc.bits, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range sc.bits {
		sc.bits[i] = inf
	}
	sc.bits[source] = math.Float64bits(0)
	sc.claimed = mplane.GrowZero(sc.claimed, n)
	if len(sc.Disc) != machines {
		sc.Disc = make([][]int32, machines)
	}
	return sc
}

// Relax runs one machine's share of a relaxation round: the out-edges of
// local are relaxed under th's chunks (algorithms.SSSPRelaxRange) into the
// pooled per-thread buffers, and the vertices whose distance improved —
// each claimed once per stamp across all machines — are returned merged in
// thread order onto merged[:0]. The rounds are Bellman-Ford phases whose
// discoveries, and so the next frontier and its traffic, depend on what
// earlier chunks already relaxed, so the chunks run in order
// (Threads.ChunksInOrder).
func (sc *Scratch) Relax(g *graph.Graph, th *cluster.Threads, local []int32, stamp uint32, merged []int32) []int32 {
	tc := th.Count()
	if len(sc.parts) < tc {
		sc.parts = make([][]int32, tc)
	}
	for w := range sc.parts[:tc] {
		sc.parts[w] = sc.parts[w][:0]
	}
	th.ChunksInOrder(len(local), func(w, lo, hi int) {
		sc.parts[w] = algorithms.SSSPRelaxRange(g, sc.bits, local[lo:hi], sc.claimed, stamp, sc.parts[w])
	})
	merged = merged[:0]
	for _, p := range sc.parts[:tc] {
		merged = append(merged, p...)
	}
	return merged
}

// Distances decodes the job's final distance vector.
func (sc *Scratch) Distances() []float64 {
	dist := make([]float64, len(sc.bits))
	for i, b := range sc.bits {
		dist[i] = math.Float64frombits(b)
	}
	return dist
}
