// Package rangecsr is what the spmv and pushpull engines have in common:
// both keep a private CSR copy of the graph in both directions, split the
// vertices into contiguous edge-balanced ranges, one per machine, run WCC
// and CDLP as dense pulls over the owned range followed by an allgather,
// and run SSSP as synchronous Bellman-Ford rounds over each machine's
// owned frontier. The layout, the pooled per-job scratch, those three
// kernels and the frontier delivery live here once. Everything that makes
// the engines different — names and backends, what a machine is charged
// for the layout, the BFS / PageRank / LCC round loops, and the traffic of
// their rounds and of SSSP's — stays in the engine packages.
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
	// pool caches the CDLP/SSSP working buffers between jobs.
	pool mplane.Pool
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

// scratch is the pooled per-job working state of the CDLP and SSSP
// kernels, hung off the layout so repeated jobs on one upload reuse it.
type scratch struct {
	counts  mplane.WorkerCounts // per-thread CDLP counters
	changes []int               // per-thread CDLP changed-vertex counts
	labels  []int32             // CDLP working labels (internal-index domain)
	nextLab []int32
	dirty   []uint32 // CDLP frontier stamps: recompute v this round
	changed []bool   // CDLP: v's label moved this round

	// SSSP state: distances, claims, and per machine its frontier with
	// the frontier's round-start distances and the round's discoveries.
	bits    []uint64    // tentative distances as float bits
	claimed []uint32    // per-round discovery claim stamps
	fronts  [][]int32   // per-machine frontiers
	starts  [][]float64 // parallel to fronts
	disc    [][]int32   // per-machine discoveries
}

// acquire checks the layout's scratch out for one job.
func (l *Layout) acquire() *scratch {
	return mplane.Acquire(&l.pool, func() *scratch { return &scratch{} })
}

// release returns a job's scratch for the next job on this layout.
func (l *Layout) release(sc *scratch) { l.pool.Put(sc) }

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
	defer l.release(sc)
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
	sc := l.acquire()
	defer l.release(sc)
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
