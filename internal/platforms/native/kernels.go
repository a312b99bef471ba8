package native

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// The native engine is single-machine, but it still runs its levels and
// iterations through cluster.RunRound so that the simulated thread pool
// (see cluster.Threads) models vertical scalability uniformly across all
// engines. The per-chunk kernel bodies are the shared step functions of
// the algorithms package (BFSExpand, PRContribRange, WCCUniteRange, ...),
// the same code the parallel reference kernels fan out over internal/par —
// the engine only contributes its own chunking and round accounting. The
// simulated threads' chunks run concurrently on the host's cores, so every
// body writes only its own range or worker slot (per-worker counters,
// numerators and frontier parts), or uses order-free atomics: rounds,
// outputs and memory charges do not depend on the schedule.
//
// Region bodies that a round loop runs many times are built once, before
// the loop: a body escapes to the thread pool's helpers, so a closure
// built per round would allocate per round.

// bfs is a level-synchronous queue-based breadth-first search: only the
// frontier is scanned each level, so partially covered graphs cost only the
// covered portion (the OpenG advantage the paper observes on R2).
func bfs(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	sc := mplane.Acquire(&u.scratch, newNativeScratch)
	defer u.scratch.Put(sc)
	sc.frontier = append(sc.frontier[:0], source)
	// One round body serves every level: it reads the level and the
	// frontier through the variables it captured, so a search allocates
	// the same whether it runs three levels or three thousand.
	level := int64(1)
	expand := func(_, lo, hi int, out []int32) []int32 {
		return algorithms.BFSExpand(g, depth, sc.frontier[lo:hi], level, out)
	}
	round := func(_ int, th *cluster.Threads) error {
		sc.frontier = th.Collect(len(sc.frontier), sc.frontier, expand)
		return nil
	}
	for ; len(sc.frontier) > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(round); err != nil {
			return nil, err
		}
	}
	return depth, nil
}

// pagerank runs the specification's fixed-iteration synchronous PageRank
// with a parallel pull over in-edges.
func pagerank(ctx context.Context, g *graph.Graph, cl *cluster.Cluster, iterations int, damping float64) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n) // rank[u]/outdeg(u), precomputed per iteration
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	danglingParts := make([]float64, cl.Threads())
	var base float64
	contribute := func(w, lo, hi int) {
		danglingParts[w] = algorithms.PRContribRange(g, rank, contrib, lo, hi)
	}
	pull := func(lo, hi int) {
		algorithms.PRPullRange(g, contrib, next, base, damping, lo, hi)
	}
	round := func(_ int, th *cluster.Threads) error {
		th.ChunksIndexed(n, contribute)
		// Worker-ordered reduction; the engine is validated within
		// epsilon, so it need not mirror the reference's block tree.
		var dangling float64
		//graphalint:orderfree chunk partials folded in worker-index order; geometry fixed by the simulated thread config, not host parallelism
		for _, d := range danglingParts {
			dangling += d
		}
		base = (1-damping)*inv + damping*dangling*inv
		th.Chunks(n, pull)
		return nil
	}
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(round); err != nil {
			return nil, err
		}
		rank, next = next, rank
	}
	return rank, nil
}

// wcc is the reference kernel's concurrent union-find under the simulated
// thread pool, in one charged round: every chunk unites its vertices with
// their out-neighbors (algorithms.WCCUniteRange), then every chunk labels
// its vertices with their roots (algorithms.WCCLabelRange). Roots are
// component minima whatever the interleaving, so the labels are the
// canonical smallest-identifier ones.
func wcc(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) ([]int64, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	out := make([]int64, n)
	if err := cl.RunRound(func(_ int, th *cluster.Threads) error {
		th.Chunks(n, func(lo, hi int) { algorithms.WCCUniteRange(g, parent, lo, hi) })
		th.Chunks(n, func(lo, hi int) { algorithms.WCCLabelRange(g, parent, out, lo, hi) })
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// nativeScratch is the pooled per-job working state of the BFS, CDLP, LCC
// and SSSP kernels, hung off the upload so repeated Execute calls reuse it.
type nativeScratch struct {
	counts   mplane.WorkerCounts // per-worker CDLP counters
	changes  []int               // per-worker CDLP changed-vertex counts
	labels   []int32             // CDLP working labels (internal-index domain)
	next     []int32
	dirty    []uint32
	changed  []bool
	sums     []float64 // per-worker weight partials for the Delta round
	frontier []int32   // BFS frontier, SSSP phase discoveries
	buckets  algorithms.SSSPBuckets
	count    [][]int64 // per-thread LCC numerators
	marks    [][]uint8 // per-thread LCC marks, all-zero between jobs
}

func newNativeScratch() *nativeScratch { return &nativeScratch{} }

// cdlp is the deterministic synchronous label propagation of the
// specification, frontier-based on the dense label domain: labels are
// internal vertex indices (translated to external IDs once at the end —
// the argmax is isomorphic, see mplane.LabelCounts), each round
// recomputes only the vertices whose neighborhood changed last round and
// stamps the next frontier from the changed set, stopping early at a
// fixpoint — all bit-identical to the dense rounds (see
// algorithms.CDLPFrontierRange). Each worker slot folds into its own
// counter and counts its own changed vertices, so chunks can run
// concurrently.
func cdlp(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	sc := mplane.Acquire(&u.scratch, newNativeScratch)
	defer u.scratch.Put(sc)
	sc.counts.Ensure(cl.Threads(), n)
	sc.changes = mplane.Grow(sc.changes, cl.Threads())
	sc.labels = mplane.Grow(sc.labels, n)
	sc.next = mplane.Grow(sc.next, n)
	labels, next := sc.labels, sc.next
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	sc.dirty = mplane.Grow(sc.dirty, n)
	clear(sc.dirty) // stale stamps from a previous job must not leak in
	sc.changed = mplane.Grow(sc.changed, n)
	var (
		it    int
		dirty []uint32 // nil: every vertex is dirty (round zero, dense rounds)
	)
	fold := func(w, lo, hi int) {
		if it == 0 {
			// Identity labels admit a closed-form first round (see
			// algorithms.CDLPInitRange).
			sc.changes[w] = algorithms.CDLPInitRange(g, next, sc.changed, lo, hi)
		} else {
			sc.changes[w] = algorithms.CDLPFrontierRange(g, labels, next, lo, hi, sc.counts.At(w), dirty, uint32(it), sc.changed)
		}
	}
	stamp := func(lo, hi int) {
		algorithms.CDLPScatterRange(g, sc.changed, sc.dirty, uint32(it+1), lo, hi)
	}
	total, scatter := 0, false
	round := func(_ int, th *cluster.Threads) error {
		clear(sc.changes)
		th.ChunksIndexed(n, fold)
		total = 0
		for _, c := range sc.changes {
			total += c
		}
		// While the changed set is large its neighborhoods blanket the
		// graph — skip the marking sweep and run the next round dense
		// (over-marking is exact; see CDLPScatterWorthwhile).
		scatter = total > 0 && algorithms.CDLPScatterWorthwhile(total, n) && it+1 < iterations
		if scatter {
			th.Chunks(n, stamp)
		}
		return nil
	}
	for ; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(round); err != nil {
			return nil, err
		}
		labels, next = next, labels
		if total == 0 {
			break
		}
		dirty = nil
		if scatter {
			dirty = sc.dirty
		}
	}
	for v := 0; v < n; v++ {
		out[v] = g.VertexID(labels[v])
	}
	return out, nil
}

// lcc runs the shared degree-ordered triangle kernel (see
// algorithms.LCCOrientation) under the simulated thread pool: one charged
// round counts triangles over chunks cut by probe work, so the modeled
// slowest thread stays close to the mean on skewed graphs, then divides
// the numerators over vertex chunks. As in algorithms.ParLCC, each thread
// counts into its own numerator and mark arrays, and the ratio pass folds
// the numerators in thread order — integer sums, so the order cannot move
// a bit. Everything but the output is pooled.
func lcc(ctx context.Context, u *uploaded) ([]float64, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	n := u.G.NumVertices()
	o := u.orient
	sc := mplane.Acquire(&u.scratch, newNativeScratch)
	defer u.scratch.Put(sc)
	tc := u.Cl.Threads()
	if sc.marks == nil {
		sc.count = make([][]int64, tc)
		sc.marks = make([][]uint8, tc)
		for w := range sc.marks {
			sc.marks[w] = make([]uint8, n)
		}
	}
	bounds := o.Bounds(tc)
	out := make([]float64, n)
	if err := u.Cl.RunRound(func(_ int, th *cluster.Threads) error {
		th.ChunksIndexed(tc, func(w, lo, hi int) {
			sc.count[w] = mplane.GrowZero(sc.count[w], n)
			for c := lo; c < hi; c++ {
				o.CountRange(sc.count[w], sc.marks[w], bounds[c], bounds[c+1])
			}
		})
		th.Chunks(n, func(lo, hi int) {
			total := sc.count[0]
			for _, c := range sc.count[1:] {
				for v := lo; v < hi; v++ {
					total[v] += c[v]
				}
			}
			o.RatioRange(total, out, lo, hi)
		})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// sssp runs delta-stepping, mirroring algorithms.ParSSSP under the
// simulated thread pool: one charged round computes the bucket width
// (mean edge weight), then each bucket is one charged round that runs the
// bucket's relax phases over the frontier via the shared SSSPRelaxRange
// step, with the sequential bucket bookkeeping (algorithms.SSSPBuckets)
// between phases — the engine-side analog of the reference kernels'
// frontier merges. Every phase relaxes from the distances its frontier had
// when the phase began, so what a phase discovers does not depend on the
// schedule; and once bucket b drains every vertex below (b+1)·Δ is final
// and every other tentative distance is the minimum over settled u of
// dist(u)+w, which the graph alone fixes — so the sequence of buckets,
// and with it the round count, is fixed by the graph. All working state
// is pooled, so steady-state runs allocate only the output array. The
// fixpoint is the unique shortest-path distance vector (see the
// determinism argument in algorithms/sssp.go).
func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	sc := mplane.Acquire(&u.scratch, newNativeScratch)
	defer u.scratch.Put(sc)

	arcs := int64(g.NumEdges())
	if !g.Directed() {
		arcs *= 2
	}
	var delta float64
	if err := cl.RunRound(func(_ int, th *cluster.Threads) error {
		sc.sums = mplane.Grow(sc.sums, th.Count())
		th.ChunksIndexed(n, func(w, lo, hi int) {
			sc.sums[w] = algorithms.SSSPWeightRange(g, lo, hi)
		})
		var total float64
		//graphalint:orderfree chunk partials folded in worker-index order; geometry fixed by the simulated thread config, not host parallelism
		for _, s := range sc.sums[:th.Count()] {
			total += s
		}
		if arcs > 0 {
			delta = total / float64(arcs)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	b := &sc.buckets
	b.Init(g, source, delta)
	var (
		frontier []int32
		starts   []float64
		claimed  []uint32
		stamp    uint32
	)
	relax := func(_, lo, hi int, out []int32) []int32 {
		return algorithms.SSSPRelaxRange(g, b.Bits, frontier[lo:hi], starts[lo:hi], claimed, stamp, out)
	}
	bucket := func(_ int, th *cluster.Threads) error {
		for {
			if frontier, starts, claimed, stamp = b.BeginPhase(); len(frontier) == 0 {
				return nil
			}
			sc.frontier = th.Collect(len(frontier), sc.frontier, relax)
			b.Absorb(sc.frontier)
		}
	}
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(bucket); err != nil {
			return nil, err
		}
		if !b.Advance() {
			break
		}
	}
	return b.Distances(nil), nil
}
