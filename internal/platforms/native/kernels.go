package native

import (
	"context"
	"sync/atomic"

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
// the algorithms package (BFSExpand, PRContribRange, ...), the same code
// the parallel reference kernels fan out over internal/par — the engine
// only contributes its own chunking, round accounting and engine-specific
// algorithms (min-label WCC, Bellman-Ford SSSP).

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
	if len(sc.parts) < cl.Threads() {
		sc.parts = make([][]int32, cl.Threads())
	}
	sc.frontier = append(sc.frontier[:0], source)
	// One round body serves every level: it reads the level and the
	// frontier through the variables it captured, so a search allocates
	// the same whether it runs three levels or three thousand.
	level := int64(1)
	round := func(_ int, th *cluster.Threads) error {
		th.ChunksIndexed(len(sc.frontier), func(w, lo, hi int) {
			sc.parts[w] = algorithms.BFSExpand(g, depth, sc.frontier[lo:hi], level, sc.parts[w][:0])
		})
		return nil
	}
	for ; len(sc.frontier) > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(round); err != nil {
			return nil, err
		}
		sc.frontier = sc.frontier[:0]
		for w := range sc.parts {
			sc.frontier = append(sc.frontier, sc.parts[w]...)
			sc.parts[w] = sc.parts[w][:0] // a narrower next level leaves some slots unwritten
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
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(_ int, th *cluster.Threads) error {
			danglingParts := make([]float64, th.Count())
			th.ChunksIndexed(n, func(w, lo, hi int) {
				danglingParts[w] = algorithms.PRContribRange(g, rank, contrib, lo, hi)
			})
			// Worker-ordered reduction; the engine is validated within
			// epsilon, so it need not mirror the reference's block tree.
			var dangling float64
			//graphalint:orderfree chunk partials folded in worker-index order; geometry fixed by the simulated thread config, not host parallelism
			for _, d := range danglingParts {
				dangling += d
			}
			base := (1-damping)*inv + damping*dangling*inv
			th.Chunks(n, func(lo, hi int) {
				algorithms.PRPullRange(g, contrib, next, base, damping, lo, hi)
			})
			return nil
		}); err != nil {
			return nil, err
		}
		rank, next = next, rank
	}
	return rank, nil
}

// wcc propagates minimum labels over both edge directions until a
// fixpoint; labels start as internal indices (whose order equals external
// identifier order) and are translated to external identifiers at the end.
func wcc(ctx context.Context, g *graph.Graph, cl *cluster.Cluster) ([]int64, error) {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		any := false
		if err := cl.RunRound(func(_ int, th *cluster.Threads) error {
			changedParts := make([]bool, th.Count())
			th.ChunksIndexed(n, func(w, lo, hi int) {
				changedParts[w] = wccRange(g, label, lo, hi)
			})
			for _, c := range changedParts {
				any = any || c
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if !any {
			break
		}
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		out[v] = g.VertexID(label[v])
	}
	return out, nil
}

// wccRange runs one min-label sweep for v in [lo, hi): each vertex takes
// the minimum label over itself and both neighbor directions, and the
// return value reports whether any label in the range moved.
//
//graphalint:noalloc per-chunk superstep body: atomic loads and stores on the shared label array only
func wccRange(g *graph.Graph, label []int32, lo, hi int) bool {
	changed := false
	for v := lo; v < hi; v++ {
		orig := atomic.LoadInt32(&label[v])
		m := orig
		for _, u := range g.OutNeighbors(int32(v)) {
			if l := atomic.LoadInt32(&label[u]); l < m {
				m = l
			}
		}
		if g.Directed() {
			for _, u := range g.InNeighbors(int32(v)) {
				if l := atomic.LoadInt32(&label[u]); l < m {
					m = l
				}
			}
		}
		if m < orig {
			// A concurrent smaller store may be overwritten here; that
			// writer sets its changed flag, so the fixpoint loop runs
			// again and re-lowers the label.
			atomic.StoreInt32(&label[v], m)
			changed = true
		}
	}
	return changed
}

// nativeScratch is the pooled per-job working state of the BFS, CDLP, LCC
// and SSSP kernels, hung off the upload so repeated Execute calls reuse it.
type nativeScratch struct {
	counts   mplane.LabelCounts
	labels   []int32 // CDLP working labels (internal-index domain)
	next     []int32
	dirty    []uint32
	changed  []bool
	sums     []float64 // per-worker weight partials for the Delta round
	parts    [][]int32 // per-worker BFS claims and SSSP relax outputs
	frontier []int32   // BFS frontier
	buckets  algorithms.SSSPBuckets
	count    []int64   // LCC numerators
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
// algorithms.CDLPFrontierRange). The simulated threads run their chunks
// sequentially, so one job-lifetime counter serves every chunk of every
// iteration.
func cdlp(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	sc := mplane.Acquire(&u.scratch, newNativeScratch)
	defer u.scratch.Put(sc)
	sc.counts.EnsureDomain(n)
	sc.labels = mplane.Grow(sc.labels, n)
	sc.next = mplane.Grow(sc.next, n)
	labels, next := sc.labels, sc.next
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	sc.dirty = mplane.Grow(sc.dirty, n)
	clear(sc.dirty) // stale stamps from a previous job must not leak in
	sc.changed = mplane.Grow(sc.changed, n)
	dense := true // round zero treats every vertex as dirty
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		var d []uint32
		if !dense {
			d = sc.dirty
		}
		total := 0
		scatter := false
		if err := cl.RunRound(func(_ int, th *cluster.Threads) error {
			th.Chunks(n, func(lo, hi int) {
				if it == 0 {
					// Identity labels admit a closed-form first round
					// (see algorithms.CDLPInitRange).
					total += algorithms.CDLPInitRange(g, next, sc.changed, lo, hi)
				} else {
					total += algorithms.CDLPFrontierRange(g, labels, next, lo, hi, &sc.counts, d, uint32(it), sc.changed)
				}
			})
			// While the changed set is large its neighborhoods blanket the
			// graph — skip the marking sweep and run the next round dense
			// (over-marking is exact; see CDLPScatterWorthwhile).
			scatter = total > 0 && algorithms.CDLPScatterWorthwhile(total, n) && it+1 < iterations
			if scatter {
				th.Chunks(n, func(lo, hi int) {
					algorithms.CDLPScatterRange(g, sc.changed, sc.dirty, uint32(it+1), lo, hi)
				})
			}
			return nil
		}); err != nil {
			return nil, err
		}
		labels, next = next, labels
		if total == 0 {
			break
		}
		dense = !scatter
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
// the numerators over vertex chunks. The simulated threads run their
// chunks one after another, so a single numerator array serves them all;
// each thread keeps its own mark array, as real threads would. Everything
// but the output is pooled.
func lcc(ctx context.Context, u *uploaded) ([]float64, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	n := u.G.NumVertices()
	o := u.orient
	sc := mplane.Acquire(&u.scratch, newNativeScratch)
	defer u.scratch.Put(sc)
	tc := u.Cl.Threads()
	sc.count = mplane.GrowZero(sc.count, n)
	if sc.marks == nil {
		sc.marks = make([][]uint8, tc)
		for w := range sc.marks {
			sc.marks[w] = make([]uint8, n)
		}
	}
	bounds := o.Bounds(tc)
	out := make([]float64, n)
	if err := u.Cl.RunRound(func(_ int, th *cluster.Threads) error {
		th.ChunksIndexed(tc, func(w, lo, hi int) {
			for c := lo; c < hi; c++ {
				o.CountRange(sc.count, sc.marks[w], bounds[c], bounds[c+1])
			}
		})
		th.Chunks(n, func(lo, hi int) {
			o.RatioRange(sc.count, out, lo, hi)
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
// (mean edge weight), then each relax phase of the current bucket is one
// charged round over the frontier via the shared SSSPRelaxRange step,
// with the sequential bucket bookkeeping (algorithms.SSSPBuckets) between
// rounds — the engine-side analog of the reference kernels' frontier
// merges. All working state is pooled, so steady-state runs allocate only
// the output array. The fixpoint is the unique shortest-path distance
// vector (see the determinism argument in algorithms/sssp.go).
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
	tc := cl.Threads()
	if len(sc.parts) < tc {
		sc.parts = make([][]int32, tc)
	}
	for {
		frontier, claimed, stamp := b.BeginPhase()
		if len(frontier) == 0 {
			if !b.Advance() {
				break
			}
			continue
		}
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		for w := range sc.parts {
			sc.parts[w] = sc.parts[w][:0]
		}
		if err := cl.RunRound(func(_ int, th *cluster.Threads) error {
			th.ChunksIndexed(len(frontier), func(w, lo, hi int) {
				sc.parts[w] = algorithms.SSSPRelaxRange(g, b.Bits, frontier[lo:hi], claimed, stamp, sc.parts[w][:0])
			})
			return nil
		}); err != nil {
			return nil, err
		}
		b.Absorb(sc.parts[:tc])
	}
	return b.Distances(nil), nil
}
