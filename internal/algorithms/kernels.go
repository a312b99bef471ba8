package algorithms

import (
	"math"

	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/par"
)

// The six kernels' round loops, written once. Each Kernels method runs one
// algorithm over a Runtime: the parallel reference kernels (Par*) run it on
// internal/par, and the cluster engines run it on their simulated
// machines (platform.Run), one charged cluster round per Round call. The
// loop, its per-chunk step bodies (steps.go) and its reductions are the
// same code on every runtime, so a single-machine engine's output is the
// reference output, bit for bit, at every thread count.
//
// Rounds follow the engine's accounting: one per BFS level, per PageRank
// iteration and per CDLP iteration; one for WCC and for LCC; one for SSSP's
// bucket width plus one per delta-stepping bucket. The range engines'
// variants take one round per min-label pass (MinLabelWCC) and per
// frontier (PushBFS, BellmanFordSSSP), and two per PageRank iteration in
// ApplyGatherPageRank, spmv's apply and gather.
//
// Float sums that cross chunks — PageRank's dangling mass and SSSP's bucket
// width — follow par.SumBlocked's reduction tree: partials over blocks of
// a fixed length, added in block order, so their value does not depend on
// how many workers share the work. Every pass over the vertices runs over
// vertex chunks, so it splits across as many simulated threads as a graph
// of any size can feed.

// Runtime runs a kernel's rounds and the parallel regions inside them.
// Chunks, Collect, Owned and Report may only be called inside a Round body.
//
// A runtime may span machines: Round then runs the body on each in turn,
// and each run owns a contiguous vertex range. BFS, PageRank, CDLP and the
// range engines' variants (ApplyGatherPageRank, MinLabelWCC, PushBFS,
// BellmanFordSSSP) are written for that; the other kernels assume one
// machine, which owns every vertex.
type Runtime interface {
	// Round runs body as one synchronization round. It fails only when
	// the job is abandoned (the engines check their context first).
	Round(body func()) error
	// Chunks runs fn over [0, n) split into at most Workers contiguous
	// chunks, worker w covering par.ChunkRange(n, chunks, w), and returns
	// once every chunk has finished.
	Chunks(n int, fn func(worker, lo, hi int))
	// Collect runs fn over [0, n) like Chunks, handing each worker an
	// empty buffer of its own to extend and return. After the join it
	// returns dst[:0] extended with the workers' buffers in worker order,
	// so dst may alias what the chunks read.
	Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32
	// Workers is the number of worker slots a body may index.
	Workers() int
	// Owned is the vertex range [lo, hi) the running body's machine owns:
	// every vertex on a runtime of one machine.
	Owned() (lo, hi int)
	// Report hands the engine what the running body's machine produced
	// this round, for it to price as traffic: n updates and, when they are
	// discoveries an engine may route to their owners, the vertices (nil
	// otherwise). It is free on one machine.
	Report(n int, vertices []int32)
}

// Kernels runs the six algorithms over a Runtime and keeps their working
// state between jobs: engines pool them for their lifetime, so runs
// allocate little beyond their outputs whatever graph ran before. Every
// array is sized, overwritten or cleared by the job that reads it, and
// none holds a pointer into a graph. The zero value is ready to use; a
// Kernels must not run two jobs at once.
type Kernels struct {
	counts   mplane.WorkerCounts // per-worker CDLP counters
	changes  []int               // per-worker CDLP and min-label WCC changed-vertex counts, BFS frontier arcs
	labels   []int32             // CDLP and min-label WCC working labels (internal-index domain)
	next     []int32
	dirty    []uint32
	changed  []bool
	dangling []int32   // PageRank's dangling vertices, ascending
	ranks    []float64 // PageRank's ranks, alternating with the output
	contrib  []float64 // PageRank's per-vertex contributions, rank/outdeg
	sums     []float64 // block partials of SSSP's bucket width
	frontier []int32   // BFS and Bellman-Ford frontier, SSSP phase discoveries
	bits     []uint64  // BFS frontier bitmap of a bottom-up level
	bottomUp int       // the last BFS's bottom-up levels
	found    []int32   // frontierRounds' next frontier
	part     []int32   // a machine's part of the frontier (ownedFrontier)
	buckets  ssspBuckets
	dist     []uint64  // Bellman-Ford distances as float bits
	claims   []uint32  // Bellman-Ford per-round claim stamps
	starts   []float64 // Bellman-Ford frontier's round-start distances
	pstarts  []float64 // their entries for part
	count    [][]int64 // per-worker LCC numerators
	marks    [][]uint8 // per-worker LCC marks, all-zero between jobs
}

// Direction-optimizing BFS (Beamer et al., SC'12): a level runs
// bottom-up once the frontier's out-arcs exceed the unexplored arcs over
// bfsAlpha, and returns to top-down once the frontier holds fewer than
// the vertices over bfsBeta.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// BFS is a level-synchronous direction-optimizing breadth-first search,
// one round per level (frontierRounds). A top-down level expands only the
// frontier (BFSExpand: atomic claims, so partially covered graphs cost
// only the covered portion); a bottom-up level marks the frontier in a
// bitmap and lets every unreached vertex look for a parent among its
// in-neighbors (bfsPullRange), which saves the scan of the many arcs into
// the visited set when the frontier is large. The direction is picked once
// per level, before its round, from counts of the graph and the search
// alone — the frontier's out-arcs, summed by the chunks that found it, and
// its size — so it depends neither on the chunking nor on the machines,
// and a vertex's depth is its level whichever way the level ran.
//
// Each machine runs its part of a level and reports the vertices it
// claimed: top-down, it expands the frontier vertices in its Owned range;
// bottom-up, it marks the whole frontier in the bitmap and pulls over its
// range. On one machine that part is the whole level.
func (k *Kernels) BFS(rt Runtime, g *graph.Graph, source int32) ([]int64, error) {
	n := g.NumVertices()
	depth := sourceDepths(n, source)
	k.changes = mplane.Grow(k.changes, rt.Workers())
	clear(k.changes)
	k.changes[0] = g.OutDegree(source) // the out-arcs each worker claimed in the last level
	k.bits = mplane.Grow(k.bits, (n+63)/64)
	k.bottomUp = 0
	unexplored := int64(g.NumEdges())
	if !g.Directed() {
		unexplored *= 2
	}
	// The closures are bound once and read the level, the direction and
	// the machine's part through the variables they captured, so a search
	// allocates the same whether it runs three levels or three thousand.
	// Their order and sizes put expand and pull, and pageRank's closures
	// after them, on 64-byte boundaries in the test and bench binaries
	// (go1.24, amd64); pageRank's pull loop runs about a tenth slower off
	// one. Time a change here as one to pageRank
	// (BenchmarkRefKernelPageRank/workers=1).
	level, bottomUp := int64(0), false
	var part []int32 // the running machine's part of a top-down level
	first := 0       // the running machine's first vertex
	begin := func() {
		level++
		scout := int64(0)
		for _, arcs := range k.changes {
			scout += int64(arcs)
		}
		clear(k.changes)
		if bottomUp {
			bottomUp = int64(len(k.frontier))*bfsBeta >= int64(n)
		} else {
			bottomUp = scout*bfsAlpha > unexplored
		}
		unexplored -= scout
		if bottomUp {
			k.bottomUp++
		}
	}
	mark := func(_, lo, hi int) { bfsMarkRange(k.bits, k.frontier[lo:hi]) }
	pull := func(w, lo, hi int, out []int32) []int32 {
		out = bfsPullRange(g, depth, k.bits, level, first+lo, first+hi, out)
		k.changes[w] += outArcs(g, out)
		return out
	}
	expand := func(w, lo, hi int, out []int32) []int32 {
		out = BFSExpand(g, depth, part[lo:hi], level, out)
		k.changes[w] += outArcs(g, out)
		return out
	}
	step := func(lo, hi int, out []int32) []int32 {
		if !bottomUp {
			part, _ = k.ownedFrontier(lo, hi, n, nil)
			return rt.Collect(len(part), out, expand)
		}
		clear(k.bits)
		rt.Chunks(len(k.frontier), mark)
		first = lo
		return rt.Collect(hi-lo, out, pull)
	}
	if err := k.frontierRounds(rt, source, begin, step); err != nil {
		return nil, err
	}
	return depth, nil
}

// BottomUpLevels is the number of levels the last BFS ran bottom-up.
func (k *Kernels) BottomUpLevels() int { return k.bottomUp }

// PageRank is the specification's fixed-iteration synchronous PageRank,
// one round per iteration: a pass over vertex chunks computes every
// vertex's contribution, then a pull over in-edges computes the next
// ranks of the running machine's Owned range, which it reports. The
// dangling mass is folded from the job's ascending list of dangling
// vertices, gathered in the first round, through par.SumBlockedAt:
// RefPageRank's block tree, so the ranks are RefPageRank's bits.
//
// Every machine computes the whole contribution vector and the dangling
// mass on its own threads, replicated, so an iteration needs no second
// round: pushpull's model. A machine must not read a contribution only a
// later machine of the round would compute.
func (k *Kernels) PageRank(rt Runtime, g *graph.Graph, iterations int, damping float64) ([]float64, error) {
	return k.pageRank(rt, g, iterations, damping, false)
}

// ApplyGatherPageRank is PageRank in two rounds per iteration, spmv's
// model: the apply round computes the running machine's Owned slice of
// the contribution vector and reports it, the slice the machine
// allgathers; the gather round folds the dangling mass and pulls the
// machine's ranks, reporting nothing. Its ranks are PageRank's bits.
func (k *Kernels) ApplyGatherPageRank(rt Runtime, g *graph.Graph, iterations int, damping float64) ([]float64, error) {
	return k.pageRank(rt, g, iterations, damping, true)
}

// pageRank is PageRank's loop, in one round per iteration or, with apply,
// in two.
func (k *Kernels) pageRank(rt Runtime, g *graph.Graph, iterations int, damping float64, apply bool) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	// The ranks alternate between the output and a pooled array; contrib
	// is rank[v]/outdeg(v), recomputed per iteration. Every iteration
	// writes both pooled arrays in full before it reads them.
	out := make([]float64, n)
	k.ranks = mplane.Grow(k.ranks, n)
	k.contrib = mplane.Grow(k.contrib, n)
	rank, next, contrib := out, k.ranks, k.contrib
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	sinks := func(_, lo, hi int, out []int32) []int32 {
		for v := int32(lo); v < int32(hi); v++ {
			if g.OutDegree(v) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	// The passes over the running machine's range [first, end) offset
	// their chunks through thin wrappers, leaving the step closures as
	// they are on one machine. pull's inlined inner loop is where a job
	// spends its time, and its speed moves by about a tenth with the
	// loop's 64-byte code alignment: a change to these closures should be
	// timed (BenchmarkRefKernelPageRank/workers=1) against its parent.
	it, first, end := 0, 0, 0
	contribute := func(_, lo, hi int) { prContribRange(g, rank, contrib, lo, hi) }
	contributeOwned := func(w, lo, hi int) { contribute(w, first+lo, first+hi) }
	var base float64
	pull := func(_, lo, hi int) { prPullRange(g, contrib, next, base, damping, lo, hi) }
	pullOwned := func(w, lo, hi int) { pull(w, first+lo, first+hi) }
	// pullRanks folds the dangling mass, from the dangling vertices it
	// gathers in the job's first iteration (the workers' lists join in
	// worker order, which is vertex order), and pulls the machine's ranks.
	pullRanks := func() {
		if it == 0 {
			k.dangling = rt.Collect(n, k.dangling, sinks)
		}
		base = (1-damping)*inv + damping*par.SumBlockedAt(rank, k.dangling)*inv
		first, end = rt.Owned()
		rt.Chunks(end-first, pullOwned)
	}
	var rounds []func()
	if apply {
		rounds = []func(){func() {
			first, end = rt.Owned()
			rt.Chunks(end-first, contributeOwned)
			rt.Report(end-first, nil)
		}, pullRanks}
	} else {
		rounds = []func(){func() {
			rt.Chunks(n, contribute)
			pullRanks()
			rt.Report(end-first, nil)
		}}
	}
	for ; it < iterations; it++ {
		for _, round := range rounds {
			if err := rt.Round(round); err != nil {
				return nil, err
			}
		}
		rank, next = next, rank
	}
	if iterations%2 == 1 { // the last iteration wrote the pooled array
		copy(out, rank)
	}
	return out, nil
}

// Afforest's sampling: every vertex first links to this many of its
// out-neighbors, and the roots of this many evenly spaced vertices elect
// the giant tree whose vertices the finishing pass skips.
const (
	wccLinkNeighbors = 2
	wccSamples       = 1024
)

// WCC is Afforest (Sutton et al., IPDPS'18), a concurrent lock-free
// union-find over vertex chunks in one round: every vertex links to its
// first wccLinkNeighbors out-neighbors (wccLinkRange), the trees are
// compressed (wccCompressRange), the most frequent root of a fixed sample
// names the giant tree (wccGiantRoot), and only the vertices outside it
// unite their remaining arcs (wccFinishRange), so the giant component's
// arcs are mostly never touched. A labeling pass follows. Roots are
// always the smallest internal index of their component (links go
// strictly from larger to smaller roots), so the output is the canonical
// smallest-external-identifier labeling whatever the interleaving.
func (k *Kernels) WCC(rt Runtime, g *graph.Graph) ([]int64, error) {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	out := make([]int64, n)
	if err := rt.Round(func() {
		giant := wccSample(rt, g, parent)
		rt.Chunks(n, func(_, lo, hi int) { wccFinishRange(g, parent, giant, lo, hi) })
		rt.Chunks(n, func(_, lo, hi int) { wccLabelRange(g, parent, out, lo, hi) })
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// wccSample runs Afforest's sampling steps inside a round, on a parent
// array of singletons: the links, the compression and the election. It
// returns the giant tree's root, the parent of every vertex in the tree.
func wccSample(rt Runtime, g *graph.Graph, parent []int32) int32 {
	n := len(parent)
	rt.Chunks(n, func(_, lo, hi int) { wccLinkRange(g, parent, lo, hi) })
	rt.Chunks(n, func(_, lo, hi int) { wccCompressRange(parent, lo, hi) })
	return wccGiantRoot(parent)
}

// MinLabelWCC is WCC by min-label propagation, the variant the range
// engines run: in every round each machine pulls, for every vertex it
// owns, the least label over the vertex and its neighbors in both
// directions from the previous round's labels (wccMinRange), and reports
// its owned count, the label slice it allgathers. Labels start as internal
// indices and the loop stops after the first round in which none moved, so
// every component ends at its smallest index: RefWCC's labeling.
func (k *Kernels) MinLabelWCC(rt Runtime, g *graph.Graph) ([]int64, error) {
	n := g.NumVertices()
	k.changes = mplane.Grow(k.changes, rt.Workers())
	k.labels = mplane.Grow(k.labels, n)
	k.next = mplane.Grow(k.next, n)
	labels, next := k.labels, k.next
	for v := range labels {
		labels[v] = int32(v)
	}
	base, moved := 0, false
	pull := func(w, lo, hi int) { k.changes[w] = wccMinRange(g, labels, next, base+lo, base+hi) }
	round := func() {
		var end int
		base, end = rt.Owned()
		clear(k.changes)
		rt.Chunks(end-base, pull)
		for _, c := range k.changes {
			moved = moved || c > 0
		}
		rt.Report(end-base, nil)
	}
	for moved = true; moved; labels, next = next, labels {
		moved = false
		if err := rt.Round(round); err != nil {
			return nil, err
		}
	}
	out := make([]int64, n)
	for v, lab := range labels {
		out[v] = g.VertexID(lab)
	}
	return out, nil
}

// CDLP is the specification's synchronous label propagation, one round per
// iteration, frontier-based on the dense label domain. Labels are internal
// vertex indices throughout (translated to external IDs once at the end;
// the builder assigns indices in ascending ID order, so the argmax is
// isomorphic — see mplane.LabelCounts). Each round recomputes only the
// vertices whose neighborhood changed last round (cdlpFrontierRange; round
// zero is cdlpInitRange's closed form) and stamps the next round's
// frontier from the changed set (cdlpScatterRange), and the loop stops
// early at a fixpoint — all bit-identical to the dense rounds, since a
// skipped vertex folds an unchanged multiset and a converged round
// persists forever. Each worker folds into its own counter and counts its
// own changed vertices.
//
// Every machine folds and stamps its owned range and reports its changed
// count. Machines run in turn within a round, so an earlier machine may
// stamp round it+1 onto a vertex a later one has yet to fold in round it:
// the fold takes any stamp at or past its round as dirty, which only
// over-marks. A machine whose changed set is too large skips its sweep,
// and the next round runs dense everywhere; on one machine both rules are
// the single-range ones.
func (k *Kernels) CDLP(rt Runtime, g *graph.Graph, iterations int) ([]int64, error) {
	n := g.NumVertices()
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	p := rt.Workers()
	k.counts.Ensure(p, n)
	k.changes = mplane.Grow(k.changes, p)
	k.labels = mplane.Grow(k.labels, n)
	k.next = mplane.Grow(k.next, n)
	labels, next := k.labels, k.next
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	k.dirty = mplane.GrowZero(k.dirty, n) // stale stamps from a previous job must not leak in
	k.changed = mplane.Grow(k.changed, n)
	var (
		it    int
		base  int      // first vertex of the running machine's range
		dirty []uint32 // nil: every vertex is dirty (round zero, dense rounds)
	)
	fold := func(w, lo, hi int) {
		if it == 0 {
			k.changes[w] = cdlpInitRange(g, next, k.changed, base+lo, base+hi)
		} else {
			k.changes[w] = cdlpFrontierRange(g, labels, next, base+lo, base+hi, k.counts.At(w), dirty, uint32(it), k.changed)
		}
	}
	stamp := func(_, lo, hi int) {
		cdlpScatterRange(g, k.changed, k.dirty, uint32(it+1), base+lo, base+hi)
	}
	total, sparse := 0, false
	round := func() {
		var end int
		base, end = rt.Owned()
		clear(k.changes)
		rt.Chunks(end-base, fold)
		updates := 0
		for _, c := range k.changes {
			updates += c
		}
		total += updates
		rt.Report(updates, nil)
		if updates == 0 {
			return
		}
		// While the changed set is large its neighborhoods blanket the
		// graph: skip the marking sweep and run the next round dense
		// (over-marking is exact; see CDLPScatterWorthwhile).
		if CDLPScatterWorthwhile(updates, n) && it+1 < iterations {
			rt.Chunks(end-base, stamp)
		} else {
			sparse = false
		}
	}
	for ; it < iterations; it++ {
		total, sparse = 0, true
		if err := rt.Round(round); err != nil {
			return nil, err
		}
		labels, next = next, labels
		if total == 0 {
			break
		}
		dirty = nil
		if sparse {
			dirty = k.dirty
		}
	}
	for v := 0; v < n; v++ {
		out[v] = g.VertexID(labels[v])
	}
	return out, nil
}

// LCC is the degree-ordered triangle count of o (see LCCOrientation) in one
// round: every worker counts the chunk of lowest corners o.Bounds cut for
// it, by probe work rather than vertex count, into its own numerators,
// then vertex chunks fold the numerators in worker order and divide
// exactly as RefLCC divides. Integer addition is associative, so the
// coefficients are RefLCC's bits at every worker count.
func (k *Kernels) LCC(rt Runtime, o *LCCOrientation) ([]float64, error) {
	n := len(o.deg)
	p := rt.Workers()
	bounds := o.Bounds(p)
	for len(k.marks) < p {
		k.count = append(k.count, nil)
		k.marks = append(k.marks, nil)
	}
	// Mark arrays outlive the job (they are all-zero again when it ends,
	// over their whole capacity), so they are allocated outside the round,
	// like the orientation, and only when n exceeds every earlier n.
	for w, marks := range k.marks[:p] {
		k.marks[w] = mplane.Grow(marks, n)
	}
	count := k.count[:p]
	out := make([]float64, n)
	if err := rt.Round(func() {
		rt.Chunks(p, func(w, lo, hi int) {
			count[w] = mplane.GrowZero(count[w], n)
			for c := lo; c < hi; c++ {
				o.CountRange(count[w], k.marks[w], bounds[c], bounds[c+1])
			}
		})
		rt.Chunks(n, func(_, lo, hi int) {
			total := count[0]
			for _, c := range count[1:] {
				for v := lo; v < hi; v++ {
					total[v] += c[v]
				}
			}
			o.ratioRange(total, out, lo, hi)
		})
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SSSP is deterministic two-level delta-stepping (see sssp.go): one round
// computes the bucket width Δ, the mean edge weight, then each bucket is
// one round that drains the bucket's ssspSubBuckets sub-buckets in
// ascending order, each by relax phases over its frontier, with the
// sequential bucket bookkeeping between phases. Every phase relaxes from
// the distances its frontier had when the phase began, so what a phase
// discovers does not depend on the schedule; and the sequence of buckets,
// and with it the round count, is fixed by the graph: one round per Δ
// bucket that holds a final distance. The distances are the unique
// fixpoint of edge relaxation, RefSSSP's bits.
func (k *Kernels) SSSP(rt Runtime, g *graph.Graph, source int32) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	arcs := int64(g.NumEdges())
	if !g.Directed() {
		arcs *= 2
	}
	weights := func(lo, hi int) float64 { return ssspWeightRange(g, lo, hi) }
	var delta float64
	if err := rt.Round(func() {
		var total float64
		total, k.sums = par.SumBlocks(n, ssspWeightBlock, rt.Chunks, k.sums, weights)
		if arcs > 0 {
			delta = total / float64(arcs)
		}
	}); err != nil {
		return nil, err
	}

	b := &k.buckets
	b.Init(g, source, delta)
	var (
		frontier []int32
		starts   []float64
		claimed  []uint32
		stamp    uint32
	)
	relax := func(_, lo, hi int, out []int32) []int32 {
		return SSSPRelaxRange(g, b.Bits, frontier[lo:hi], starts[lo:hi], claimed, stamp, out)
	}
	bucket := func() {
		for {
			if frontier, starts, claimed, stamp = b.BeginPhase(); len(frontier) == 0 {
				if !b.NextSub() {
					return
				}
				continue
			}
			k.frontier = rt.Collect(len(frontier), k.frontier, relax)
			b.Absorb(k.frontier)
		}
	}
	for {
		if err := rt.Round(bucket); err != nil {
			return nil, err
		}
		if !b.Advance() {
			return b.Distances(nil), nil
		}
	}
}

// PushBFS is the range engines' top-down BFS, one round per level
// (frontierRounds): each machine expands the frontier vertices it owns
// and reports the vertices it claimed, for the engine to route.
func (k *Kernels) PushBFS(rt Runtime, g *graph.Graph, source int32) ([]int64, error) {
	n := g.NumVertices()
	depth := sourceDepths(n, source)
	level := int64(0)
	var part []int32
	expand := func(_, lo, hi int, out []int32) []int32 { return BFSExpand(g, depth, part[lo:hi], level, out) }
	step := func(lo, hi int, out []int32) []int32 {
		part, _ = k.ownedFrontier(lo, hi, n, nil)
		return rt.Collect(len(part), out, expand)
	}
	if err := k.frontierRounds(rt, source, func() { level++ }, step); err != nil {
		return nil, err
	}
	return depth, nil
}

// BellmanFordSSSP is the range engines' SSSP, synchronous Bellman-Ford
// with one round per frontier (frontierRounds): each machine relaxes the
// out-edges of the frontier vertices it owns (SSSPRelaxRange) from their
// distances at the round's start and reports the vertices it improved,
// each claimed once per round. What a round discovers, and so the round
// count, depends on the graph and the source alone, and the distances are
// the fixpoint of edge relaxation, RefSSSP's bits.
func (k *Kernels) BellmanFordSSSP(rt Runtime, g *graph.Graph, source int32) ([]float64, error) {
	n := g.NumVertices()
	k.dist = mplane.Grow(k.dist, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range k.dist {
		k.dist[i] = inf
	}
	k.dist[source] = math.Float64bits(0)
	k.claims = mplane.GrowZero(k.claims, n) // stamped per round, cleared per job
	var stamp uint32
	begin := func() {
		stamp++
		k.starts = k.starts[:0]
		for _, v := range k.frontier {
			k.starts = append(k.starts, math.Float64frombits(k.dist[v]))
		}
	}
	var part []int32
	var starts []float64
	relax := func(_, lo, hi int, out []int32) []int32 {
		return SSSPRelaxRange(g, k.dist, part[lo:hi], starts[lo:hi], k.claims, stamp, out)
	}
	step := func(lo, hi int, out []int32) []int32 {
		part, starts = k.ownedFrontier(lo, hi, n, k.starts)
		return rt.Collect(len(part), out, relax)
	}
	if err := k.frontierRounds(rt, source, begin, step); err != nil {
		return nil, err
	}
	dist := make([]float64, n)
	for i, b := range k.dist {
		dist[i] = math.Float64frombits(b)
	}
	return dist, nil
}

// frontierRounds is the machine-frontier loop of BFS, PushBFS and
// BellmanFordSSSP: from the frontier {source}, one round per frontier
// until a round discovers nothing, begin running before each, outside it.
// In a round every machine runs step over its Owned range [lo, hi), which
// returns out extended with the vertices the machine claimed, and reports
// them. A round claims each vertex once, so the machines' claims, in
// machine order, are the next frontier: delivery is uncharged.
func (k *Kernels) frontierRounds(rt Runtime, source int32, begin func(), step func(lo, hi int, out []int32) []int32) error {
	k.frontier = append(k.frontier[:0], source)
	round := func() {
		lo, hi := rt.Owned()
		claimed := step(lo, hi, k.found[len(k.found):]) // into found's spare capacity
		rt.Report(len(claimed), claimed)
		if len(k.found) == 0 {
			k.found = claimed // the first machine's claims, in place
		} else {
			k.found = append(k.found, claimed...)
		}
	}
	for len(k.frontier) > 0 {
		begin()
		k.found = k.found[:0]
		if err := rt.Round(round); err != nil {
			return err
		}
		k.frontier, k.found = k.found, k.frontier
	}
	return nil
}

// ownedFrontier returns the running machine's part of the frontier, the
// vertices in its Owned range [lo, hi) in frontier order, together with
// their entries of starts, a slice parallel to the frontier (nil when
// there is none). A machine that owns all n vertices takes the frontier
// as it is; any other picks its part in one filter pass.
func (k *Kernels) ownedFrontier(lo, hi, n int, starts []float64) ([]int32, []float64) {
	if lo == 0 && hi == n {
		return k.frontier, starts
	}
	k.part, k.pstarts = k.part[:0], k.pstarts[:0]
	for i, v := range k.frontier {
		if int(v) >= lo && int(v) < hi {
			k.part = append(k.part, v)
			if starts != nil {
				k.pstarts = append(k.pstarts, starts[i])
			}
		}
	}
	return k.part, k.pstarts
}
