package gas

import (
	"context"
	"math"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// gasScratch is the engine's pooled working state: the flat gather
// buffer laid out by the upload's static CSR offsets (CDLP's labels,
// LCC's neighbourhoods), the per-vertex write cursors, the dense label
// histogram, LCC's per-thread neighbourhood marks, the CDLP frontier
// flags, the per-thread round partials, and the traversal plane (SSSP's
// distance bits and claim stamps, the per-machine discovery lists, the
// frontier and its round-start distances). Checked out of the engine's
// pool per Execute, so steady-state iterations allocate nothing;
// every array is sized or stamped by the job that reads it.
type gasScratch struct {
	labelBuf []int32 // gathered neighbor labels (internal-index domain) or neighbours
	labels   []int32 // CDLP working labels
	pos      []int32
	counts   mplane.WorkerCounts    // per-thread apply counters
	marks    []algorithms.HoodMarks // per-thread LCC neighbourhood marks
	dirty    []bool
	changed  []bool
	// Per-round thread partials, pooled so rounds allocate nothing.
	wireParts  []int64
	bcastParts []int64
	countParts []int
	rankParts  []float64

	bits    []uint64  // sssp tentative distances (float64 bits)
	claimed []uint32  // per-round discovery claims
	disc    [][]int32 // per-machine discovered lists
	front   []int32   // global frontier
	starts  []float64 // front's distances when the round began
}

func acquireScratch(u *uploaded) *gasScratch {
	return mplane.Acquire(u.Scratch(), func() *gasScratch {
		return &gasScratch{}
	})
}

// prGAS runs PageRank as dense synchronous GAS iterations: the gather
// round folds contrib over each machine's local in-rows, the apply round
// updates mastered vertices and recomputes contributions for the
// broadcast back to mirrors. The round bodies are bound once and the
// dangling partials pooled, so an iteration allocates nothing.
func prGAS(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	sc.rankParts = mplane.Grow(sc.rankParts, cl.Threads())
	parts := sc.rankParts
	inv := 1.0 / float64(n)
	rank := make([]float64, n)
	contrib := make([]float64, n)
	acc := make([]float64, n)
	var dangling float64
	//graphalint:orderfree sequential single pass in vertex index order
	for v := int32(0); v < int32(n); v++ {
		rank[v] = inv
		if deg := g.OutDegree(v); deg > 0 {
			contrib[v] = inv / float64(deg)
		} else {
			dangling += inv
		}
	}
	danglingParts := make([]float64, cl.Machines())
	var (
		lg    *graph.Graph // the machine whose gather runs
		verts []int32      // the vertices mastered by the machine whose apply runs
		base  float64
	)
	gatherChunk := func(lo, hi int) {
		//graphalint:orderfree one thread folds each in-row in ascending source order; machines add their row sums sequentially in machine order (RunRound contract)
		for v := int32(lo); v < int32(hi); v++ {
			if ns := lg.InNeighbors(v); len(ns) > 0 {
				sum := 0.0
				for _, src := range ns {
					sum += contrib[src]
				}
				acc[v] += sum // sequential machines: no cross-machine race
			}
		}
	}
	gather := func(mach int, th *cluster.Threads) error {
		lg = u.part.Local[mach]
		th.Chunks(n, gatherChunk)
		mirrorGatherBytes(u, mach, 8)
		return nil
	}
	applyChunk := func(w, lo, hi int) {
		var d float64
		//graphalint:orderfree per-chunk fold in vertex order over a fixed [lo, hi) chunk
		for _, v := range verts[lo:hi] {
			nv := base + damping*acc[v]
			rank[v] = nv
			acc[v] = 0
			if deg := g.OutDegree(v); deg > 0 {
				contrib[v] = nv / float64(deg)
			} else {
				d += nv
			}
		}
		parts[w] = d
	}
	// Apply + scatter: masters update their vertices, recompute
	// contributions and dangling mass, and broadcast to mirrors.
	apply := func(mach int, th *cluster.Threads) error {
		verts = u.masterVerts[mach]
		clear(parts)
		th.ChunksIndexed(len(verts), applyChunk)
		var d float64
		//graphalint:orderfree chunk partials folded in worker-index order; geometry fixed by the simulated thread config, not host parallelism
		for _, x := range parts {
			d += x
		}
		danglingParts[mach] = d
		cl.Send(mach, (mach+1)%cl.Machines(), u.bcastCount[mach]*8)
		return nil
	}
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(gather); err != nil {
			return nil, err
		}
		base = (1-damping)*inv + damping*dangling*inv
		if err := cl.RunRound(apply); err != nil {
			return nil, err
		}
		dangling = 0
		//graphalint:orderfree partials folded in machine-index order; machine count is deployment config, not host parallelism
		for _, d := range danglingParts {
			dangling += d
		}
	}
	return rank, nil
}

// mirrorGatherBytes accounts the per-iteration mirror-to-master partials
// for dense gathers.
//
//graphalint:noalloc
func mirrorGatherBytes(u *uploaded, mach int, valueBytes int64) {
	u.Cl.Send(mach, (mach+1)%u.Cl.Machines(), u.mirrorCount[mach]*valueBytes)
}

// frontierRounds is the traversal loop of bfsGAS and ssspGAS: from the
// frontier {source}, one round per frontier until a round discovers
// nothing, begin running before each. In a round every machine runs
// expand over worker chunks of the whole frontier, positions [lo, hi) of
// sc.front, against its local graph, and sends each vertex it claimed
// to the vertex's master, unless it is that master, and to every other
// replica, at each bytes a copy. The next frontier is the machines'
// claims in machine order.
func (u *uploaded) frontierRounds(ctx context.Context, sc *gasScratch, source int32, each int64, begin func(), expand func(lg *graph.Graph, lo, hi int, out []int32) []int32) error {
	cl := u.Cl
	sc.disc = mplane.Grow(sc.disc, cl.Machines()) // Collect refills each list
	sc.front = append(sc.front[:0], source)
	var lg *graph.Graph // the machine whose round runs
	chunk := func(_, lo, hi int, out []int32) []int32 { return expand(lg, lo, hi, out) }
	round := func(mach int, th *cluster.Threads) error {
		lg = u.part.Local[mach]
		sc.disc[mach] = th.Collect(len(sc.front), sc.disc[mach], chunk)
		var wire int64
		for _, d := range sc.disc[mach] {
			if int(u.part.Master[d]) != mach {
				wire += each
			}
			wire += int64(u.replicaCount[d]-1) * each
		}
		cl.Send(mach, (mach+1)%cl.Machines(), wire)
		return nil
	}
	for len(sc.front) > 0 {
		if err := platform.CheckContext(ctx); err != nil {
			return err
		}
		begin()
		if err := cl.RunRound(round); err != nil {
			return err
		}
		sc.front = sc.front[:0]
		for _, list := range sc.disc {
			sc.front = append(sc.front, list...)
		}
	}
	return nil
}

// bfsGAS expands the frontier level by level (algorithms.BFSExpand over
// each machine's local graph); newly discovered vertices are synchronized
// master-to-mirror before the next level.
func bfsGAS(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	depth := make([]int64, u.G.NumVertices())
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	level := int64(0)
	err := u.frontierRounds(ctx, sc, source, 12, func() { level++ }, func(lg *graph.Graph, lo, hi int, out []int32) []int32 {
		return algorithms.BFSExpand(lg, depth, sc.front[lo:hi], level, out)
	})
	if err != nil {
		return nil, err
	}
	return depth, nil
}

// wccGAS iterates a dense min-label gather over both arc directions until
// a fixpoint.
func wccGAS(ctx context.Context, u *uploaded) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	sc.bcastParts = mplane.Grow(sc.bcastParts, cl.Threads())
	sc.countParts = mplane.Grow(sc.countParts, cl.Threads())
	bcastParts, countParts := sc.bcastParts, sc.countParts
	const maxLabel = int32(math.MaxInt32)
	labels := make([]int32, n)
	acc := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
		acc[i] = maxLabel
	}
	var (
		lg      *graph.Graph // the machine whose gather runs
		verts   []int32      // the vertices mastered by the machine whose apply runs
		changed int
	)
	// Gather: min over in-arcs and, because components are weak, over
	// out-arcs.
	gatherChunk := func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			best := acc[v]
			for _, src := range lg.InNeighbors(v) {
				best = min(best, labels[src])
			}
			if g.Directed() {
				for _, dst := range lg.OutNeighbors(v) {
					best = min(best, labels[dst])
				}
			}
			acc[v] = best
		}
	}
	gather := func(mach int, th *cluster.Threads) error {
		lg = u.part.Local[mach]
		th.Chunks(n, gatherChunk)
		mirrorGatherBytes(u, mach, 4)
		return nil
	}
	applyChunk := func(w, lo, hi int) {
		cnt := 0
		var bc int64
		for _, v := range verts[lo:hi] {
			if acc[v] < labels[v] {
				labels[v] = acc[v]
				cnt++
				bc += int64(u.replicaCount[v]-1) * 8
			}
			acc[v] = maxLabel
		}
		countParts[w], bcastParts[w] = cnt, bc
	}
	// Apply on masters; broadcast changed labels.
	apply := func(mach int, th *cluster.Threads) error {
		verts = u.masterVerts[mach]
		clear(bcastParts)
		clear(countParts)
		th.ChunksIndexed(len(verts), applyChunk)
		var bcast int64
		for w, b := range bcastParts {
			bcast += b
			changed += countParts[w]
		}
		cl.Send(mach, (mach+1)%cl.Machines(), bcast)
		return nil
	}
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(gather); err != nil {
			return nil, err
		}
		changed = 0
		if err := cl.RunRound(apply); err != nil {
			return nil, err
		}
		if changed == 0 {
			break
		}
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		out[v] = g.VertexID(labels[v])
	}
	return out, nil
}

// cdlpGAS gathers neighbor labels (labels cannot be pre-combined) into
// the flat label buffer laid out by the upload's static CSR offsets, then
// applies the deterministic mode on masters with the dense-domain counter
// (labels are internal vertex indices throughout, translated to external
// IDs once at the end — the argmax is isomorphic, see mplane.LabelCounts;
// wire bytes still model 8-byte external labels). Per-vertex write
// cursors replace the seed's per-vertex append lists; the apply phase
// rewinds each master's cursor for the next iteration. On undirected
// graphs the first apply needs no counter at all: identity labels make
// every gathered label distinct, so the mode is the minimum of the
// segment.
//
// The iterations are frontier-based: after the first, only vertices whose
// neighborhood changed last round are gathered and applied — a skipped
// vertex would fold the same multiset and land on the same label (the
// argmax depends only on the multiset) — so both the gather traffic and
// the master broadcast shrink to the changed set (mirror updates are
// charged per changed replica, as in wccGAS, instead of the dense
// bcastCount), and the loop ends early at a fixpoint. The dirty flags are
// rebuilt between rounds from the changed set by rescanning the graph's
// rows, which the machines' local rows partition — uncharged harness
// bookkeeping, like pregel's active-list rebuild; the modeled
// frontier-maintenance cost is the gated gather/broadcast traffic itself.
// While the changed set still blankets the graph the rebuild is skipped
// and the next round runs dense (algorithms.CDLPScatterWorthwhile;
// over-marking is exact).
func cdlpGAS(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	sc.counts.Ensure(cl.Threads(), n)
	sc.labels = mplane.Grow(sc.labels, n)
	labels := sc.labels
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	sc.labelBuf = mplane.Grow(sc.labelBuf, int(u.labelOff[n]))
	sc.pos = mplane.Grow(sc.pos, n)
	copy(sc.pos, u.labelOff[:n])
	sc.dirty = mplane.Grow(sc.dirty, n)
	sc.changed = mplane.Grow(sc.changed, n)
	tc := cl.Threads()
	sc.wireParts = mplane.Grow(sc.wireParts, tc)
	sc.bcastParts = mplane.Grow(sc.bcastParts, tc)
	sc.countParts = mplane.Grow(sc.countParts, tc)
	labelBuf, pos := sc.labelBuf, sc.pos
	dirty, changed := sc.dirty, sc.changed
	wireParts, bcastParts, countParts := sc.wireParts, sc.bcastParts, sc.countParts
	var (
		dense = true // round zero treats every vertex as dirty
		first bool
		mach  int          // the machine whose round the bodies below run in
		lg    *graph.Graph // its local graph
		verts []int32
	)
	// A vertex gathers the labels of its local in-neighbors and, in
	// directed graphs, out-neighbors; only the in-neighbors' labels are
	// charged as wire bytes.
	gatherChunk := func(w, lo, hi int) {
		var bytes int64
		for v := int32(lo); v < int32(hi); v++ {
			if !dense && !dirty[v] {
				continue
			}
			p := pos[v]
			in := lg.InNeighbors(v)
			for _, src := range in {
				labelBuf[p] = labels[src]
				p++
			}
			if g.Directed() {
				for _, dst := range lg.OutNeighbors(v) {
					labelBuf[p] = labels[dst]
					p++
				}
			}
			pos[v] = p
			if int(u.part.Master[v]) != mach {
				bytes += int64(len(in)) * 8
			}
		}
		wireParts[w] = bytes
	}
	apply := func(w, lo, hi int) {
		var bc int64
		cnt := 0
		counts := sc.counts.At(w)
		for _, v := range verts[lo:hi] {
			if !dense && !dirty[v] {
				changed[v] = false
				continue
			}
			changed[v] = false
			if seg := labelBuf[u.labelOff[v]:pos[v]]; len(seg) > 0 {
				var nl int32
				if first && !g.Directed() {
					// Identity labels are all distinct, so the
					// mode is the segment minimum.
					nl = slices.Min(seg)
				} else {
					counts.AddAll(seg)
					nl = counts.BestAndReset(labels[v])
				}
				if nl != labels[v] {
					labels[v] = nl
					changed[v] = true
					cnt++
					bc += int64(u.replicaCount[v]-1) * 8
				}
				pos[v] = u.labelOff[v]
			}
		}
		bcastParts[w] = bc
		countParts[w] = cnt
	}
	gather := func(m int, th *cluster.Threads) error {
		mach, lg = m, u.part.Local[m]
		clear(wireParts)
		th.ChunksIndexed(n, gatherChunk)
		var wire int64
		for _, b := range wireParts {
			wire += b
		}
		cl.Send(m, (m+1)%cl.Machines(), wire)
		return nil
	}
	total := 0
	applyRound := func(m int, th *cluster.Threads) error {
		verts = u.masterVerts[m]
		clear(bcastParts)
		clear(countParts)
		th.ChunksIndexed(len(verts), apply)
		var bcast int64
		for _, b := range bcastParts {
			bcast += b
		}
		for _, c := range countParts {
			total += c
		}
		cl.Send(m, (m+1)%cl.Machines(), bcast)
		return nil
	}
	isChanged := func(v int32) bool { return changed[v] }
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		first = it == 0
		if err := cl.RunRound(gather); err != nil {
			return nil, err
		}
		total = 0
		if err := cl.RunRound(applyRound); err != nil {
			return nil, err
		}
		if total == 0 {
			break
		}
		dense = !algorithms.CDLPScatterWorthwhile(total, n)
		if !dense && it+1 < iterations {
			// Uncharged frontier rebuild: a vertex is dirty next round iff
			// one of the endpoints its gather reads from changed this round.
			for v := int32(0); v < int32(n); v++ {
				dirty[v] = slices.ContainsFunc(g.InNeighbors(v), isChanged) ||
					g.Directed() && slices.ContainsFunc(g.OutNeighbors(v), isChanged)
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		out[v] = g.VertexID(labels[v])
	}
	return out, nil
}

// lccGAS gathers each vertex's neighborhood from every machine's local
// rows into the pooled buffer at the CDLP gather's offsets, which size
// exactly these neighbors; masters sort and deduplicate their segments in
// place, then count each neighbor's adjacency entries inside the marked
// neighborhood, accounting remote adjacency fetches as traffic from the
// owning replicas.
func lccGAS(ctx context.Context, u *uploaded) ([]float64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	sc.labelBuf = mplane.Grow(sc.labelBuf, int(u.labelOff[n]))
	sc.pos = mplane.Grow(sc.pos, n)
	copy(sc.pos, u.labelOff[:n])
	sc.wireParts = mplane.Grow(sc.wireParts, cl.Threads())
	sc.marks = mplane.Grow(sc.marks, cl.Threads())
	// v's neighborhood is hoods[labelOff[v]:pos[v]].
	hoods, pos, fetchParts := sc.labelBuf, sc.pos, sc.wireParts
	out := make([]float64, n)
	var (
		mach  int          // the machine whose round the bodies below run in
		lg    *graph.Graph // its local graph
		verts []int32      // the vertices it masters
	)
	// Gather: collect neighbor candidates from both arc endpoints.
	gatherChunk := func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			p := pos[v] + int32(copy(hoods[pos[v]:], lg.InNeighbors(v)))
			if g.Directed() {
				p += int32(copy(hoods[p:], lg.OutNeighbors(v)))
			}
			pos[v] = p
		}
	}
	gather := func(m int, th *cluster.Threads) error {
		lg = u.part.Local[m]
		th.Chunks(n, gatherChunk)
		mirrorGatherBytes(u, m, 8)
		return nil
	}
	// Normalize: sort each mastered neighborhood and drop duplicates and
	// the vertex itself.
	normalizeChunk := func(lo, hi int) {
		for _, v := range verts[lo:hi] {
			h := hoods[u.labelOff[v]:pos[v]]
			slices.Sort(h)
			k := 0
			for _, x := range h {
				if x != v && (k == 0 || h[k-1] != x) {
					h[k] = x
					k++
				}
			}
			pos[v] = u.labelOff[v] + int32(k)
		}
	}
	normalize := func(m int, th *cluster.Threads) error {
		verts = u.masterVerts[m]
		th.Chunks(len(verts), normalizeChunk)
		return nil
	}
	// Intersect: count arcs among neighbors, each against the thread
	// slot's marks of the neighborhood.
	intersectChunk := func(w, lo, hi int) {
		var fetch int64
		marks := &sc.marks[w]
		for _, v := range verts[lo:hi] {
			hood := hoods[u.labelOff[v]:pos[v]]
			d := len(hood)
			if d < 2 {
				continue
			}
			marks.Mark(n, hood)
			arcs := 0
			for _, nb := range hood {
				if int(u.part.Master[nb]) != mach {
					fetch += int64(g.OutDegree(nb)) * 4
				}
				arcs += marks.Count(g.OutNeighbors(nb))
			}
			out[v] = float64(arcs) / (float64(d) * float64(d-1))
		}
		fetchParts[w] = fetch
	}
	intersect := func(m int, th *cluster.Threads) error {
		mach, verts = m, u.masterVerts[m]
		clear(fetchParts)
		th.ChunksIndexed(len(verts), intersectChunk)
		var fetch int64
		for _, f := range fetchParts {
			fetch += f
		}
		cl.Send((m+1)%cl.Machines(), m, fetch)
		return nil
	}
	if err := cl.RunRound(gather); err != nil {
		return nil, err
	}
	if err := cl.RunRound(normalize); err != nil {
		return nil, err
	}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	if err := cl.RunRound(intersect); err != nil {
		return nil, err
	}
	return out, nil
}

// ssspGAS runs synchronous Bellman-Ford phases on the frontier loop of
// bfsGAS: every machine relaxes its local out-arcs of every frontier
// vertex (algorithms.SSSPRelaxRange over its local graph) from the
// distance the vertex had when the round began, with an atomic min on the
// distance bits, and synchronizes its claims like bfsGAS. All working
// state — distance bits, per-round claim stamps, per-machine discovery
// lists, the frontier and its round-start distances — comes from the
// pooled scratch, so steady-state runs allocate only the output array.
func ssspGAS(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	n := u.G.NumVertices()
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	sc.bits = mplane.Grow(sc.bits, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range sc.bits {
		sc.bits[i] = inf
	}
	sc.bits[source] = math.Float64bits(0)
	sc.claimed = mplane.GrowZero(sc.claimed, n) // stamped per round, cleared per job
	var stamp uint32
	begin := func() {
		stamp++
		sc.starts = sc.starts[:0]
		for _, v := range sc.front {
			sc.starts = append(sc.starts, math.Float64frombits(sc.bits[v]))
		}
	}
	relax := func(lg *graph.Graph, lo, hi int, out []int32) []int32 {
		return algorithms.SSSPRelaxRange(lg, sc.bits, sc.front[lo:hi], sc.starts[lo:hi], sc.claimed, stamp, out)
	}
	if err := u.frontierRounds(ctx, sc, source, 16, begin, relax); err != nil {
		return nil, err
	}
	dist := make([]float64, n)
	for i, b := range sc.bits {
		dist[i] = math.Float64frombits(b)
	}
	return dist, nil
}
