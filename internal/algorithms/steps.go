package algorithms

import (
	"math"
	"slices"
	"sync/atomic"

	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
)

// Kernel steps: the per-chunk bodies of the round loops in kernels.go;
// those the other engines reuse under their own chunking are exported.
//
// Every step is safe to run concurrently on disjoint [lo, hi) ranges of
// the same output arrays. Steps that may touch shared state across chunks
// (BFSExpand's depth claims, bfsMarkRange's bits, the WCC union-find
// links, SSSPRelaxRange's distance minima and claims) use atomics;
// everything else writes only inside its own range or into a caller-owned
// per-worker buffer.

// BFSExpand scans a slice of the current BFS frontier, claims every
// still-unreached out-neighbor at the given level and returns out extended
// with the claimed vertices in scan order. Claims are atomic
// compare-and-swaps on the depth array, so concurrent chunks never claim a
// vertex twice, and the depth value written is the same regardless of
// which chunk wins. The cheap atomic load filters out already-visited
// neighbors (the vast majority of edge traversals) before paying for a
// CAS, so the per-edge cost stays close to the sequential kernel's plain
// compare.
//
//graphalint:noalloc appends extend the caller's pooled out buffer in place
func BFSExpand(g *graph.Graph, depth []int64, frontier []int32, level int64, out []int32) []int32 {
	for _, v := range frontier {
		for _, u := range g.OutNeighbors(v) {
			if atomic.LoadInt64(&depth[u]) == Unreachable &&
				atomic.CompareAndSwapInt64(&depth[u], Unreachable, level) {
				out = append(out, u)
			}
		}
	}
	return out
}

// bfsPullRange is a bottom-up BFS level over the vertices [lo, hi): every
// still-unreached vertex scans its in-neighbors for one in the frontier
// bitmap (bit u set when u is at depth level-1) and, at the first it
// finds, takes the given level. It returns out extended with the vertices
// it reached, in vertex order. A vertex's depth is read and written only
// by the chunk holding the vertex, and the bitmap is read-only during the
// level, so chunks need no atomics; the depth a vertex takes does not
// depend on which in-neighbor is found first.
//
//graphalint:noalloc appends extend the caller's pooled out buffer in place
func bfsPullRange(g *graph.Graph, depth []int64, frontier []uint64, level int64, lo, hi int, out []int32) []int32 {
	for v := int32(lo); v < int32(hi); v++ {
		if depth[v] != Unreachable {
			continue
		}
		for _, u := range g.InNeighbors(v) {
			if frontier[u>>6]&(1<<(u&63)) != 0 {
				depth[v] = level
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// bfsMarkRange sets the bit of every vertex of a frontier slice in the
// bitmap. Chunks of one frontier may share a word, so the bits are set
// with atomic ORs.
//
//graphalint:noalloc per-chunk bitmap build: atomic ORs on the caller's bitmap
func bfsMarkRange(bits []uint64, frontier []int32) {
	for _, v := range frontier {
		atomic.OrUint64(&bits[v>>6], 1<<(v&63))
	}
}

// outArcs returns the out-arcs of a list of vertices: the top-down scan
// they would cost as a BFS frontier.
//
//graphalint:noalloc
func outArcs(g *graph.Graph, vertices []int32) int {
	arcs := 0
	for _, v := range vertices {
		arcs += g.OutDegree(v)
	}
	return arcs
}

// wccLinkRange unites every vertex in [lo, hi) with its first
// wccLinkNeighbors out-neighbors in the concurrent union-find parent:
// Afforest's sampling pass. Links are CAS-guarded and always hang the
// larger root under the smaller, so chunks may run concurrently.
//
//graphalint:noalloc per-chunk union-find body: CAS links on the shared parent array only
func wccLinkRange(g *graph.Graph, parent []int32, lo, hi int) {
	for v := int32(lo); v < int32(hi); v++ {
		ns := g.OutNeighbors(v)
		for _, u := range ns[:min(len(ns), wccLinkNeighbors)] {
			unite(parent, v, u)
		}
	}
}

// wccCompressRange points every vertex in [lo, hi) straight at its root,
// once every link has joined. Roots do not move while it runs, so
// concurrent chunks store exact roots.
//
//graphalint:noalloc per-chunk compression: atomic stores into its own range of parent
func wccCompressRange(parent []int32, lo, hi int) {
	for v := int32(lo); v < int32(hi); v++ {
		atomic.StoreInt32(&parent[v], findCAS(parent, v))
	}
}

// wccGiantRoot returns the most frequent parent among wccSamples evenly
// spaced vertices, the smallest on ties (-1 for an empty graph): after
// compression, the root of the tree most likely to hold the giant
// component. The sample is fixed by n, so the choice is deterministic.
//
//graphalint:noalloc the sample is a fixed-size array on the stack
func wccGiantRoot(parent []int32) int32 {
	n := len(parent)
	if n == 0 {
		return -1
	}
	var sample [wccSamples]int32
	for i := range sample {
		sample[i] = parent[i*n/wccSamples]
	}
	slices.Sort(sample[:])
	best, bestRun, run := sample[0], 0, 0
	for i, r := range sample {
		if i > 0 && r != sample[i-1] {
			run = 0
		}
		if run++; run > bestRun {
			best, bestRun = r, run
		}
	}
	return best
}

// wccFinishRange completes the union-find for every vertex in [lo, hi)
// outside the giant tree (parent giant): it unites the vertex with its
// out-neighbors past the first wccLinkNeighbors and, on directed graphs,
// with all its in-neighbors. Every arc then has an endpoint that unites
// it or two endpoints both already joined to giant: an arc out of a
// giant-tree vertex into a vertex outside is united from the arc's head,
// which is why directed graphs scan in-arcs. A vertex whose parent moved
// off giant since compression is simply not skipped.
//
//graphalint:noalloc per-chunk union-find body: CAS links on the shared parent array only
func wccFinishRange(g *graph.Graph, parent []int32, giant int32, lo, hi int) {
	directed := g.Directed()
	for v := int32(lo); v < int32(hi); v++ {
		if atomic.LoadInt32(&parent[v]) == giant {
			continue
		}
		ns := g.OutNeighbors(v)
		for _, u := range ns[min(len(ns), wccLinkNeighbors):] {
			unite(parent, v, u)
		}
		if directed {
			for _, u := range g.InNeighbors(v) {
				unite(parent, v, u)
			}
		}
	}
}

// wccLabelRange labels every vertex in [lo, hi) with the external
// identifier of its union-find root, once every wccFinishRange chunk has
// joined: the root is the component's smallest internal index, so the
// label is its smallest external identifier. Finds halve paths with CAS,
// so label chunks may also run concurrently.
//
//graphalint:noalloc per-chunk labeling body: writes only its own range of labels
func wccLabelRange(g *graph.Graph, parent []int32, labels []int64, lo, hi int) {
	for v := int32(lo); v < int32(hi); v++ {
		labels[v] = g.VertexID(findCAS(parent, v))
	}
}

// wccMinRange sets next[v], for every v in [lo, hi), to the least label
// in labels over v and its neighbors in both directions, and returns how
// many of those vertices' labels moved: MinLabelWCC's pull.
//
//graphalint:noalloc per-chunk min-label pull: writes only its own range of next
func wccMinRange(g *graph.Graph, labels, next []int32, lo, hi int) int {
	directed, moved := g.Directed(), 0
	for v := int32(lo); v < int32(hi); v++ {
		best := labels[v]
		for _, u := range g.InNeighbors(v) {
			best = min(best, labels[u])
		}
		if directed {
			for _, u := range g.OutNeighbors(v) {
				best = min(best, labels[u])
			}
		}
		next[v] = best
		if best != labels[v] {
			moved++
		}
	}
	return moved
}

// prContribRange fills contrib[v] = rank[v]/outdeg(v) for v in [lo, hi),
// zero for dangling vertices; their mass is folded separately, through
// the oracle's block tree.
//
//graphalint:noalloc per-chunk superstep body: writes only into caller-owned arrays
func prContribRange(g *graph.Graph, rank, contrib []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		if deg := g.OutDegree(int32(v)); deg == 0 {
			contrib[v] = 0
		} else {
			contrib[v] = rank[v] / float64(deg)
		}
	}
}

// prPullRange computes next[v] = base + damping * sum of contrib over v's
// in-neighbors for v in [lo, hi). The per-vertex sum follows in-neighbor
// order, so the result does not depend on how vertices are chunked.
//
//graphalint:noalloc per-chunk superstep body: writes only into caller-owned arrays
//graphalint:orderfree per-vertex fold follows CSR in-neighbor order, independent of chunking
func prPullRange(g *graph.Graph, contrib, next []float64, base, damping float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		sum := 0.0
		for _, u := range g.InNeighbors(int32(v)) {
			sum += contrib[u]
		}
		next[v] = base + damping*sum
	}
}

// cdlpRangeHist runs one synchronous label-propagation step for v in
// [lo, hi): next[v] becomes the most frequent label among v's neighbors
// (counting a neighbor on both an in- and an out-edge twice in directed
// graphs), smallest label on ties, counted in the caller-owned histogram.
// The histogram's (highest count, smallest label) argmax is
// order-independent, so the result does not depend on neighbor order.
//
//graphalint:noalloc per-chunk superstep body: counts into the caller-owned histogram
func cdlpRangeHist(g *graph.Graph, labels, next []int64, lo, hi int, h *mplane.Histogram) {
	for v := lo; v < hi; v++ {
		h.Reset()
		for _, u := range g.OutNeighbors(int32(v)) {
			h.Add(labels[u])
		}
		if g.Directed() {
			for _, u := range g.InNeighbors(int32(v)) {
				h.Add(labels[u])
			}
		}
		next[v] = h.Best(labels[v])
	}
}

// cdlpFrontierRange is the frontier-gated variant of cdlpRangeHist on the
// dense label domain: labels are internal vertex indices (monotone with
// external IDs, so the (count, smallest) argmax is isomorphic — see
// mplane.LabelCounts), counted by direct indexing instead of hashing. It
// recomputes only the vertices in [lo, hi) whose dirty stamp is this
// round's or a later one (a neighbor changed last round; a later stamp,
// left by a machine that ran earlier in this round, only over-marks) and
// copies labels through for the rest. A nil dirty slice means every
// vertex is dirty (round zero).
// changed[v] records whether v's label moved this round — the input to the
// next round's cdlpScatterRange — and the return value counts the changed
// vertices in the range, so callers can stop at a fixpoint: once a round
// changes nothing, every future round would also change nothing, and the
// early exit is bit-identical to running all remaining rounds.
//
// Skipping is exact, not approximate. A skipped vertex saw no neighbor
// change, so its label multiset is the one it already folded; the argmax
// depends only on the multiset whenever the multiset is non-empty (the
// vertex's own label only breaks the empty case, and then it is unchanged
// too), so recomputing would reproduce labels[v] bit for bit.
//
//graphalint:noalloc per-chunk superstep body: counts into the caller-owned dense counter
func cdlpFrontierRange(g *graph.Graph, labels, next []int32, lo, hi int, c *mplane.LabelCounts, dirty []uint32, stamp uint32, changed []bool) int {
	cnt := 0
	directed := g.Directed()
	for v := lo; v < hi; v++ {
		if dirty != nil && dirty[v] < stamp {
			next[v] = labels[v]
			changed[v] = false
			continue
		}
		nl := cdlpFold(g, labels, int32(v), directed, c)
		next[v] = nl
		if nl != labels[v] {
			changed[v] = true
			cnt++
		} else {
			changed[v] = false
		}
	}
	return cnt
}

// cdlpInitRange runs CDLP's round zero in closed form, assuming identity
// labels (labels[u] == u, the initial state). Every label in the multiset
// is then distinct per neighbor and adjacency lists are sorted ascending,
// so the argmax needs no counter: on undirected graphs every count is 1
// and the winner is the smallest neighbor — out[0]; on directed graphs a
// vertex appearing in both out(v) and in(v) counts twice and beats all
// singletons, so the winner is the smallest out/in duplicate (the first
// hit of a sorted merge) or, failing that, the smaller of the two list
// heads. next[v] receives the winner (or v when isolated), changed[v]
// whether it moved, and the return value counts the changed vertices.
//
//graphalint:noalloc per-chunk superstep body: the closed form never touches a counter
func cdlpInitRange(g *graph.Graph, next []int32, changed []bool, lo, hi int) int {
	cnt := 0
	directed := g.Directed()
	for v := lo; v < hi; v++ {
		var in []int32
		if directed {
			in = g.InNeighbors(int32(v))
		}
		nl := CDLPInitLabel(int32(v), g.OutNeighbors(int32(v)), in, directed)
		next[v] = nl
		if nl != int32(v) {
			changed[v] = true
			cnt++
		} else {
			changed[v] = false
		}
	}
	return cnt
}

// CDLPInitLabel is the per-vertex closed form of the round-zero update,
// usable by engines over their own (sorted, duplicate-free) adjacency
// layouts: fwd is the vertex's neighbor list (undirected graphs pass only
// this), rev the opposite direction for directed graphs.
//
//graphalint:noalloc
func CDLPInitLabel(v int32, fwd, rev []int32, directed bool) int32 {
	if !directed {
		if len(fwd) > 0 {
			return fwd[0]
		}
		return v
	}
	i, j := 0, 0
	for i < len(fwd) && j < len(rev) {
		switch {
		case fwd[i] < rev[j]:
			i++
		case rev[j] < fwd[i]:
			j++
		default:
			return fwd[i] // smallest duplicate: the only count-2 winner
		}
	}
	switch {
	case len(fwd) > 0 && (len(rev) == 0 || fwd[0] < rev[0]):
		return fwd[0]
	case len(rev) > 0:
		return rev[0]
	}
	return v
}

// CDLPFoldVertex computes one vertex's CDLP update on the dense label
// domain — the multiset argmax of the neighbors' labels — for engines
// whose round structure walks their own vertex lists rather than index
// ranges. c must be an all-zero counter sized for the domain; it is left
// all-zero again on return.
//
//graphalint:noalloc
func CDLPFoldVertex(g *graph.Graph, labels []int32, v int32, c *mplane.LabelCounts) int32 {
	return cdlpFold(g, labels, v, g.Directed(), c)
}

// cdlpFold computes one vertex's CDLP update on the dense label domain.
// Degree-0/1/2 neighborhoods — the bulk of many real graphs — resolve
// without touching the counter: a single label wins outright, and two
// labels tie toward the smaller exactly as the argmax would.
//
//graphalint:noalloc
func cdlpFold(g *graph.Graph, labels []int32, v int32, directed bool, c *mplane.LabelCounts) int32 {
	out := g.OutNeighbors(v)
	if !directed {
		switch len(out) {
		case 0:
			return labels[v]
		case 1:
			return labels[out[0]]
		case 2:
			a, b := labels[out[0]], labels[out[1]]
			if b < a {
				return b
			}
			return a
		}
		c.AddOf(labels, out)
		return c.BestAndReset(labels[v])
	}
	in := g.InNeighbors(v)
	switch len(out) + len(in) {
	case 0:
		return labels[v]
	case 1:
		if len(out) == 1 {
			return labels[out[0]]
		}
		return labels[in[0]]
	}
	c.AddOf(labels, out)
	c.AddOf(labels, in)
	return c.BestAndReset(labels[v])
}

// cdlpScatterRange marks the next round's frontier: every neighbor of a
// vertex that changed this round gets its dirty slot stamped with the next
// round's stamp. The dependency set of a vertex is its out- plus
// in-neighborhood (both directions count in CDLP), and adjacency is
// symmetric across the pair — u is in v's multiset exactly when v is in
// u's scatter set — so stamping out(u) and, on directed graphs, in(u)
// reaches precisely the vertices whose multiset u's change invalidated
// (including u itself via self-loops). Loads and stores are atomic
// because chunks race on shared neighbors; all writes store the same
// stamp, so the outcome is order-independent, and the load-before-store
// turns the common already-marked case (shared neighbors of hubs) into a
// read instead of a contended write. Stamps make clearing unnecessary: a
// slot is dirty only if it holds this round's stamp or a later one.
//
//graphalint:noalloc per-chunk superstep body: atomic stamp stores only
func cdlpScatterRange(g *graph.Graph, changed []bool, dirty []uint32, stamp uint32, lo, hi int) {
	for v := lo; v < hi; v++ {
		if !changed[v] {
			continue
		}
		for _, u := range g.OutNeighbors(int32(v)) {
			if atomic.LoadUint32(&dirty[u]) != stamp {
				atomic.StoreUint32(&dirty[u], stamp)
			}
		}
		if g.Directed() {
			for _, u := range g.InNeighbors(int32(v)) {
				if atomic.LoadUint32(&dirty[u]) != stamp {
					atomic.StoreUint32(&dirty[u], stamp)
				}
			}
		}
	}
}

// CDLPScatterWorthwhile decides whether the next round should bother with
// a frontier at all: once more than 1/8 of the vertices changed, their
// combined neighborhoods blanket the graph, so the next round is treated
// as fully dirty and the scatter pass is skipped entirely. Over-marking
// is always exact — recomputing a clean vertex reproduces its label bit
// for bit — so this trades a few redundant folds for skipping the
// edge-proportional marking sweep in exactly the rounds where it is most
// expensive and least selective.
func CDLPScatterWorthwhile(changedCount, n int) bool {
	return changedCount*8 <= n
}

// SSSPRelaxRange relaxes the out-edges of a slice of the current frontier
// against the shared distance array (float64 bits; see ssspBuckets) and
// returns out extended with every vertex whose distance improved, claimed
// exactly once per relax phase. Each frontier vertex relaxes from starts,
// parallel to frontier: not its live distance but the one it had when the
// phase began, which the caller snapshots between phases. Improvements are
// CAS-min loops on the raw bits — non-negative floats order the same as
// their bit patterns' values, and distances only decrease — and the claim
// is a CAS on the phase stamp, so concurrent chunks never append the same
// vertex twice in one phase. CAS minima commute, so a vertex is claimed
// exactly when the phase's best offer beats its phase-start distance:
// which vertices a phase discovers, and their final distances, depend on
// the graph and the phase's frontier alone, not on the interleaving. A
// frontier vertex improved during the phase has been claimed for the next
// one, so the fixpoint is unaffected.
//
//graphalint:noalloc appends extend the caller's pooled out buffer in place
func SSSPRelaxRange(g *graph.Graph, dist []uint64, frontier []int32, starts []float64, claimed []uint32, stamp uint32, out []int32) []int32 {
	for k, v := range frontier {
		dv := starts[k]
		ns := g.OutNeighbors(v)
		ws := g.OutWeights(v)
		for i, u := range ns {
			nd := dv + ws[i]
			ndBits := math.Float64bits(nd)
			for {
				old := atomic.LoadUint64(&dist[u])
				if math.Float64frombits(old) <= nd {
					break
				}
				if atomic.CompareAndSwapUint64(&dist[u], old, ndBits) {
					out = ssspClaim(claimed, stamp, u, out)
					break
				}
			}
		}
	}
	return out
}

// ssspClaim appends u to out unless it already carries this phase's
// claim stamp, so each improved vertex enters the next frontier once.
//
//graphalint:noalloc appends extend the caller's pooled out buffer in place
func ssspClaim(claimed []uint32, stamp uint32, u int32, out []int32) []int32 {
	for {
		c := atomic.LoadUint32(&claimed[u])
		if c == stamp {
			return out
		}
		if atomic.CompareAndSwapUint32(&claimed[u], c, stamp) {
			out = append(out, u)
			return out
		}
	}
}

// Neighborhood appends the union of a vertex's two sorted adjacency lists
// — each neighbor once, v itself dropped — to buf and returns it: the
// neighborhood LCC is defined over. Undirected graphs pass their one list
// as fwd; it is already the union.
//
//graphalint:noalloc appends extend the caller's pooled buffer in place
func Neighborhood(fwd, rev []int32, v int32, directed bool, buf []int32) []int32 {
	if !directed {
		buf = append(buf, fwd...)
		return buf
	}
	i, j := 0, 0
	for i < len(fwd) || j < len(rev) {
		var next int32
		switch {
		case i == len(fwd):
			next = rev[j]
			j++
		case j == len(rev):
			next = fwd[i]
			i++
		case fwd[i] < rev[j]:
			next = fwd[i]
			i++
		case rev[j] < fwd[i]:
			next = rev[j]
			j++
		default:
			next = fwd[i]
			i++
			j++
		}
		if next != v {
			buf = append(buf, next)
		}
	}
	return buf
}

// HoodMarks is one worker's membership test for a vertex's neighborhood,
// the mark array of RefLCC: Mark stamps the neighborhood's vertices with
// a fresh epoch, and Count then counts a list's stamped entries, so the
// arcs among v's neighbors cost one read per entry of the neighbors' lists
// instead of a merge of each list with the neighborhood. Stamps left by
// an earlier Mark carry an older epoch and do not count; when the epoch
// wraps the stamps are cleared. The neighborhood must not hold v itself,
// which holds for Neighborhood and for the builder's adjacency lists
// (without self-loops). The trailing pad lets a slice of them serve one
// worker slot each without sharing cache lines.
type HoodMarks struct {
	stamp []uint32
	epoch uint32
	_     mplane.CacheLinePad
}

// Mark stamps hood, a list of vertices below n, as the neighborhood the
// following Count calls test against. It allocates only when n exceeds
// every earlier n.
func (m *HoodMarks) Mark(n int, hood []int32) {
	if len(m.stamp) < n {
		m.stamp, m.epoch = make([]uint32, n), 0
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
	stamp, epoch := m.stamp, m.epoch
	for _, u := range hood {
		stamp[u] = epoch
	}
}

// Count returns how many entries of list the last Mark stamped: for a
// duplicate-free list, |list ∩ hood|.
//
//graphalint:noalloc LCC inner loop: runs once per neighbor
func (m *HoodMarks) Count(list []int32) int {
	stamp, epoch := m.stamp, m.epoch
	count := 0
	for _, w := range list {
		if stamp[w] == epoch {
			count++
		}
	}
	return count
}
