package algorithms

import (
	"math"
	"sync/atomic"

	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
)

// Kernel steps: the per-chunk bodies of the parallel reference kernels,
// exported so engines can reuse them under their own chunking. The
// parallel kernels in parallel.go run these under par.Chunks; the native
// engine runs the same functions under its simulated thread pool
// (cluster.Threads), so both execute one shared, well-tested kernel body.
//
// Every step is safe to run concurrently on disjoint [lo, hi) ranges of
// the same output arrays. Steps that may touch shared state across chunks
// (BFSExpand's depth claims, WCCUniteRange's links, the SSSP relax
// bodies' distance minima and claims) use atomics; everything else writes
// only inside its own range or into a caller-owned per-worker buffer.

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

// WCCUniteRange unites every vertex in [lo, hi) with its out-neighbors in
// the concurrent union-find parent (every vertex its own parent before the
// first unite). Every arc is an out-arc of one vertex, so chunks covering
// all vertices unite the whole edge set, and chunks may run concurrently:
// links are CAS-guarded and always hang the larger root under the smaller.
//
//graphalint:noalloc per-chunk union-find body: CAS links on the shared parent array only
func WCCUniteRange(g *graph.Graph, parent []int32, lo, hi int) {
	for v := int32(lo); v < int32(hi); v++ {
		for _, u := range g.OutNeighbors(v) {
			unite(parent, v, u)
		}
	}
}

// WCCLabelRange labels every vertex in [lo, hi) with the external
// identifier of its union-find root, once every WCCUniteRange chunk has
// joined: the root is the component's smallest internal index, so the
// label is its smallest external identifier. Finds halve paths with CAS,
// so label chunks may also run concurrently.
//
//graphalint:noalloc per-chunk labeling body: writes only its own range of labels
func WCCLabelRange(g *graph.Graph, parent []int32, labels []int64, lo, hi int) {
	for v := int32(lo); v < int32(hi); v++ {
		labels[v] = g.VertexID(findCAS(parent, v))
	}
}

// PRContribRange fills contrib[v] = rank[v]/outdeg(v) for v in [lo, hi)
// (zero for dangling vertices) and returns the range's dangling rank mass,
// accumulated left to right — the block partial of the fixed reduction
// tree the PageRank kernels sum dangling mass with.
//
//graphalint:noalloc per-chunk superstep body: writes only into caller-owned arrays
//graphalint:orderfree block partial: left-to-right fold within one fixed [lo, hi) block, summed by callers in block order
func PRContribRange(g *graph.Graph, rank, contrib []float64, lo, hi int) float64 {
	var dangling float64
	for v := lo; v < hi; v++ {
		if deg := g.OutDegree(int32(v)); deg == 0 {
			dangling += rank[v]
			contrib[v] = 0
		} else {
			contrib[v] = rank[v] / float64(deg)
		}
	}
	return dangling
}

// PRPullRange computes next[v] = base + damping * sum of contrib over v's
// in-neighbors for v in [lo, hi). The per-vertex sum follows in-neighbor
// order, so the result does not depend on how vertices are chunked.
//
//graphalint:noalloc per-chunk superstep body: writes only into caller-owned arrays
//graphalint:orderfree per-vertex fold follows CSR in-neighbor order, independent of chunking
func PRPullRange(g *graph.Graph, contrib, next []float64, base, damping float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		sum := 0.0
		for _, u := range g.InNeighbors(int32(v)) {
			sum += contrib[u]
		}
		next[v] = base + damping*sum
	}
}

// CDLPRange runs one synchronous label-propagation step for v in [lo, hi):
// next[v] becomes the most frequent label among v's neighbors (counting a
// neighbor on both an in- and an out-edge twice in directed graphs),
// smallest label on ties. The histogram is chunk-private; callers that
// keep one per worker reuse it via CDLPRangeHist.
func CDLPRange(g *graph.Graph, labels, next []int64, lo, hi int) {
	CDLPRangeHist(g, labels, next, lo, hi, mplane.NewHistogram(16))
}

// CDLPRangeHist is CDLPRange counting into a caller-owned histogram. The
// histogram's (highest count, smallest label) argmax is order-independent,
// so the result is identical to the map-based fold it replaced.
//
//graphalint:noalloc per-chunk superstep body: counts into the caller-owned histogram
func CDLPRangeHist(g *graph.Graph, labels, next []int64, lo, hi int, h *mplane.Histogram) {
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

// CDLPFrontierRange is the frontier-gated variant of CDLPRangeHist on the
// dense label domain: labels are internal vertex indices (monotone with
// external IDs, so the (count, smallest) argmax is isomorphic — see
// mplane.LabelCounts), counted by direct indexing instead of hashing. It
// recomputes only the vertices in [lo, hi) whose dirty stamp matches this
// round (a neighbor changed last round) and copies labels through for the
// rest. A nil dirty slice means every vertex is dirty (round zero).
// changed[v] records whether v's label moved this round — the input to the
// next round's CDLPScatterRange — and the return value counts the changed
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
func CDLPFrontierRange(g *graph.Graph, labels, next []int32, lo, hi int, c *mplane.LabelCounts, dirty []uint32, stamp uint32, changed []bool) int {
	cnt := 0
	directed := g.Directed()
	for v := lo; v < hi; v++ {
		if dirty != nil && dirty[v] != stamp {
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

// CDLPInitRange runs CDLP's round zero in closed form, assuming identity
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
func CDLPInitRange(g *graph.Graph, next []int32, changed []bool, lo, hi int) int {
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
		for _, u := range out {
			c.Add(labels[u])
		}
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
	for _, u := range out {
		c.Add(labels[u])
	}
	for _, u := range in {
		c.Add(labels[u])
	}
	return c.BestAndReset(labels[v])
}

// CDLPScatterRange marks the next round's frontier: every neighbor of a
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
// slot is dirty only if it holds exactly this round's stamp.
//
//graphalint:noalloc per-chunk superstep body: atomic stamp stores only
func CDLPScatterRange(g *graph.Graph, changed []bool, dirty []uint32, stamp uint32, lo, hi int) {
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
// against the shared distance array (float64 bits; see SSSPBuckets) and
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

// SSSPRelaxArcs is the arc-list sibling of SSSPRelaxRange, for engines
// that store a vertex's out-edges as arcs of an edge partition (gas's
// vertex-cut) rather than as a CSR row: it relaxes the arcs out of one
// frontier vertex from its phase-start distance dv, with weights ws
// parallel to arcs, and returns out extended with the vertices it improved
// and claimed, under the same CAS and claim-stamp rules.
//
//graphalint:noalloc appends extend the caller's pooled out buffer in place
func SSSPRelaxArcs(dist []uint64, dv float64, arcs []cluster.Arc, ws []float64, claimed []uint32, stamp uint32, out []int32) []int32 {
	for i, a := range arcs {
		nd := dv + ws[i]
		for {
			old := atomic.LoadUint64(&dist[a.Dst])
			if nd >= math.Float64frombits(old) {
				break
			}
			if atomic.CompareAndSwapUint64(&dist[a.Dst], old, math.Float64bits(nd)) {
				out = ssspClaim(claimed, stamp, a.Dst, out)
				break
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

// IntersectCount returns |a ∩ b| excluding the vertex v, for two ascending
// lists: the arc count of the modelled engines' neighbourhood-exchange LCC.
//
//graphalint:noalloc LCC inner loop: runs once per neighbor pair
func IntersectCount(a, b []int32, v int32) int {
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			if a[i] != v {
				count++
			}
			i++
			j++
		}
	}
	return count
}
