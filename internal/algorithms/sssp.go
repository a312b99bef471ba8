package algorithms

import (
	"math"

	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/par"
)

// Deterministic delta-stepping SSSP.
//
// Delta-stepping partitions tentative distances into buckets of width
// Delta and repeatedly relaxes the lowest non-empty bucket to a local
// fixpoint before advancing. Everything here is scheduled concurrently —
// which chunk relaxes which frontier slice, who wins a CAS race, the order
// vertices enter the next frontier — and none of it can change the output:
//
//   - The final distance array is the unique fixpoint of edge relaxation
//     from the source. Float addition with a non-negative weight is
//     monotone (x1 <= x2 implies x1+w <= x2+w) and inflationary
//     (x+w >= x), so every relax-until-fixpoint order — Dijkstra's
//     priority order, delta-stepping's bucket order, any interleaving the
//     scheduler produces — converges to the same bits. ParSSSP is
//     therefore bit-identical to RefSSSP at every worker count.
//   - Delta itself must not depend on the worker count, since it shapes
//     the rounding-free bucket boundaries only through comparisons; it is
//     the mean edge weight computed with par.SumBlocked's fixed reduction
//     tree, so every worker count sums the same blocks in the same order.
//
// Termination: within a bucket, a vertex re-enters the frontier only when
// its distance strictly decreased, and float64 has finitely many values in
// [bucket*Delta, +Inf); across buckets, the current bucket index strictly
// increases. Zero-weight edges cannot cycle (relaxing x+0 = x is not an
// improvement), and negative weights are out of scope (Dijkstra's
// contract).

// ssspMaxBucket clamps bucket indices so +Inf and pathologically large
// distances stay representable; unreachable vertices never enter a
// frontier, so the clamp only has to keep comparisons well-defined.
const ssspMaxBucket = int64(math.MaxInt64) / 4

// SSSPBuckets is the delta-stepping state machine shared by ParSSSP and
// the native engine's SSSP kernel: tentative distances as raw float64
// bits (Bits, CAS-minimized by SSSPRelaxRange), the current bucket's
// frontier with its phase-start distances, and the deferred list of
// vertices whose last improvement landed in a future bucket. The caller
// drives it:
//
//	b.Init(g, source, delta)
//	for {
//		frontier, starts, claimed, stamp := b.BeginPhase()
//		if len(frontier) == 0 {
//			if !b.Advance() {
//				break
//			}
//			continue
//		}
//		improved := ... SSSPRelaxRange over frontier and starts chunks, concatenated ...
//		b.Absorb(improved)
//	}
//
// All methods are sequential (called between fork-join phases); only Bits
// and the claimed array are touched concurrently, inside SSSPRelaxRange.
// The zero value is usable and all buffers are retained across Init calls,
// so pooled reuse (mplane.Pool) reaches a zero-allocation steady state.
type SSSPBuckets struct {
	Bits  []uint64 // tentative distances as math.Float64bits, +Inf init
	Delta float64  // bucket width: mean edge weight via fixed-tree sum

	claimed  []uint32 // per-phase claim stamps (SSSPRelaxRange)
	seen     []uint32 // dedup generations for Advance's deferred scan
	stamp    uint32
	gen      uint32
	cur      []int32   // current bucket's frontier
	starts   []float64 // cur's distances when the phase began
	deferred []int32   // improved vertices parked for future buckets
	bucket   int64     // current bucket index
}

// SSSPDelta computes the bucket width for g: the mean edge weight,
// summed through par.SumBlocked's fixed reduction tree so the value — and
// with it every bucket boundary — is bit-identical at any worker count.
// Degenerate distributions (all-zero weights, empty graphs, overflow to
// +Inf) fall back to a width of 1; the choice only shapes scheduling,
// never the output.
func SSSPDelta(g *graph.Graph, workers int) float64 {
	n := g.NumVertices()
	arcs := int64(g.NumEdges())
	if !g.Directed() {
		arcs *= 2
	}
	p := par.Resolve(workers, n+int(arcs))
	total := par.SumBlocked(n, p, func(lo, hi int) float64 {
		return SSSPWeightRange(g, lo, hi)
	})
	delta := 0.0
	if arcs > 0 {
		delta = total / float64(arcs)
	}
	if !(delta > 0) || math.IsInf(delta, 1) {
		return 1
	}
	return delta
}

// SSSPWeightRange sums the out-edge weights of vertices in [lo, hi),
// left to right — the per-chunk body engines use to compute the Delta
// reduction under their own (charged) thread pools.
//
//graphalint:orderfree block partial: left-to-right fold over a fixed [lo, hi) chunk in CSR order, summed by callers in chunk order
func SSSPWeightRange(g *graph.Graph, lo, hi int) float64 {
	s := 0.0
	for v := lo; v < hi; v++ {
		for _, w := range g.OutWeights(int32(v)) {
			s += w
		}
	}
	return s
}

// Init (re)sizes the state for g with the given bucket width (see
// SSSPDelta) and seeds the source frontier.
func (b *SSSPBuckets) Init(g *graph.Graph, source int32, delta float64) {
	n := g.NumVertices()
	if !(delta > 0) || math.IsInf(delta, 1) {
		delta = 1
	}
	b.Delta = delta
	b.Bits = mplane.Grow(b.Bits, n)
	inf := math.Float64bits(math.Inf(1))
	for i := range b.Bits {
		b.Bits[i] = inf
	}
	b.claimed = mplane.Grow(b.claimed, n)
	clear(b.claimed)
	b.seen = mplane.Grow(b.seen, n)
	clear(b.seen)
	b.stamp, b.gen = 0, 0
	b.bucket = 0
	b.deferred = b.deferred[:0]
	b.cur = append(b.cur[:0], source)
	b.Bits[source] = 0 // math.Float64bits(0)
}

// BeginPhase starts one relax phase: it returns the current frontier, its
// phase-start distances and a fresh claim stamp for SSSPRelaxRange.
func (b *SSSPBuckets) BeginPhase() (frontier []int32, starts []float64, claimed []uint32, stamp uint32) {
	b.stamp++
	b.starts = b.starts[:0]
	for _, v := range b.cur {
		b.starts = append(b.starts, math.Float64frombits(b.Bits[v]))
	}
	return b.cur, b.starts, b.claimed, b.stamp
}

// Absorb partitions a phase's improved vertices (what SSSPRelaxRange
// returned over the phase's chunks, concatenated): improvements that
// landed in the current bucket feed the next phase's frontier, the rest
// are parked on the deferred list. Claim stamps guarantee each vertex
// appears at most once per phase, and an improvement made while bucket i
// is current is >= i*Delta (the relaxing source was), so freshly improved
// vertices never belong to an already-drained bucket.
func (b *SSSPBuckets) Absorb(improved []int32) {
	cur := b.cur[:0]
	for _, v := range improved {
		if b.bucketOf(b.Bits[v]) == b.bucket {
			cur = append(cur, v)
		} else {
			b.deferred = append(b.deferred, v)
		}
	}
	b.cur = cur
}

// Advance moves to the lowest bucket still holding deferred work and
// rebuilds the frontier from it, reporting false when the computation is
// done. Deferred entries are deduplicated (a vertex may have been parked
// once per phase) and re-bucketed from their *current* distance; entries
// whose bucket is not past the one just drained are dropped — every
// improvement event was claimed into a frontier at the time it happened,
// so a distance now sitting in a drained bucket was already relaxed from.
func (b *SSSPBuckets) Advance() bool {
	if len(b.deferred) == 0 {
		return false
	}
	b.gen++
	if b.gen == 0 { // generation counter wrapped: re-zero the stamps
		clear(b.seen)
		b.gen = 1
	}
	keep := b.deferred[:0]
	minBucket := ssspMaxBucket + 1
	for _, v := range b.deferred {
		if b.seen[v] == b.gen {
			continue
		}
		b.seen[v] = b.gen
		bk := b.bucketOf(b.Bits[v])
		if bk <= b.bucket {
			continue
		}
		keep = append(keep, v)
		if bk < minBucket {
			minBucket = bk
		}
	}
	if len(keep) == 0 {
		b.deferred = keep
		return false
	}
	b.bucket = minBucket
	cur := b.cur[:0]
	rest := keep[:0]
	for _, v := range keep {
		if b.bucketOf(b.Bits[v]) == minBucket {
			cur = append(cur, v)
		} else {
			rest = append(rest, v)
		}
	}
	b.cur = cur
	b.deferred = rest
	return true
}

// Distances decodes the final bit patterns into dst (grown as needed) and
// returns it.
func (b *SSSPBuckets) Distances(dst []float64) []float64 {
	dst = mplane.Grow(dst, len(b.Bits))
	for i, bits := range b.Bits {
		dst[i] = math.Float64frombits(bits)
	}
	return dst
}

func (b *SSSPBuckets) bucketOf(bits uint64) int64 {
	q := math.Float64frombits(bits) / b.Delta
	if q >= float64(ssspMaxBucket) {
		return ssspMaxBucket
	}
	return int64(q)
}

// ParSSSP is the parallel counterpart of RefSSSP: deterministic
// delta-stepping over the shared par runtime, bit-identical to the
// sequential Dijkstra oracle at every worker count (see the package-level
// argument above). As in ParBFS, automatic sizing (workers <= 0) adapts
// the per-phase worker count to the frontier's estimated edge work, while
// an explicit count is honored on every phase.
func ParSSSP(g *graph.Graph, source int32, workers int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	arcs := int(g.NumEdges())
	if !g.Directed() {
		arcs *= 2
	}
	p := par.Resolve(workers, n+arcs)
	arcsPerVertex := 1 + arcs/n
	var b SSSPBuckets
	b.Init(g, source, SSSPDelta(g, workers))
	bufs := make([][]int32, p) // per-worker relax outputs, reused across phases
	var improved []int32
	for {
		frontier, starts, claimed, stamp := b.BeginPhase()
		if len(frontier) == 0 {
			if !b.Advance() {
				break
			}
			continue
		}
		pl := p
		if workers <= 0 {
			if auto := par.Workers(len(frontier) * arcsPerVertex); auto < pl {
				pl = auto
			}
		}
		parts := par.Accumulate(len(frontier), pl, func(w, lo, hi int) []int32 {
			out := SSSPRelaxRange(g, b.Bits, frontier[lo:hi], starts[lo:hi], claimed, stamp, bufs[w][:0])
			bufs[w] = out
			return out
		})
		improved = improved[:0]
		for _, part := range parts {
			improved = append(improved, part...)
		}
		b.Absorb(improved)
	}
	return b.Distances(nil)
}
