// Package par is the repository's one host fork-join runtime. It grew out
// of the graph builder's private helpers and now backs every parallel hot
// path in the process: the CSR builder, the parallel reference kernels,
// and the simulated thread pool (cluster.Threads), whose regions run as
// Chunks calls.
//
// It owns the process's only worker pool, and host concurrency is bounded:
// however many callers run Chunks at once, and however deeply they nest,
// at most GOMAXPROCS−1 helpers run chunks beside them. A call borrows the
// helpers that are free and never waits for one; the caller runs what it
// could not hand out.
//
// The package's contract is determinism: for a fixed input, every exported
// function produces bit-identical results at any worker count, including
// one. Three rules make that hold:
//
//   - Stable chunking. ChunkRange(n, p, w) is a pure function of (n, p, w),
//     so chunk w always covers the same index range for the same split.
//   - Ordered reduction. Accumulate returns per-worker values indexed by
//     chunk, and callers combine them in chunk order, never in completion
//     order.
//   - Fixed reduction tree. SumBlocked splits a floating-point sum into
//     fixed-size blocks whose boundaries do not depend on the worker
//     count, then adds the per-block partial sums in block order. The
//     result is the same at p=1 and p=64, which is what lets a parallel
//     kernel be validated bit-for-bit against a sequential oracle.
package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// MinGrain is the smallest per-worker share of work units worth a
// goroutine; below it the coordination costs more than it saves.
const MinGrain = 1 << 13

// SumBlock is the fixed block length of SumBlocked's reduction tree. It is
// a property of the *computation*, not of the worker count: changing it
// changes the low bits of blocked float sums, so sequential oracles that
// mirror SumBlocked (see algorithms.RefPageRank) use this constant too.
const SumBlock = 1 << 12

// Workers returns how many workers to use for work units of roughly
// uniform cost: GOMAXPROCS, capped so every worker gets at least MinGrain
// units. Graph kernels pass |V|+|E| as the work estimate.
func Workers(work int) int {
	p := runtime.GOMAXPROCS(0)
	if max := work / MinGrain; p > max {
		p = max
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Resolve settles an explicit worker request against the work size:
// p <= 0 selects Workers(work) (auto), anything else is honored as-is so
// benchmarks and tests can pin exact worker counts, but never below 1.
func Resolve(p, work int) int {
	if p <= 0 {
		return Workers(work)
	}
	return p
}

// ChunkRange returns the w-th of p near-equal half-open chunks of [0, n).
// It is a pure function of its arguments: the same (n, p, w) always maps
// to the same range, which ordered reductions and the builder's
// counting-sort scatter rely on.
func ChunkRange(n, p, w int) (lo, hi int) {
	lo = w * n / p
	hi = (w + 1) * n / p
	return lo, hi
}

// Chunks splits [0, n) into p stable chunks and runs fn(worker, lo, hi)
// for each. Empty chunks (p > n) are skipped but worker indices stay
// aligned with chunk indices — even when p > 1 and only one chunk is
// non-empty, that chunk keeps its own index so ordered reductions
// attribute it correctly.
//
// The chunks are spread over k goroutines: the caller plus up to p−1
// helpers borrowed, without blocking, from the process-wide pool, and
// goroutine g runs chunks ChunkRange(p, k, g) in index order. What the
// pool cannot lend, the caller runs itself, so nested calls cannot
// deadlock and at GOMAXPROCS=1 every chunk runs inline. Chunks returns
// when all chunks have finished (fork-join). If chunks panic, Chunks
// re-raises the lowest panicking chunk's value on the caller once all
// goroutines have finished, whatever k turned out to be.
func Chunks(n, p int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p <= 1 {
		fn(0, 0, n)
		return
	}
	r := regions.Get().(*region)
	// Only min(p, n) chunks are non-empty.
	r.fn, r.n, r.p, r.k = fn, n, p, 1+borrow(min(p, n)-1)
	r.fork()
}

// region is one Chunks call's dispatch state, shared by the caller and
// the helpers it borrowed. Regions are recycled through a sync.Pool, so a
// warm call allocates nothing.
type region struct {
	fn   func(worker, lo, hi int)
	n, p int          // chunk w is ChunkRange(n, p, w)
	k    int          // goroutines: g runs chunks ChunkRange(p, k, g)
	next atomic.Int32 // the last goroutine index a helper took
	join sync.WaitGroup
	// A panic left on a helper would end the process, beyond any caller's
	// recover, so the helper records it for the caller to re-raise after
	// the join. Of several, the lowest goroutine's is kept, so which value
	// the caller sees does not depend on the schedule.
	mu      sync.Mutex
	faultAt int // the lowest helper goroutine that panicked; 0 for none
	fault   any
}

var regions = sync.Pool{New: func() any { return new(region) }}

// fork hands goroutines 1..k-1 to the borrowed helpers, runs goroutine 0
// itself and re-raises a helper's panic once all have joined. When the
// caller's own chunks panic, that value wins: they are the lowest.
func (r *region) fork() {
	r.next.Store(0)
	r.join.Add(r.k - 1)
	defer r.release()
	for range r.k - 1 {
		pool.work <- r
	}
	r.runGroup(0)
	r.join.Wait()
	if r.faultAt > 0 {
		panic(r.fault)
	}
}

// runGroup runs goroutine g's chunks in index order.
func (r *region) runGroup(g int) {
	lo, hi := ChunkRange(r.p, r.k, g)
	for w := lo; w < hi; w++ {
		if clo, chi := ChunkRange(r.n, r.p, w); clo < chi {
			r.fn(w, clo, chi)
		}
	}
}

// runHelped runs goroutine g on a helper, recording a panic for the
// region's caller instead of ending the process, so the helper stays in
// the pool.
func (r *region) runHelped(g int) {
	defer r.join.Done()
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if r.faultAt == 0 || g < r.faultAt {
				r.faultAt, r.fault = g, v
			}
			r.mu.Unlock()
		}
	}()
	r.runGroup(g)
}

// release waits for the helpers — also when the caller's own chunks
// panicked, so none is left running a finished region — returns them to
// the pool and recycles the region.
func (r *region) release() {
	r.join.Wait()
	pool.lent.Add(int32(1 - r.k))
	r.fn, r.faultAt, r.fault = nil, 0, nil
	regions.Put(r)
}

// pool is the process-wide set of helpers every fork-join region borrows
// from: Chunks' and, through it, every cluster's simulated threads.
var pool = struct {
	work    chan *region
	lent    atomic.Int32 // helpers working for a region
	started atomic.Int32
}{work: make(chan *region)}

// borrow takes up to want helpers without blocking, so that no more than
// GOMAXPROCS−1 work for regions at once, and returns how many it got.
// Helpers are started lazily and then live for the process.
func borrow(want int) int {
	budget := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		lent := pool.lent.Load()
		got := min(int32(want), budget-lent)
		if got <= 0 {
			return 0
		}
		if pool.lent.CompareAndSwap(lent, lent+got) {
			for s := pool.started.Load(); s < lent+got; s = pool.started.Load() {
				if pool.started.CompareAndSwap(s, s+1) {
					go helper()
				}
			}
			return int(got)
		}
	}
}

// helper runs goroutines of the regions it is handed, one at a time.
func helper() {
	for r := range pool.work {
		r.runHelped(int(r.next.Add(1)))
	}
}

// Accumulate runs fn over p stable chunks of [0, n) and returns the
// per-worker results indexed by chunk, so callers reduce them in chunk
// order regardless of which worker finished first. Workers whose chunk is
// empty contribute the zero value.
func Accumulate[T any](n, p int, fn func(worker, lo, hi int) T) []T {
	out := make([]T, p)
	Chunks(n, p, func(w, lo, hi int) {
		out[w] = fn(w, lo, hi)
	})
	return out
}

// SumBlocked computes a float64 sum over [0, n) with a fixed reduction
// tree: the range is cut into SumBlock-sized blocks, sum(lo, hi) produces
// each block's partial (accumulating left to right within the block), and
// the partials are added in block order. Block boundaries are independent
// of p, so the result is bit-identical at every worker count — the
// determinism contract parallel float kernels are validated under.
//
//graphalint:orderfree the fixed reduction tree itself: block boundaries are worker-count independent and partials are added in block order
func SumBlocked(n, p int, sum func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := (n + SumBlock - 1) / SumBlock
	if p <= 1 || blocks == 1 {
		var total float64
		for b := 0; b < blocks; b++ {
			lo := b * SumBlock
			hi := min(lo+SumBlock, n)
			total += sum(lo, hi)
		}
		return total
	}
	parts := make([]float64, blocks)
	Chunks(blocks, p, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * SumBlock
			hi := min(lo+SumBlock, n)
			parts[b] = sum(lo, hi)
		}
	})
	var total float64
	for _, s := range parts {
		total += s
	}
	return total
}

// radixSortMin is the input length below which SortInt64s hands the slice
// to slices.Sort: a radix pass's scratch array and histograms cost more
// than they save on the small identifier sets of tiny graphs.
const radixSortMin = 1 << 12

// SortInt64s sorts a ascending and returns the sorted slice, which may be
// a different buffer than the input. Inputs of radixSortMin keys or more
// take an LSD radix sort over the 8-bit digits of the sign-flipped key,
// scattering between a and one scratch array; digits every key shares are
// skipped, so keys below 2^17 take three passes, not eight. Each pass
// counts and scatters per worker over Chunks, placing worker w's keys of
// digit d after every smaller digit and after the keys of d in lower
// workers' chunks: every pass is stable, so the result is the same for
// any worker count (as it must be: a sorted sequence of integers is
// unique).
func SortInt64s(a []int64) []int64 {
	if len(a) < radixSortMin {
		slices.Sort(a)
		return a
	}
	p := Workers(len(a))
	parts := Accumulate(len(a), p, func(_, lo, hi int) uint64 { return bitsDiffering(a[lo:hi], a[0]) })
	var diff uint64
	for _, d := range parts {
		diff |= d
	}
	if diff == 0 {
		return a
	}
	tmp := make([]int64, len(a))
	counts := make([][256]int, p)
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		clear(counts) // they hold the previous pass's cursors
		Chunks(len(a), p, func(w, lo, hi int) { countDigits(a[lo:hi], &counts[w], shift) })
		pos := 0
		for d := range 256 {
			for w := range counts {
				c := counts[w][d]
				counts[w][d] = pos
				pos += c
			}
		}
		Chunks(len(a), p, func(w, lo, hi int) { scatterDigits(a[lo:hi], tmp, &counts[w], shift) })
		a, tmp = tmp, a
	}
	return a
}

// bitsDiffering ORs together every key's bits that differ from first: a
// digit that is zero in the result is shared by all keys.
//
//graphalint:noalloc
func bitsDiffering(keys []int64, first int64) uint64 {
	var d uint64
	for _, k := range keys {
		d |= uint64(k ^ first)
	}
	return d
}

// digit is the 8-bit digit at shift of the sign-flipped key, so negative
// keys order before non-negative ones.
func digit(key int64, shift uint) uint8 {
	return uint8((uint64(key) ^ 1<<63) >> shift)
}

// countDigits adds the keys' digits at shift to the histogram c.
//
//graphalint:noalloc
func countDigits(keys []int64, c *[256]int, shift uint) {
	for _, k := range keys {
		c[digit(k, shift)]++
	}
}

// scatterDigits places every key at its digit's cursor in dst and advances
// the cursor.
//
//graphalint:noalloc
func scatterDigits(keys, dst []int64, pos *[256]int, shift uint) {
	for _, k := range keys {
		d := digit(k, shift)
		dst[pos[d]] = k
		pos[d]++
	}
}
