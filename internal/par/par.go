// Package par is the repository's shared deterministic fork-join runtime.
// It grew out of the graph builder's private helpers and now backs every
// parallel hot path on the harness side: the CSR builder, the parallel
// reference kernels, and the simulated thread pool's chunk geometry.
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
// for each, concurrently when p > 1. Empty chunks (p > n) are skipped but
// worker indices stay aligned with chunk indices — even when p > 1 and
// only one chunk is non-empty, that chunk keeps its own index so ordered
// reductions attribute it correctly. Chunks returns when all workers have
// finished (fork-join). If workers panic, Chunks re-raises the lowest
// worker's panic value on the caller once all have finished.
func Chunks(n, p int, fn func(worker, lo, hi int)) {
	if p <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	// One struct, so the join and the panic record escape as one
	// allocation.
	var j struct {
		wg    sync.WaitGroup
		fault Panics
	}
	for w := 0; w < p; w++ {
		lo, hi := ChunkRange(n, p, w)
		if lo == hi {
			continue
		}
		j.wg.Add(1)
		go func(w, lo, hi int) {
			defer j.wg.Done()
			defer j.fault.Catch(w)
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	j.wg.Wait()
	j.fault.Repanic()
}

// Panics carries a panic from the goroutines of a fork-join region to the
// goroutine that joins them. A panic left on a goroutine of its own ends
// the process, beyond any caller's recover; re-raising it after the join
// lets the caller fail one job instead. Of several panics the lowest
// slot's is kept, so which value the caller sees does not depend on the
// schedule. The zero value records no panic.
type Panics struct {
	mu   sync.Mutex
	set  bool
	slot int
	val  any
}

// Catch recovers a panic of the goroutine running slot and records it. It
// must be deferred directly by that goroutine.
func (p *Panics) Catch(slot int) {
	v := recover()
	if v == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.set || slot < p.slot {
		p.set, p.slot, p.val = true, slot, v
	}
}

// Repanic re-raises the recorded panic, if any. Call it once every
// goroutine that may Catch has been joined.
func (p *Panics) Repanic() {
	if p.set {
		panic(p.val)
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
