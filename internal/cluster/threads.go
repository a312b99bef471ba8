package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphalytics/internal/clock"
	"graphalytics/internal/par"
)

// Threads simulates a machine's thread pool. A parallel region splits
// [0, n) into min(Count, n) chunks — the same geometry as the real parallel
// runtime (par.ChunkRange) — times every chunk on the goroutine that runs
// it, and models the region's parallel duration as
//
//	max(chunk durations) + spawnCost * (chunks - 1)
//
// The difference between the region's measured wall time and the modeled
// duration is accumulated as a "discount" that RunRound subtracts from the
// machine's measured wall time. Everything outside regions (message
// delivery, merges, barriers) stays at full measured cost, so Amdahl
// behavior — sequential sections capping speedup — emerges honestly, as
// does imbalance across chunks.
//
// The simulated threads run on real cores where the host has them: a
// region's chunks are spread over up to k goroutines — the caller plus
// helpers borrowed, without blocking, from one process-wide pool of at
// most GOMAXPROCS−1 persistent helpers — and goroutine g runs chunks
// par.ChunkRange(chunks, k, g) in index order. k is also capped by the
// cluster's Config.HostWorkers, the par.Workers estimate of the uploaded
// graph, so the tiny graphs where a wake-up costs more than a chunk keep
// running inline. The model does not change with k; only wall time
// shrinks. Chunks that run at the same time do slow each other down on the
// host (shared caches and memory bandwidth), so a modeled duration taken
// at k > 1 can be somewhat higher than one taken with every chunk alone;
// GOMAXPROCS=1 restores the latter.
//
// Because chunks may run concurrently, a chunk body must not depend on
// the schedule: it writes only its own range or worker slot, or uses
// atomics whose outcome is order-free. Gauss–Seidel bodies, whose chunks
// read what earlier chunks wrote, use ChunksInOrder instead.
type Threads struct {
	count       int
	hostWorkers int
	discount    time.Duration
	// r is the region in flight. A handle's regions never overlap, so one
	// region, its duration buffer and its join counter serve them all and
	// a dispatch allocates nothing.
	r region
}

// spawnCost is the modeled per-additional-thread coordination cost of one
// parallel region (goroutine wake-up plus barrier hand-off).
const spawnCost = 2 * time.Microsecond

// Count returns the thread budget.
func (t *Threads) Count() int { return t.count }

// Chunks partitions [0, n) into at most Count contiguous ranges and runs
// fn for each, modeling their parallel execution.
func (t *Threads) Chunks(n int, fn func(lo, hi int)) { t.run(n, nil, fn, false) }

// ChunksIndexed is Chunks with the worker slot exposed. Worker indices are
// in [0, min(Count, n)), and chunk w is always par.ChunkRange(n, chunks, w).
func (t *Threads) ChunksIndexed(n int, fn func(worker, lo, hi int)) { t.run(n, fn, nil, false) }

// ChunksInOrder is ChunksIndexed with the chunks run one after another, in
// index order, on the calling goroutine. It is for Gauss–Seidel bodies,
// whose chunks read what earlier chunks wrote, so that what a round
// computes does not depend on the host's schedule.
func (t *Threads) ChunksInOrder(n int, fn func(worker, lo, hi int)) { t.run(n, fn, nil, true) }

// For runs fn(i) for every i in [0, n) across the simulated threads.
func (t *Threads) For(n int, fn func(i int)) {
	t.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// run runs one parallel region over [0, n); exactly one of body and
// rangeBody is set.
func (t *Threads) run(n int, body func(worker, lo, hi int), rangeBody func(lo, hi int), inOrder bool) {
	if n <= 0 {
		return
	}
	chunks := min(t.count, n)
	r := &t.r
	r.body, r.rangeBody = body, rangeBody
	defer r.drop()
	if chunks <= 1 {
		r.call(0, 0, n)
		return
	}
	k := 1
	if want := min(chunks, t.hostWorkers) - 1; want > 0 && !inOrder {
		k += takeHelpers(want)
	}
	var wall time.Duration
	r.n, r.chunks, r.k = n, chunks, k
	if cap(r.durs) < chunks {
		r.durs = make([]time.Duration, chunks)
	}
	r.durs = r.durs[:chunks]
	if k == 1 {
		for w := range chunks {
			wall += r.timeChunk(w)
		}
	} else {
		wall = r.fork()
	}
	maxChunk := time.Duration(0)
	for _, d := range r.durs {
		maxChunk = max(maxChunk, d)
	}
	modeled := maxChunk + spawnCost*time.Duration(chunks-1)
	if saved := wall - modeled; saved > 0 {
		t.discount += saved
	}
}

// region is one parallel region's dispatch state, shared by the caller
// and the helpers it borrowed.
type region struct {
	body      func(worker, lo, hi int)
	rangeBody func(lo, hi int)
	n         int // elements
	chunks    int // simulated threads: chunk w is par.ChunkRange(n, chunks, w)
	k         int // goroutines: g runs chunks par.ChunkRange(chunks, k, g)
	next      atomic.Int32
	durs      []time.Duration // per-chunk durations
	join      sync.WaitGroup
	fault     par.Panics // what the helpers' goroutine slots panicked with
}

// call runs the region's body on one chunk.
func (r *region) call(w, lo, hi int) {
	if r.body != nil {
		r.body(w, lo, hi)
		return
	}
	r.rangeBody(lo, hi)
}

// timeChunk runs chunk w, records its duration and returns it.
func (r *region) timeChunk(w int) time.Duration {
	lo, hi := par.ChunkRange(r.n, r.chunks, w)
	start := clock.Now()
	r.call(w, lo, hi)
	d := clock.Now().Sub(start)
	r.durs[w] = d
	return d
}

// runGroup runs goroutine g's chunks in index order.
func (r *region) runGroup(g int) {
	lo, hi := par.ChunkRange(r.chunks, r.k, g)
	for w := lo; w < hi; w++ {
		r.timeChunk(w)
	}
}

// fork hands goroutines 1..k-1 to the borrowed helpers, runs goroutine 0
// itself, and returns the region's wall time once all have joined. A
// panic in a helper's chunk is re-raised here, after the join; with
// panics in several goroutines the lowest one's wins, which is the
// caller's own when goroutine 0 panicked.
func (r *region) fork() time.Duration {
	r.next.Store(0)
	r.fault = par.Panics{} // the last fork's record, if it panicked
	r.join.Add(r.k - 1)
	defer r.release(r.k - 1)
	start := clock.Now()
	for range r.k - 1 {
		helpers.work <- r
	}
	r.runGroup(0)
	r.join.Wait()
	r.fault.Repanic()
	return clock.Now().Sub(start)
}

// release waits for the helpers — also when the caller's own chunks
// panicked, so none is left running a finished region — and returns them
// to the pool.
func (r *region) release(lent int) {
	r.join.Wait()
	helpers.lent.Add(int32(-lent))
}

// drop forgets the body, so a pooled handle keeps no caller state alive.
func (r *region) drop() { r.body, r.rangeBody = nil, nil }

// helpers is the process-wide pool every cluster's regions borrow from.
var helpers = struct {
	work    chan *region
	lent    atomic.Int32 // helpers working for a region
	mu      sync.Mutex   // guards started
	started int32
}{work: make(chan *region)}

// takeHelpers borrows up to want helpers without blocking, so that no more
// than GOMAXPROCS−1 work for regions at once, and returns how many it got.
// Helpers are started lazily and then live for the process.
func takeHelpers(want int) int {
	budget := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		lent := helpers.lent.Load()
		got := min(int32(want), budget-lent)
		if got <= 0 {
			return 0
		}
		if helpers.lent.CompareAndSwap(lent, lent+got) {
			startHelpers(lent + got)
			return int(got)
		}
	}
}

// startHelpers makes sure at least n helpers are running.
func startHelpers(n int32) {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	for ; helpers.started < n; helpers.started++ {
		go helper()
	}
}

// helper runs goroutine slots of the regions it is handed, one at a time.
func helper() {
	for r := range helpers.work {
		r.runHelped(int(r.next.Add(1)))
	}
}

// runHelped runs goroutine g on a helper, recording a panic for the
// region's caller instead of ending the process, so the helper stays in
// the pool.
func (r *region) runHelped(g int) {
	defer r.join.Done()
	defer r.fault.Catch(g)
	r.runGroup(g)
}
