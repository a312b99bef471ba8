package cluster

import (
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
// Threads owns no goroutines; it is a timing wrapper over the process's
// one host runtime. A region whose cluster has Config.HostWorkers > 1 is
// one par.Chunks call over its chunk indices, split min(chunks,
// HostWorkers) ways, so its chunks run on real cores — the caller's and
// those of the helpers par's pool can lend — each timed on the goroutine
// that runs it. HostWorkers is the par.Workers estimate of the uploaded
// graph, so the tiny graphs where a wake-up costs more than a chunk keep
// running inline. The model does not change with the number of host
// goroutines; only wall time shrinks. Chunks that run at the same time do
// slow each other down on the host (shared caches and memory bandwidth),
// so a modeled duration taken concurrently can be somewhat higher than one
// taken with every chunk alone; GOMAXPROCS=1 restores the latter.
//
// Because chunks may run concurrently, a chunk body must not depend on
// the schedule: it writes only its own range or worker slot, or uses
// atomics whose outcome is order-free. Where a body's result would depend
// on values other chunks write in the same round, as SSSP's distances do,
// it reads them as they stood when the round began.
type Threads struct {
	count       int
	hostWorkers int
	discount    time.Duration
	// The region in flight. A handle's regions never overlap, so one body,
	// one duration buffer and one bound group serve them all and a
	// dispatch allocates nothing.
	body      func(worker, lo, hi int)
	rangeBody func(lo, hi int)
	n         int                      // elements
	chunks    int                      // simulated threads: chunk w is par.ChunkRange(n, chunks, w)
	durs      []time.Duration          // per-chunk durations
	group     func(worker, lo, hi int) // timeGroup, bound once
	// Collect's region: the caller's body, one output buffer per worker,
	// and collectInto bound once.
	collect     func(worker, lo, hi int, out []int32) []int32
	outs        [][]int32
	collectBody func(worker, lo, hi int)
}

// spawnCost is the modeled per-additional-thread coordination cost of one
// parallel region (goroutine wake-up plus barrier hand-off).
const spawnCost = 2 * time.Microsecond

// Count returns the thread budget.
func (t *Threads) Count() int { return t.count }

// Chunks partitions [0, n) into at most Count contiguous ranges and runs
// fn for each, modeling their parallel execution.
func (t *Threads) Chunks(n int, fn func(lo, hi int)) { t.run(n, nil, fn) }

// ChunksIndexed is Chunks with the worker slot exposed. Worker indices are
// in [0, min(Count, n)), and chunk w is always par.ChunkRange(n, chunks, w).
func (t *Threads) ChunksIndexed(n int, fn func(worker, lo, hi int)) { t.run(n, fn, nil) }

// Collect runs fn over [0, n) like ChunksIndexed, handing each worker its
// own buffer, empty and owned by the handle, to extend and return. After
// the join it returns dst[:0] extended with the workers' buffers in worker
// order, so dst may alias what the chunks read. A warm call allocates
// nothing beyond what dst and fn do.
func (t *Threads) Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32 {
	chunks, dst := min(t.count, n), dst[:0]
	for len(t.outs) < chunks {
		t.outs = append(t.outs, nil)
	}
	if t.collectBody == nil {
		t.collectBody = t.collectInto
	}
	t.collect = fn
	t.run(n, t.collectBody, nil)
	for _, out := range t.outs[:chunks] {
		dst = append(dst, out...)
	}
	return dst
}

// collectInto runs Collect's body on chunk w into the worker's buffer.
func (t *Threads) collectInto(w, lo, hi int) { t.outs[w] = t.collect(w, lo, hi, t.outs[w][:0]) }

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
func (t *Threads) run(n int, body func(worker, lo, hi int), rangeBody func(lo, hi int)) {
	if n <= 0 {
		return
	}
	t.body, t.rangeBody = body, rangeBody
	defer t.drop()
	chunks := min(t.count, n)
	if chunks <= 1 {
		t.call(0, 0, n)
		return
	}
	t.n, t.chunks = n, chunks
	if cap(t.durs) < chunks {
		t.durs = make([]time.Duration, chunks)
	}
	t.durs = t.durs[:chunks]
	var wall time.Duration
	if host := min(chunks, t.hostWorkers); host <= 1 {
		for w := range chunks {
			wall += t.timeChunk(w)
		}
	} else {
		if t.group == nil {
			t.group = t.timeGroup
		}
		start := clock.Now()
		par.Chunks(chunks, host, t.group)
		wall = clock.Now().Sub(start)
	}
	maxChunk := time.Duration(0)
	for _, d := range t.durs {
		maxChunk = max(maxChunk, d)
	}
	modeled := maxChunk + spawnCost*time.Duration(chunks-1)
	if saved := wall - modeled; saved > 0 {
		t.discount += saved
	}
}

// call runs the region's body on one chunk.
func (t *Threads) call(w, lo, hi int) {
	if t.body != nil {
		t.body(w, lo, hi)
		return
	}
	t.rangeBody(lo, hi)
}

// timeChunk runs chunk w, records its duration and returns it.
func (t *Threads) timeChunk(w int) time.Duration {
	lo, hi := par.ChunkRange(t.n, t.chunks, w)
	start := clock.Now()
	t.call(w, lo, hi)
	d := clock.Now().Sub(start)
	t.durs[w] = d
	return d
}

// timeGroup runs chunks [lo, hi) in index order, timing each; it is the
// par.Chunks body of a concurrent region.
func (t *Threads) timeGroup(_, lo, hi int) {
	for w := lo; w < hi; w++ {
		t.timeChunk(w)
	}
}

// drop forgets the body, so a pooled handle keeps no caller state alive.
func (t *Threads) drop() { t.body, t.rangeBody, t.collect = nil, nil, nil }
