package pregel

import (
	"context"
	"strconv"

	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// runner is the generic BSP superstep loop over message type T. Its
// state — the message exchange, whose producers are the machine's thread
// slots, the halt votes, the frontier (active) lists and the float64
// aggregator (PageRank's dangling mass) — is engine-lifetime scratch,
// recycled across Execute calls, uploads and deployments through the
// engine's scratch pool, so a superstep allocates nothing once the arenas
// have grown to the largest job so far.
type runner[T mplane.Message] struct {
	u  *uploaded
	ex platform.Exchange[T]
	// tracker, when set, records one Granula sub-phase per superstep with
	// active-vertex and message counts — the fine-grained performance
	// model the Granula modeler defines for vertex-centric platforms.
	tracker *granula.Tracker

	halted  []bool
	active  [][]int32      // per-machine frontier lists, reset per superstep
	workers [][]*worker[T] // [machine][thread slot]
	agg     float64        // aggregated value from the previous superstep
	aggNext float64
	// onBarrier, when set, runs once per superstep in the uncharged
	// inter-superstep region — after message delivery has been swapped in,
	// before the active lists are rebuilt. Programs that keep a replica
	// array in sync with change-notification messages (frontier CDLP's
	// prev-label snapshot) publish it here, the same place the harness
	// already does its own uncharged bookkeeping.
	onBarrier func(superstep int)
}

// worker is the per-thread compute context handed to vertex programs: it
// stages messages into its thread slot's stage, halt votes and aggregator
// contributions, so the compute loop takes no locks. The trailing pad
// keeps concurrently computing workers off each other's cache lines.
type worker[T mplane.Message] struct {
	r     *runner[T]
	slot  int // thread slot, for programs that keep per-thread scratch
	stage *mplane.Stage[T]
	halts []int32
	agg   float64
	_     mplane.CacheLinePad
}

// Send queues a message to dst for the next superstep.
//
//graphalint:noalloc
func (w *worker[T]) Send(dst int32, msg T) { w.stage.Send(dst, msg) }

// VoteToHalt marks the vertex inactive until a message reactivates it.
//
//graphalint:noalloc the halt list reuses its capacity across supersteps
func (w *worker[T]) VoteToHalt(v int32) { w.halts = append(w.halts, v) }

// Aggregate adds x to the global aggregator readable in the next
// superstep.
//
//graphalint:noalloc
func (w *worker[T]) Aggregate(x float64) { w.agg += x }

// Agg returns the aggregator value accumulated during the previous
// superstep.
func (w *worker[T]) Agg() float64 { return w.r.agg }

// reset clears the worker's per-superstep halt votes and aggregate,
// keeping capacity; the exchange empties its stage.
//
//graphalint:noalloc
func (w *worker[T]) reset() {
	w.halts = w.halts[:0]
	w.agg = 0
}

// newRunner checks a runner for message type T out of the engine's
// scratch pool, or builds one. A message costs bytes on the wire, or
// sizeOf(m) when sizeOf is not nil. Callers hand the runner back via
// release so the next job of the engine starts with warm buffers.
func newRunner[T mplane.Message](u *uploaded, combine platform.Combiner, bytes int64, sizeOf func(T) int64) *runner[T] {
	r := mplane.Acquire(u.Scratch(), func() *runner[T] {
		return &runner[T]{}
	})
	n := u.G.NumVertices()
	cl := u.Cl
	r.u = u
	r.tracker = nil
	r.ex.Begin(n, u.part.Owner, cl.Machines(), cl.Threads(), combine, bytes, sizeOf)
	r.halted = mplane.GrowZero(r.halted, n)
	// The frontier lists are refilled by run; the workers keep their slot
	// and halt-list capacity, and a slot past the old capacity is nil.
	r.active = mplane.Grow(r.active, cl.Machines())
	r.workers = mplane.Grow(r.workers, cl.Machines())
	for m := range r.workers {
		ws := mplane.Grow(r.workers[m], cl.Threads())
		for i := range ws {
			if ws[i] == nil {
				ws[i] = &worker[T]{r: r, slot: i}
			}
			ws[i].stage = r.ex.Stage(m, i)
		}
		r.workers[m] = ws
	}
	r.agg, r.aggNext = 0, 0
	r.onBarrier = nil
	return r
}

// release returns the runner's buffers to the engine's scratch pool,
// without the upload, the exchange's size function or the program's
// barrier hook: a pooled runner keeps no job alive.
func (r *runner[T]) release() {
	pool := r.u.Scratch()
	r.u, r.tracker, r.onBarrier = nil, nil, nil
	r.ex.End()
	pool.Put(r)
}

// run executes supersteps until every vertex has halted and no messages
// are in flight. compute is called for every active vertex with the
// messages delivered to it.
func (r *runner[T]) run(ctx context.Context, compute func(w *worker[T], v int32, msgs []T, superstep int)) error {
	cl := r.u.Cl
	part := r.u.part
	// Active vertex lists per machine; initially all vertices.
	for m := range r.active {
		r.active[m] = append(r.active[m][:0], part.Verts[m]...)
	}
	var (
		superstep int
		messages  int64
		verts     []int32      // the active vertices of the machine whose round it is
		workers   []*worker[T] // and its thread slots
	)
	// One compute body serves every superstep, so a superstep allocates
	// nothing for it.
	body := func(wi, lo, hi int) {
		w := workers[wi]
		for _, v := range verts[lo:hi] {
			compute(w, v, r.ex.At(v), superstep)
		}
	}
	round := func(mach int, th *cluster.Threads) error {
		verts, workers = r.active[mach], r.workers[mach]
		for _, w := range workers {
			w.reset()
		}
		th.ChunksIndexed(len(verts), body)
		// Machines run sequentially, so the shared halt flags and
		// aggregator are written race-free, in worker order.
		for _, w := range workers {
			//graphalint:orderfree aggregator folded in machine-major, worker-index order
			r.aggNext += w.agg
			for _, v := range w.halts {
				r.halted[v] = true
			}
		}
		messages += r.ex.Deliver(cl, mach)
		return nil
	}
	total := len(part.Owner)
	for total > 0 {
		if err := platform.CheckContext(ctx); err != nil {
			return err
		}
		if r.tracker != nil {
			r.tracker.Begin("Superstep-" + strconv.Itoa(superstep))
			r.tracker.Annotate("active_vertices", strconv.Itoa(total))
		}
		r.ex.Open()
		messages = 0
		err := cl.RunRound(round)
		if r.tracker != nil {
			r.tracker.Annotate("messages_sent", strconv.FormatInt(messages, 10))
			r.tracker.End()
		}
		if err != nil {
			return err
		}
		// Barrier: swap in the delivered messages, reactivate their
		// recipients, rebuild the active lists.
		r.ex.Barrier(cl)
		r.agg, r.aggNext = r.aggNext, 0
		if r.onBarrier != nil {
			r.onBarrier(superstep)
		}
		superstep++
		total = 0
		for m := range r.active {
			r.active[m] = r.active[m][:0]
			for _, v := range part.Verts[m] {
				if len(r.ex.At(v)) > 0 {
					r.halted[v] = false
				}
				if !r.halted[v] {
					r.active[m] = append(r.active[m], v)
					total++
				}
			}
		}
	}
	return nil
}
