// Package mplane is the engines' shared zero-allocation message plane:
// the per-round hot-path data structures every simulated platform routes
// its messages, frontiers and label histograms through.
//
// The engines in internal/platforms are deliberately faithful to their
// originals' cost *profiles* (message volume, traffic, scan shape), but
// the seed implementations also paid a Go-specific tax the originals do
// not: per-superstep [][]T inboxes, fresh map[K]V shuffle merges every
// round, and map[int64]int label histograms per chunk. That garbage both
// slows Execute and injects GC noise into exactly the timings the
// benchmark's repeatability experiment (Table 11) measures. This package
// removes the tax without changing a single output bit:
//
//   - Stage[T] is a flat structure-of-arrays (dst, payload) staging
//     buffer. Producers append during the compute phase and the buffer is
//     reset — never reallocated — each round.
//   - Inbox[T] turns a set of stages into a CSR-style per-vertex inbox
//     (offsets plus one flat payload slice) with the same stable
//     counting-sort scatter the graph builder uses: counting and
//     scattering stages in a fixed order reproduces the exact delivery
//     order of the seed's append-based [][]T inboxes, so per-vertex
//     message order — and therefore every order-sensitive fold — is
//     bit-identical.
//   - Slots[T] is the combiner fast path: one generation-stamped value
//     slot per vertex, folded left to right in delivery order. A combined
//     inbox holds at most one message, so it never needs offsets at all.
//   - Histogram is a generation-stamped open-addressing counter for
//     int64 label multisets, replacing make(map[int64]int) in the CDLP
//     hot loop of five engines. Reset is O(1); Best applies the
//     specification's (highest count, smallest label) tie-break, which is
//     order-independent, so replacing map iteration cannot change a
//     result.
//   - Pool is a type-keyed scratch cache engines hang off their uploaded
//     state, making the arenas job-lifetime: repeated Execute calls on
//     one upload (the repeatability experiment's exact shape) reuse every
//     buffer, and algorithm sweeps that alternate message types keep one
//     warm arena per type.
//
// Determinism contract: for a fixed sequence of operations, every type in
// this package produces bit-identical results regardless of how often its
// buffers were reused, grown, or recycled through a Pool. The package has
// no goroutines and no locks except Pool's; callers own all sequencing.
// The cluster simulator runs machines one after another but a machine's
// simulated threads concurrently, so a value is either written by one
// machine's sequential delivery code or owned by one worker slot
// (Stage per producer, WorkerCounts per thread).
package mplane

import (
	"reflect"
	"sync"
)

// Grow returns s resized to length n, reusing the existing capacity when
// possible. The contents are unspecified; callers overwrite every element
// or track a fill cursor.
func Grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// GrowZero returns s resized to length n with every element zeroed.
func GrowZero[E any](s []E, n int) []E {
	s = Grow(s, n)
	clear(s)
	return s
}

// Stage is a structure-of-arrays message staging buffer: parallel slices
// of destination vertices and payloads, appended by one producer (a
// simulated thread's worker, or one edge partition's send scan) during a
// compute phase.
type Stage[T any] struct {
	Dst []int32
	Msg []T
}

// Send stages one message for vertex dst.
//
//graphalint:noalloc appends reuse the stage's capacity; growth amortizes to the round's high-water mark
func (s *Stage[T]) Send(dst int32, m T) {
	s.Dst = append(s.Dst, dst)
	s.Msg = append(s.Msg, m)
}

// Len returns the number of staged messages.
func (s *Stage[T]) Len() int { return len(s.Dst) }

// Reset empties the stage, keeping its capacity.
//
//graphalint:noalloc
func (s *Stage[T]) Reset() {
	s.Dst = s.Dst[:0]
	s.Msg = s.Msg[:0]
}

// Inbox is a CSR-style per-vertex inbox: the messages delivered to vertex
// v occupy buf[off[v]:off[v+1]], in exactly the order the stages were
// counted and scattered. One round is:
//
//	ib.Begin(n)                  // zero the counters
//	ib.Count(st) for each stage  // in delivery order
//	ib.Seal()                    // prefix-sum counters into offsets
//	ib.Scatter(st) for each stage, in the same order as Count
//	ib.At(v)                     // read segments
//
// Count/Scatter in a fixed stage order is a stable counting sort, so the
// segment of a vertex preserves global delivery order — the property that
// keeps order-sensitive folds (floating-point sums, min chains) bit-
// identical to the seed's append-based delivery. The counting phase may
// run interleaved with other work (the cluster's sequential machine
// bodies); Seal and Scatter run once per round, after all counting.
//
// All arrays are retained across rounds and across jobs (via Pool), so a
// steady-state round allocates nothing once the buffers have grown to the
// round's message volume. Offsets are int32: one round's message volume
// must stay below 2^31, which holds by orders of magnitude for every
// catalog dataset.
type Inbox[T any] struct {
	cnt []int32 // per-vertex message count, filled by Count
	off []int32 // n+1 offsets, built by Seal
	cur []int32 // per-vertex write cursors during Scatter
	buf []T     // flat payload storage
	n   int
}

// Begin starts a delivery round for n vertices, zeroing the counters. The
// previous round's offsets and payloads stay readable until Seal.
//
//graphalint:noalloc steady state: Grow reuses capacity once buffers reach the round's message volume
func (ib *Inbox[T]) Begin(n int) {
	ib.n = n
	ib.cnt = GrowZero(ib.cnt, n)
}

// Count tallies a stage's destinations. Stages must be counted in
// delivery order, the same order they are later scattered in.
//
//graphalint:noalloc
func (ib *Inbox[T]) Count(st *Stage[T]) {
	for _, dst := range st.Dst {
		ib.cnt[dst]++
	}
}

// Seal prefix-sums the counters into offsets and prepares the payload
// buffer. After Seal the previous round's segments are dead.
//
//graphalint:noalloc steady state: Grow reuses capacity once buffers reach the round's message volume
func (ib *Inbox[T]) Seal() {
	n := ib.n
	ib.off = Grow(ib.off, n+1)
	ib.cur = Grow(ib.cur, n)
	var total int32
	for v := 0; v < n; v++ {
		ib.off[v] = total
		ib.cur[v] = total
		total += ib.cnt[v]
	}
	ib.off[n] = total
	ib.buf = Grow(ib.buf, int(total))
}

// Scatter delivers a stage's messages into the sealed layout. Stages must
// be scattered in the same order they were counted.
//
//graphalint:noalloc
func (ib *Inbox[T]) Scatter(st *Stage[T]) {
	for i, dst := range st.Dst {
		k := ib.cur[dst]
		ib.buf[k] = st.Msg[i]
		ib.cur[dst] = k + 1
	}
}

// At returns the messages delivered to vertex v this round, in delivery
// order. The slice aliases the inbox and dies at the next Seal.
//
//graphalint:noalloc
func (ib *Inbox[T]) At(v int32) []T { return ib.buf[ib.off[v]:ib.off[v+1]] }

// Total returns the number of messages delivered this round.
func (ib *Inbox[T]) Total() int {
	if ib.n == 0 {
		return 0
	}
	return int(ib.off[ib.n])
}

// Slots is the combined-inbox fast path: at most one message per vertex,
// folded on delivery. A generation stamp marks which slots hold a message
// this round, so Begin is O(1) amortized instead of clearing n slots.
type Slots[T any] struct {
	val []T
	gen []uint32
	cur uint32
}

// Begin starts a delivery round for n vertices, invalidating all slots.
//
//graphalint:noalloc steady state: the slot arrays are reallocated only when the vertex count changes
func (s *Slots[T]) Begin(n int) {
	if len(s.gen) != n {
		s.val = Grow(s.val, n)
		s.gen = GrowZero(s.gen, n)
		s.cur = 0
	}
	s.cur++
	if s.cur == 0 { // generation counter wrapped: re-zero the stamps
		clear(s.gen)
		s.cur = 1
	}
}

// Put delivers one message to vertex v, combining it left to right with a
// message already in the slot.
//
//graphalint:noalloc
func (s *Slots[T]) Put(v int32, m T, combine func(a, b T) T) {
	if s.gen[v] != s.cur {
		s.gen[v] = s.cur
		s.val[v] = m
		return
	}
	s.val[v] = combine(s.val[v], m)
}

// Has reports whether vertex v received a message this round.
func (s *Slots[T]) Has(v int32) bool { return s.gen[v] == s.cur }

// At returns vertex v's combined inbox as a zero- or one-element slice
// aliasing the slot, mirroring Inbox.At for engine code that treats both
// paths uniformly.
//
//graphalint:noalloc
func (s *Slots[T]) At(v int32) []T {
	if s.gen[v] != s.cur {
		return nil
	}
	return s.val[v : v+1 : v+1]
}

// Pool is a scratch cache with one slot per concrete type. Engines store
// one per uploaded graph; Execute checks its scratch out at the start of
// a job and returns it at the end, so back-to-back jobs on the same
// upload — the repeatability experiment's shape — reuse the entire
// message plane. The slots are keyed by type because an algorithm sweep
// over one upload alternates message types (a pregel suite runs
// runner[int64], runner[float64] and runner[[]int32] jobs): each type's
// arena survives the others' jobs instead of being evicted on every
// switch. If two jobs ever race on one upload the loser simply allocates
// fresh scratch; no state is shared.
type Pool struct {
	mu    sync.Mutex
	slots map[reflect.Type]any
}

// Put returns a value to its type's slot, replacing any present.
func (p *Pool) Put(v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slots == nil {
		p.slots = make(map[reflect.Type]any)
	}
	p.slots[reflect.TypeOf(v)] = v
}

// Acquire checks the pool's cached *S out, or returns mk() when the slot
// is empty or checked out by a concurrent job.
func Acquire[S any](p *Pool, mk func() *S) *S {
	t := reflect.TypeOf((*S)(nil))
	p.mu.Lock()
	v := p.slots[t]
	delete(p.slots, t)
	p.mu.Unlock()
	if s, ok := v.(*S); ok && s != nil {
		return s
	}
	return mk()
}
