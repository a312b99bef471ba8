package platform

import (
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
)

// Exchange is the message exchange of the message-passing engines
// (pregel, dataflow). A round is: Open; each producer p of machine mach
// (a thread's worker, an edge partition) sends into Stage(mach, p);
// Deliver(cl, mach) once per machine after its producers; Barrier; then
// At(v) reads vertex v's messages.
//
// Messages reach a vertex machine-major, then producer-major, then in
// staging order, whatever the thread schedule. Without a combiner the
// barrier scatters the stages into a CSR inbox in that order
// (mplane.Inbox); with one, Deliver folds them left to right into one
// slot per vertex (mplane.Slots). The current inbox stays readable until
// Barrier, and a warm round allocates nothing. The buffers keep their
// capacity across vertex counts and deployments; End drops what Begin
// took from the job, so a pooled exchange pins nothing.
type Exchange[T any] struct {
	n         int
	owner     []int32        // owner[v] is the machine of vertex v
	producers int            // stages per machine
	size      func(T) int64  // the wire size of one message
	combine   func(a, b T) T // nil: deliver every message

	stages []paddedStage[T] // [machine*producers + producer]
	inbox  mplane.Inbox[T]
	slots  [2]mplane.Slots[T] // the current inbox is slots[cur]
	cur    int
	wire   []int64 // per-destination-machine bytes of one Deliver
}

// paddedStage keeps a producer's slice headers, which every Send writes,
// off its concurrently staging neighbours' cache lines.
type paddedStage[T any] struct {
	mplane.Stage[T]
	_ mplane.CacheLinePad
}

// Begin readies the exchange for n vertices and producers stages per
// machine, with an empty current inbox. combine, when not nil, folds the
// messages to one vertex into one.
//
//graphalint:noalloc steady state: the stages and inboxes grow only past the largest deployment and vertex count so far
func (x *Exchange[T]) Begin(n int, owner []int32, machines, producers int, size func(T) int64, combine func(a, b T) T) {
	x.n, x.owner, x.producers, x.size, x.combine = n, owner, producers, size, combine
	x.stages = mplane.Grow(x.stages, machines*producers)
	x.wire = mplane.Grow(x.wire, machines)
	if combine != nil {
		x.slots[x.cur].Begin(n)
	} else {
		x.inbox.Begin(n)
		x.inbox.Seal()
	}
}

// End drops the job's owner table and message functions, keeping the
// buffers for the next Begin.
func (x *Exchange[T]) End() { x.owner, x.size, x.combine = nil, nil, nil }

// Stage returns producer p's stage on machine mach.
func (x *Exchange[T]) Stage(mach, p int) *mplane.Stage[T] {
	return &x.stages[mach*x.producers+p].Stage
}

// Open empties every stage and opens the next inbox.
//
//graphalint:noalloc steady state: Grow reuses capacity once the inbox fits the vertex count
func (x *Exchange[T]) Open() {
	for i := range x.stages {
		x.stages[i].Reset()
	}
	if x.combine != nil {
		x.slots[1-x.cur].Begin(x.n)
	} else {
		x.inbox.Begin(x.n)
	}
}

// Deliver delivers machine mach's stages, in producer order, into the
// next inbox and returns how many messages they held. A message to
// another machine's vertex is sent there at its size plus 4 bytes (the
// recipient's id). Machines deliver one after another in ascending order,
// as cluster.RunRound runs them.
//
//graphalint:noalloc
func (x *Exchange[T]) Deliver(cl *cluster.Cluster, mach int) (messages int64) {
	wire := x.wire
	clear(wire)
	next := &x.slots[1-x.cur]
	for p := 0; p < x.producers; p++ {
		st := x.Stage(mach, p)
		for i, dst := range st.Dst {
			if o := x.owner[dst]; int(o) != mach {
				wire[o] += x.size(st.Msg[i]) + 4
			}
			if x.combine != nil {
				next.Put(dst, st.Msg[i], x.combine)
			}
		}
		if x.combine == nil {
			x.inbox.Count(st)
		}
		messages += int64(st.Len())
	}
	for o, b := range wire {
		cl.Send(mach, o, b)
	}
	return messages
}

// Barrier makes the delivered messages the current inbox: it swaps the
// slots, or scatters every stage as measured barrier work (the scatter
// needs every machine's counts, so it belongs to no machine's round).
func (x *Exchange[T]) Barrier(cl *cluster.Cluster) {
	if x.combine != nil {
		x.cur = 1 - x.cur
		return
	}
	cl.RunBarrier(x.scatterAll)
}

// scatterAll seals the next inbox and scatters every stage into it.
//
//graphalint:noalloc
func (x *Exchange[T]) scatterAll() {
	x.inbox.Seal()
	for i := range x.stages {
		x.inbox.Scatter(&x.stages[i].Stage)
	}
}

// At returns the messages delivered to vertex v, at most one with a
// combiner. The slice dies at the next Begin or Barrier.
//
//graphalint:noalloc
func (x *Exchange[T]) At(v int32) []T {
	if x.combine != nil {
		return x.slots[x.cur].At(v)
	}
	return x.inbox.At(v)
}
