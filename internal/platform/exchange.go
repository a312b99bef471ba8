package platform

import (
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
)

// Combiner is how an exchange folds the messages to one vertex.
type Combiner uint8

const (
	// NoCombiner delivers every message.
	NoCombiner Combiner = iota
	// SumCombiner delivers one message per vertex: the left-to-right sum
	// of its messages.
	SumCombiner
	// MinCombiner delivers one message per vertex: the minimum of its
	// messages by the builtin min (math.Min's bits on float64).
	MinCombiner
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
// slot per vertex (mplane.Slots), in one direct loop per combiner and
// message type (mplane.FoldSum, mplane.FoldMin). The current inbox stays
// readable until Barrier, and a warm round allocates nothing. The buffers
// keep their capacity across vertex counts and deployments; End drops
// what Begin took from the job, so a pooled exchange pins nothing.
type Exchange[T mplane.Message] struct {
	n         int
	owner     []int32       // owner[v] is the machine of vertex v
	producers int           // stages per machine
	bytes     int64         // the wire size of one message, when sizeOf is nil
	sizeOf    func(T) int64 // the wire size of each message, when sizes vary
	combine   Combiner

	stages []paddedStage[T] // [machine*producers + producer]
	inbox  mplane.Inbox[T]
	slots  [2]mplane.Slots[T] // the current inbox is slots[cur]
	cur    int
	wire   []int64 // per-destination-machine count or bytes of one Deliver
}

// paddedStage keeps a producer's slice headers, which every Send writes,
// off its concurrently staging neighbours' cache lines.
type paddedStage[T any] struct {
	mplane.Stage[T]
	_ mplane.CacheLinePad
}

// Begin readies the exchange for n vertices and producers stages per
// machine, with an empty current inbox. A message costs bytes on the
// wire, or sizeOf(m) when sizeOf is not nil; combine says how the
// messages to one vertex fold.
//
//graphalint:noalloc steady state: the stages and inboxes grow only past the largest deployment and vertex count so far
func (x *Exchange[T]) Begin(n int, owner []int32, machines, producers int, combine Combiner, bytes int64, sizeOf func(T) int64) {
	x.n, x.owner, x.producers, x.combine, x.bytes, x.sizeOf = n, owner, producers, combine, bytes, sizeOf
	x.stages = mplane.Grow(x.stages, machines*producers)
	x.wire = mplane.Grow(x.wire, machines)
	if combine != NoCombiner {
		x.slots[x.cur].Begin(n)
	} else {
		x.inbox.Begin(n)
		x.inbox.Seal()
	}
}

// End drops the job's owner table and size function, keeping the buffers
// for the next Begin.
func (x *Exchange[T]) End() { x.owner, x.sizeOf = nil, nil }

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
	if x.combine != NoCombiner {
		x.slots[1-x.cur].Begin(x.n)
	} else {
		x.inbox.Begin(x.n)
	}
}

// Deliver delivers machine mach's stages, in producer order, into the
// next inbox and returns how many messages they held. A message to
// another machine's vertex is sent there at its size plus 4 bytes (the
// recipient's id); on one machine no message is remote, and none is
// priced. Machines deliver one after another in ascending order, as
// cluster.RunRound runs them.
//
//graphalint:noalloc
func (x *Exchange[T]) Deliver(cl *cluster.Cluster, mach int) (messages int64) {
	next := &x.slots[1-x.cur]
	priced := len(x.wire) > 1
	if priced {
		clear(x.wire)
	}
	for p := 0; p < x.producers; p++ {
		st := x.Stage(mach, p)
		if priced {
			x.price(st)
		}
		switch x.combine {
		case SumCombiner:
			mplane.FoldSum(next, st)
		case MinCombiner:
			mplane.FoldMin(next, st)
		default:
			x.inbox.Count(st)
		}
		messages += int64(st.Len())
	}
	if priced {
		for o, b := range x.wire {
			if x.sizeOf == nil {
				b *= x.bytes + 4
			}
			cl.Send(mach, o, b)
		}
	}
	return messages
}

// price adds a stage's messages to the wire of their recipients'
// machines: their count at a fixed size, their bytes otherwise. The
// delivering machine's own entry collects its local messages too, and
// cluster.Send charges nothing from a machine to itself.
//
//graphalint:noalloc
func (x *Exchange[T]) price(st *mplane.Stage[T]) {
	wire, owner := x.wire, x.owner
	if x.sizeOf == nil {
		for _, dst := range st.Dst {
			wire[owner[dst]]++
		}
		return
	}
	for i, dst := range st.Dst {
		wire[owner[dst]] += x.sizeOf(st.Msg[i]) + 4
	}
}

// Barrier makes the delivered messages the current inbox: it swaps the
// slots, or scatters every stage as measured barrier work (the scatter
// needs every machine's counts, so it belongs to no machine's round).
func (x *Exchange[T]) Barrier(cl *cluster.Cluster) {
	if x.combine != NoCombiner {
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
	if x.combine != NoCombiner {
		return x.slots[x.cur].At(v)
	}
	return x.inbox.At(v)
}
