package pregel

import (
	"context"
	"math"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/granula"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// bfsProgram: the source starts at depth 0 and floods level numbers; every
// other vertex halts immediately and is reactivated by the first message,
// which (with the min combiner) is its BFS depth.
func bfsProgram(ctx context.Context, t *granula.Tracker, u *uploaded, source int32, combine platform.Combiner) ([]int64, error) {
	n := u.G.NumVertices()
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	r := newRunner[int64](u, combine, 8, nil)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 {
			if v == source {
				depth[v] = 0
				for _, dst := range u.G.OutNeighbors(v) {
					w.Send(dst, 1)
				}
			}
			w.VoteToHalt(v)
			return
		}
		if depth[v] == algorithms.Unreachable && len(msgs) > 0 {
			level := msgs[0]
			for _, m := range msgs[1:] {
				if m < level {
					level = m
				}
			}
			depth[v] = level
			for _, dst := range u.G.OutNeighbors(v) {
				w.Send(dst, level+1)
			}
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return depth, nil
}

// prProgram: superstep 0 distributes the initial rank; supersteps 1..k
// apply the update rule using the sum combiner and the dangling-mass
// aggregator from the previous superstep; superstep k votes to halt.
func prProgram(ctx context.Context, t *granula.Tracker, u *uploaded, iterations int, damping float64, combine platform.Combiner) ([]float64, error) {
	n := u.G.NumVertices()
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	r := newRunner[float64](u, combine, 8, nil)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[float64], v int32, msgs []float64, superstep int) {
		if superstep > 0 {
			sum := 0.0
			//graphalint:orderfree messages arrive in the combined inbox's fixed delivery order (stable CSR scatter, machine-major)
			for _, m := range msgs {
				sum += m
			}
			rank[v] = (1-damping)*inv + damping*(sum+w.Agg()*inv)
		}
		if superstep < iterations {
			out := u.G.OutNeighbors(v)
			if len(out) == 0 {
				w.Aggregate(rank[v])
			} else {
				c := rank[v] / float64(len(out))
				for _, dst := range out {
					w.Send(dst, c)
				}
			}
			return // stay active for the next update
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return rank, nil
}

// wccProgram floods minimum external identifiers over all edges (both
// directions for directed graphs, since components are weak).
func wccProgram(ctx context.Context, t *granula.Tracker, u *uploaded, combine platform.Combiner) ([]int64, error) {
	n := u.G.NumVertices()
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = u.G.VertexID(int32(v))
	}
	r := newRunner[int64](u, combine, 8, nil)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 {
			sendAll(w, u.G, v, labels[v])
			w.VoteToHalt(v)
			return
		}
		best := labels[v]
		for _, m := range msgs {
			if m < best {
				best = m
			}
		}
		if best < labels[v] {
			labels[v] = best
			sendAll(w, u.G, v, best)
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return labels, nil
}

// cdlpScratch is the pooled per-job state of the frontier CDLP program:
// the working labels, the previous superstep's label snapshot, and one
// dense-domain fold counter per thread slot.
type cdlpScratch struct {
	labels []int32
	prev   []int32
	counts mplane.WorkerCounts
}

// cdlpProgram runs frontier-based label propagation: messages are change
// notifications, not the full per-edge label shuffle. Superstep 0 seeds
// every vertex's label to all neighbors (both directions in directed
// graphs); from then on a vertex recomputes only when a neighbor's label
// changed — any incoming message reactivates it — gathering the full
// multiset from the prev-label snapshot (the local replica those
// notifications keep in sync; published at each barrier via onBarrier)
// and sending its own label onward only when it actually moved. Labels
// cannot be combined, so superstep 0 still costs one message per edge,
// but every later superstep's volume — and its wire bytes — shrinks to
// the changed vertices' edges, and the job ends early once a superstep
// changes nothing (no messages, all halted), which is bit-identical to
// running out the iteration budget.
//
// The fold runs on the dense label domain: labels are internal vertex
// indices counted by direct indexing (mplane.LabelCounts; the argmax is
// isomorphic to the external-ID one — see that type) and translated once
// at the end, while the 8-byte label messages keep their wire size. The
// first fold (superstep 1) sees identity labels, so it uses the closed
// form over the sorted adjacency instead of the counter
// (algorithms.CDLPInitLabel). The multiset fold is unchanged from the
// dense rounds: the argmax depends only on the multiset (the vertex's own
// label only decides the empty case), so skipped vertices would have
// recomputed exactly their current label.
func cdlpProgram(ctx context.Context, t *granula.Tracker, u *uploaded, iterations int) ([]int64, error) {
	n := u.G.NumVertices()
	out := make([]int64, n)
	r := newRunner[int64](u, platform.NoCombiner, 8, nil)
	r.tracker = t
	defer r.release()
	sc := mplane.Acquire(u.Scratch(), func() *cdlpScratch {
		return &cdlpScratch{}
	})
	defer u.Scratch().Put(sc)
	sc.counts.Ensure(u.Cl.Threads(), n)
	sc.labels = mplane.Grow(sc.labels, n)
	sc.prev = mplane.Grow(sc.prev, n)
	labels, prev := sc.labels, sc.prev
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	copy(prev, labels[:n])
	r.onBarrier = func(int) { copy(prev, labels[:n]) }
	directed := u.G.Directed()
	compute := func(w *worker[int64], v int32, msgs []int64, superstep int) {
		switch {
		case superstep == 0:
			sendAll(w, u.G, v, int64(u.G.VertexID(v)))
		case len(msgs) > 0 && superstep <= iterations:
			var nl int32
			if superstep == 1 {
				nl = algorithms.CDLPInitLabel(v, u.G.OutNeighbors(v), inNeighbors(u.G, v), directed)
			} else {
				counts := sc.counts.At(w.slot)
				counts.AddOf(prev, u.G.OutNeighbors(v))
				counts.AddOf(prev, inNeighbors(u.G, v))
				nl = counts.BestAndReset(prev[v])
			}
			if nl != labels[v] {
				labels[v] = nl
				if superstep < iterations {
					sendAll(w, u.G, v, int64(u.G.VertexID(nl)))
				}
			}
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	for v := int32(0); v < int32(n); v++ {
		out[v] = u.G.VertexID(labels[v])
	}
	return out, nil
}

// lccProgram: superstep 0 has every vertex send its own index to all
// neighbors, standing for its sorted out-adjacency, which the message is
// priced as (4 bytes per entry plus the count); superstep 1 counts, for
// each sender, the entries of its out-adjacency that lie in the local
// neighborhood, against the thread slot's marks of it. The receiver reads
// the sender's row from the graph, so a message is a plain int32 the
// garbage collector never scans and a pooled inbox pins no row of the
// graph, while the wire bytes, the delivery order and every output bit
// are those of shipping the list. Neighbor-list messages make this the
// engine's most memory-hungry job, matching the paper's LCC failures on
// message-passing platforms.
func lccProgram(ctx context.Context, t *granula.Tracker, u *uploaded) ([]float64, error) {
	g := u.G
	n := g.NumVertices()
	out := make([]float64, n)
	sc := mplane.Acquire(u.Scratch(), func() *lccScratch { return &lccScratch{} })
	defer u.Scratch().Put(sc)
	sc.marks = mplane.Grow(sc.marks, u.Cl.Threads())
	// An undirected vertex's neighborhood is its out-neighbors. A directed
	// one's is the sorted union of its in- and out-neighbors without
	// itself, merged into one pooled buffer: the degree sum bounds every
	// union, so each fits after the last.
	hoodOf := g.OutNeighbors
	if g.Directed() {
		sc.off = mplane.Grow(sc.off, n+1)
		sc.buf = mplane.Grow(sc.buf, 2*int(g.NumEdges()))
		sc.off[0] = 0
		for v := int32(0); v < int32(n); v++ {
			at := sc.off[v]
			sc.off[v+1] = at + int32(len(algorithms.Neighborhood(g.OutNeighbors(v), g.InNeighbors(v), v, true, sc.buf[at:at])))
		}
		hoodOf = func(v int32) []int32 { return sc.buf[sc.off[v]:sc.off[v+1]] }
	}
	sizeOf := func(src int32) int64 { return int64(g.OutDegree(src))*4 + 4 }
	r := newRunner[int32](u, platform.NoCombiner, 0, sizeOf)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[int32], v int32, msgs []int32, superstep int) {
		if superstep == 0 {
			for _, dst := range hoodOf(v) {
				w.Send(dst, v)
			}
			w.VoteToHalt(v)
			return
		}
		hood := hoodOf(v)
		d := len(hood)
		if d >= 2 {
			marks := &sc.marks[w.slot]
			marks.Mark(n, hood)
			arcs := 0
			for _, src := range msgs {
				arcs += marks.Count(g.OutNeighbors(src))
			}
			out[v] = float64(arcs) / (float64(d) * float64(d-1))
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return out, nil
}

// lccScratch is LCC's pooled state: one neighborhood mark array per
// thread slot (machines run one after another, so they share them), and
// the neighborhood buffer of a directed graph, where v's neighborhood is
// buf[off[v]:off[v+1]].
type lccScratch struct {
	marks []algorithms.HoodMarks
	buf   []int32
	off   []int32
}

// sendAll sends label to every neighbor of v, in both directions on a
// directed graph.
func sendAll(w *worker[int64], g *graph.Graph, v int32, label int64) {
	for _, dst := range g.OutNeighbors(v) {
		w.Send(dst, label)
	}
	for _, dst := range inNeighbors(g, v) {
		w.Send(dst, label)
	}
}

// inNeighbors returns v's in-neighbors on a directed graph and nil on an
// undirected one, whose out-neighbors are all of its neighbors.
func inNeighbors(g *graph.Graph, v int32) []int32 {
	if g.Directed() {
		return g.InNeighbors(v)
	}
	return nil
}

// ssspProgram is the classic Pregel SSSP: distance relaxations flow as
// messages with a min combiner.
func ssspProgram(ctx context.Context, t *granula.Tracker, u *uploaded, source int32, combine platform.Combiner) ([]float64, error) {
	n := u.G.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	r := newRunner[float64](u, combine, 8, nil)
	r.tracker = t
	defer r.release()
	relax := func(w *worker[float64], v int32, d float64) {
		ws := u.G.OutWeights(v)
		for i, dst := range u.G.OutNeighbors(v) {
			w.Send(dst, d+ws[i])
		}
	}
	compute := func(w *worker[float64], v int32, msgs []float64, superstep int) {
		if superstep == 0 {
			if v == source {
				dist[v] = 0
				relax(w, v, 0)
			}
			w.VoteToHalt(v)
			return
		}
		best := math.Inf(1)
		for _, m := range msgs {
			if m < best {
				best = m
			}
		}
		if best < dist[v] {
			dist[v] = best
			relax(w, v, best)
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return dist, nil
}
