package dataflow

import (
	"context"
	"math"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// dfScratch is the engine's job-lifetime shuffle plane: one typed mailbox
// per message width (staging buffers plus a CSR inbox), the frontier
// flags of the sparse flows, and the CDLP label histogram. It is checked
// out of the uploaded state's pool per Execute and reset — never
// reallocated — per dataflow stage, so steady-state iterations allocate
// nothing. The seed engine re-materialized a map[int32]M per vertex
// partition per iteration instead; that "fresh hash maps" cost is still
// modeled (the shuffle volume and the Alloc registration are unchanged) —
// only the Go-side garbage is gone.
type dfScratch struct {
	i64 mail[int64]
	f64 mail[float64]
	i32 mail[int32]

	counts   mplane.WorkerCounts // per-thread cdlp counters
	labels   []int32             // cdlp working labels (internal-index domain)
	nextLab  []int32             //
	perVPart []int               // per-vertex-partition update counters
	active   []bool              // frontier flags (bfs, sssp)
	nextActv []bool              //
	hoods    [][]int32           // lcc: per-vertex neighborhood views into i32 inbox
}

// mail is the shuffle state for one message type: a staging buffer per
// edge partition and the shared CSR inbox they are delivered into, plus
// the flow in progress. Its two region bodies read the flow from here, so
// they are built once per mailbox and a flow allocates nothing for them.
type mail[M any] struct {
	stages []stage[M]
	inbox  mplane.Inbox[M]

	flow     flow[M]
	u        *uploaded
	mine     []int // the machine's edge or vertex partitions in this round
	edges    func(lo, hi int)
	vertices func(w, lo, hi int)
}

// stage is one edge partition's staging buffer. Partitions of a machine
// stage concurrently and every Send writes the buffer's slice headers, so
// the pad keeps neighboring partitions' headers on different cache lines.
type stage[M any] struct {
	mplane.Stage[M]
	_ mplane.CacheLinePad
}

// flow is what one aggregateMessages dataflow does with the triplets and
// the delivered messages. send stages a partition's messages. Then either
// applySeg receives every vertex's delivered segment (with the simulated
// thread slot it runs on, for per-thread scratch), or — a reduce-by-key
// stage — the segment is folded left to right with merge in delivery
// order, exactly the order the seed's per-partition hash maps merged in,
// and joined with the vertex dataset via apply.
type flow[M any] struct {
	send     func(em *mplane.Stage[M], ep *edgePartition)
	applySeg func(worker, vpart int, v int32, msgs []M)
	merge    func(a, b M) M
	apply    func(vpart int, v int32, msg M, has bool)
}

// stageEdges is the edge stage's body: it stages the messages of the
// machine's edge partitions [lo, hi).
func (mb *mail[M]) stageEdges(lo, hi int) {
	for _, p := range mb.mine[lo:hi] {
		st := &mb.stages[p].Stage
		st.Reset()
		mb.flow.send(st, mb.u.eparts[p])
	}
}

// applyVertices is the vertex stage's body: it hands every vertex of the
// machine's vertex partitions [lo, hi) its delivered segment.
func (mb *mail[M]) applyVertices(w, lo, hi int) {
	f := &mb.flow
	for _, p := range mb.mine[lo:hi] {
		for _, v := range mb.u.vparts[p] {
			msgs := mb.inbox.At(v)
			switch {
			case f.applySeg != nil:
				f.applySeg(w, p, v, msgs)
			case len(msgs) == 0:
				var zero M
				f.apply(p, v, zero, false)
			default:
				acc := msgs[0]
				for _, m := range msgs[1:] {
					acc = f.merge(acc, m)
				}
				f.apply(p, v, acc, true)
			}
		}
	}
}

// acquireScratch checks the scratch out of the upload's pool.
func acquireScratch(u *uploaded) *dfScratch {
	return mplane.Acquire(&u.scratch, func() *dfScratch {
		return &dfScratch{}
	})
}

// counters returns the per-vertex-partition counter array, zeroed.
//
//graphalint:noalloc steady state: Grow reuses the pooled array once it fits the partition count
func (sc *dfScratch) counters(nvp int) []int {
	sc.perVPart = mplane.GrowZero(sc.perVPart, nvp)
	return sc.perVPart
}

// frontier returns the two frontier-flag arrays, zeroed.
//
//graphalint:noalloc steady state: Grow reuses the pooled arrays once they fit the vertex count
func (sc *dfScratch) frontier(n int) (active, next []bool) {
	sc.active = mplane.GrowZero(sc.active, n)
	sc.nextActv = mplane.GrowZero(sc.nextActv, n)
	return sc.active, sc.nextActv
}

// runFlow executes one aggregateMessages dataflow: an edge-stage round
// that scans every edge partition and stages messages, a shuffle that
// delivers the staged messages into the CSR inbox (machine-major,
// partition-major — the stable order the seed's sequential appends
// produced), and a vertex-stage round that hands every vertex its
// delivered segment (see flow). shipFraction scales the attribute-shuffle
// traffic (1 for dense iterations, the active fraction for sparse ones);
// msgBytes is the wire size of one message. Callers build f's functions
// once per job, not per flow: the mailbox holds them while the flow runs.
func runFlow[M any](ctx context.Context, u *uploaded, mb *mail[M], shipFraction float64, msgBytes int64, f flow[M]) error {
	if err := platform.CheckContext(ctx); err != nil {
		return err
	}
	cl := u.Cl
	if len(mb.stages) != len(u.eparts) {
		mb.stages = make([]stage[M], len(u.eparts))
	}
	if mb.edges == nil {
		mb.edges, mb.vertices = mb.stageEdges, mb.applyVertices
	}
	mb.flow, mb.u = f, u
	defer func() { mb.flow, mb.u, mb.mine = flow[M]{}, nil, nil }()
	mb.inbox.Begin(u.G.NumVertices())

	// Edge stage: scan partitions, stage messages, account the shuffle.
	if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		mine := u.machEparts[mach]
		mb.mine = mine
		th.Chunks(len(mine), mb.edges)
		var wire int64
		single := cl.Machines() == 1 // no message can be remote
		for _, p := range mine {
			st := &mb.stages[p].Stage
			epMach := u.emachine[p]
			if !single {
				for _, dst := range st.Dst {
					if u.machineOf[u.vpartOf[dst]] != epMach {
						wire += msgBytes + 4
					}
				}
			}
			mb.inbox.Count(st)
		}
		cl.Send(mach, (mach+1)%cl.Machines(), wire)
		if shipFraction > 0 {
			cl.Send(mach, (mach+1)%cl.Machines(), int64(float64(u.shipBytes[mach])*shipFraction))
		}
		return nil
	}); err != nil {
		return err
	}

	// Shuffle barrier: scatter stages in the order they were counted.
	// The scatter is global (it needs every machine's counts), so it runs
	// as measured barrier work rather than inside one machine's round.
	cl.RunBarrier(func() {
		mb.inbox.Seal()
		for m := 0; m < cl.Machines(); m++ {
			for _, p := range u.machEparts[m] {
				mb.inbox.Scatter(&mb.stages[p].Stage)
			}
		}
	})

	// Vertex stage: hand every vertex its delivered segment.
	return cl.RunRound(func(mach int, th *cluster.Threads) error {
		mb.mine = u.machVparts[mach]
		th.ChunksIndexed(len(mb.mine), mb.vertices)
		return nil
	})
}

// minInt64 is the min reducer of the BFS and WCC flows.
func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// prFlow is PageRank as iterated aggregateMessages with a sum reducer.
// Source attributes are read straight from the rank vector; the ship
// stage that would move them to the edge partitions is accounted through
// shipBytes, as in the seed.
func prFlow(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	n := u.G.NumVertices()
	if n == 0 {
		return nil, nil
	}
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	directed := u.G.Directed()
	inv := 1.0 / float64(n)
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = inv
	}
	danglingParts := make([]float64, len(u.vparts))
	dangling := 0.0
	//graphalint:orderfree sequential single pass in vertex index order
	for v := 0; v < n; v++ {
		if u.degrees[v] == 0 {
			dangling += rank[v]
		}
	}
	var base float64
	f := flow[float64]{
		send: func(em *mplane.Stage[float64], ep *edgePartition) {
			for i, s := range ep.src {
				d := ep.dst[i]
				if dg := u.degrees[s]; dg > 0 {
					em.Send(d, rank[s]/float64(dg))
				}
				if !directed {
					if dg := u.degrees[d]; dg > 0 {
						em.Send(s, rank[d]/float64(dg))
					}
				}
			}
		},
		merge: func(a, b float64) float64 { return a + b },
		apply: func(vp int, v int32, msg float64, has bool) {
			nv := base
			if has {
				nv = base + damping*msg
			}
			rank[v] = nv
			if u.degrees[v] == 0 {
				//graphalint:orderfree delivery folds run once per vertex in the CSR inbox's fixed vpart-major, vertex-major order
				danglingParts[vp] += nv
			}
		},
	}
	for it := 0; it < iterations; it++ {
		base = (1-damping)*inv + damping*dangling*inv
		for i := range danglingParts {
			danglingParts[i] = 0
		}
		if err := runFlow(ctx, u, &sc.f64, 1, 8, f); err != nil {
			return nil, err
		}
		dangling = 0
		//graphalint:orderfree partials folded in vpart-index order; vpart geometry is fixed at upload, not by host parallelism
		for _, d := range danglingParts {
			dangling += d
		}
	}
	return rank, nil
}

// bfsFlow is Pregel-on-dataflow BFS: every level rescans all edge
// partitions, filtering triplets by the active flag of the source.
func bfsFlow(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	n := u.G.NumVertices()
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	directed := u.G.Directed()
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	active, nextActive := sc.frontier(n)
	active[source] = true
	activeCount := 1
	var updates []int
	f := flow[int64]{
		send: func(em *mplane.Stage[int64], ep *edgePartition) {
			for i, s := range ep.src {
				d := ep.dst[i]
				if active[s] && depth[d] == algorithms.Unreachable {
					em.Send(d, depth[s]+1)
				}
				if !directed && active[d] && depth[s] == algorithms.Unreachable {
					em.Send(s, depth[d]+1)
				}
			}
		},
		merge: minInt64,
		apply: func(vp int, v int32, msg int64, has bool) {
			nextActive[v] = false
			if has && depth[v] == algorithms.Unreachable {
				depth[v] = msg
				nextActive[v] = true
				updates[vp]++
			}
		},
	}
	for activeCount > 0 {
		updates = sc.counters(len(u.vparts))
		frac := float64(activeCount) / float64(n)
		if err := runFlow(ctx, u, &sc.i64, frac, 8, f); err != nil {
			return nil, err
		}
		active, nextActive = nextActive, active
		activeCount = 0
		for _, c := range updates {
			activeCount += c
		}
	}
	return depth, nil
}

// wccFlow floods minimum labels along both triplet directions until no
// vertex changes.
func wccFlow(ctx context.Context, u *uploaded) ([]int64, error) {
	n := u.G.NumVertices()
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = u.G.VertexID(int32(v))
	}
	var changes []int
	f := flow[int64]{
		send: func(em *mplane.Stage[int64], ep *edgePartition) {
			for i, s := range ep.src {
				d := ep.dst[i]
				em.Send(d, labels[s])
				em.Send(s, labels[d])
			}
		},
		merge: minInt64,
		apply: func(vp int, v int32, msg int64, has bool) {
			if has && msg < labels[v] {
				labels[v] = msg
				changes[vp]++
			}
		},
	}
	for {
		changes = sc.counters(len(u.vparts))
		if err := runFlow(ctx, u, &sc.i64, 1, 8, f); err != nil {
			return nil, err
		}
		total := 0
		for _, c := range changes {
			total += c
		}
		if total == 0 {
			break
		}
	}
	return labels, nil
}

// cdlpFlow is frontier-based label propagation on the dataflow plane.
// The first iteration shuffles the full label multiset (one label per
// edge per direction, nothing combinable — the cost that makes CDLP on
// dataflow engines fail the SLA at scale in the paper); every later
// iteration gates the triplet scan on the receiver's dirty flag, so only
// vertices whose neighborhood changed last round get a multiset at all —
// and a dirty vertex still receives its complete multiset, since both
// triplet directions gate on the receiver. Everyone else's segment is
// empty and its label is copied through, which the multiset-only argmax
// makes bit-identical to recomputing (the multiset it would fold is
// unchanged). The attribute-ship fraction and the message volume both
// shrink to the changed frontier, and the loop ends early at a fixpoint.
// The dirty flags are rebuilt between iterations from the changed set —
// uncharged harness bookkeeping, like pregel's active-list rebuild; the
// modeled cost of frontier maintenance is the change-notification traffic
// the gated shuffle already accounts.
//
// The fold runs on the dense label domain: labels are internal vertex
// indices counted by direct indexing (mplane.LabelCounts; the argmax is
// isomorphic to the external-ID one — see that type) and translated once
// at the end; the shuffle ships int32 indices while the charged message
// size stays 12 bytes (id + 8-byte label), so the modeled traffic is
// unchanged. Dense iterations — the first, and any whose changed set
// still blankets the graph — skip the staging machinery entirely and run
// as charge-identical direct folds (see cdlpDenseRound).
func cdlpFlow(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	n := u.G.NumVertices()
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	sc.counts.Ensure(u.Cl.Threads(), n)
	sc.labels = mplane.Grow(sc.labels, n)
	sc.nextLab = mplane.Grow(sc.nextLab, n)
	labels, next := sc.labels, sc.nextLab
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	dirty, changed := sc.frontier(n)
	frac := 1.0
	dense := true // round zero ships everything
	var updates []int
	masked := flow[int32]{
		send: func(em *mplane.Stage[int32], ep *edgePartition) {
			for i, s := range ep.src {
				d := ep.dst[i]
				if dirty[d] {
					em.Send(d, labels[s])
				}
				if dirty[s] {
					em.Send(s, labels[d])
				}
			}
		},
		applySeg: func(w, vp int, v int32, msgs []int32) {
			if len(msgs) == 0 {
				next[v] = labels[v]
				changed[v] = false
				return
			}
			counts := sc.counts.At(w)
			for _, l := range msgs {
				counts.Add(l)
			}
			nl := counts.BestAndReset(labels[v])
			next[v] = nl
			if nl != labels[v] {
				changed[v] = true
				updates[vp]++
			} else {
				changed[v] = false
			}
		},
	}
	for it := 0; it < iterations; it++ {
		updates = sc.counters(len(u.vparts))
		var err error
		if dense {
			err = cdlpDenseRound(ctx, u, &sc.counts, labels, next, changed, updates, frac, it == 0)
		} else {
			err = runFlow(ctx, u, &sc.i32, frac, 12, masked)
		}
		if err != nil {
			return nil, err
		}
		labels, next = next, labels
		total := 0
		for _, c := range updates {
			total += c
		}
		if total == 0 {
			break
		}
		frac = float64(total) / float64(n)
		// While the changed set blankets the graph, skip the mask rebuild
		// and ship the next round dense (over-marking is exact; see
		// algorithms.CDLPScatterWorthwhile).
		dense = !algorithms.CDLPScatterWorthwhile(total, n)
		if !dense && it+1 < iterations {
			clear(dirty)
			for _, ep := range u.eparts {
				for i, s := range ep.src {
					d := ep.dst[i]
					if changed[s] {
						dirty[d] = true
					}
					if changed[d] {
						dirty[s] = true
					}
				}
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		out[v] = u.G.VertexID(labels[v])
	}
	return out, nil
}

// cdlpDenseRound replays one dense CDLP shuffle as pure accounting plus a
// direct fold: in a dense round every edge ships both endpoint labels, so
// the multiset each vertex would receive is exactly the adjacency fold of
// the current label array (algorithms.CDLPFoldVertex) — and on the first
// round, with identity labels, its mode has a closed form over the sorted
// adjacency (algorithms.CDLPInitLabel). The round charges the same wire
// the staged shuffle would — one (id, label) message per edge per
// direction, remote when the edge partition and the receiving vertex
// partition live on different machines, plus the frac-scaled attribute
// ship — without staging a single message, and keeps the same
// round/barrier shape as runFlow. This is an execution-level strength
// reduction only: the charged traffic, the outputs, and the round
// structure are identical to the staged path, which still runs for every
// frontier-masked round.
func cdlpDenseRound(ctx context.Context, u *uploaded, counts *mplane.WorkerCounts, labels, next []int32, changed []bool, updates []int, frac float64, first bool) error {
	if err := platform.CheckContext(ctx); err != nil {
		return err
	}
	cl := u.Cl
	if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		var wire int64
		if cl.Machines() > 1 {
			for _, p := range u.machEparts[mach] {
				ep := u.eparts[p]
				epMach := u.emachine[p]
				for i := range ep.src {
					if u.machineOf[u.vpartOf[ep.dst[i]]] != epMach {
						wire += 16
					}
					if u.machineOf[u.vpartOf[ep.src[i]]] != epMach {
						wire += 16
					}
				}
			}
		}
		cl.Send(mach, (mach+1)%cl.Machines(), wire)
		cl.Send(mach, (mach+1)%cl.Machines(), int64(float64(u.shipBytes[mach])*frac))
		return nil
	}); err != nil {
		return err
	}
	cl.RunBarrier(func() {}) // the shuffle barrier; nothing staged
	g := u.G
	directed := g.Directed()
	return cl.RunRound(func(mach int, th *cluster.Threads) error {
		mine := u.machVparts[mach]
		th.ChunksIndexed(len(mine), func(w, lo, hi int) {
			for _, p := range mine[lo:hi] {
				for _, v := range u.vparts[p] {
					var nl int32
					if first {
						var in []int32
						if directed {
							in = g.InNeighbors(v)
						}
						nl = algorithms.CDLPInitLabel(v, g.OutNeighbors(v), in, directed)
					} else {
						nl = algorithms.CDLPFoldVertex(g, labels, v, counts.At(w))
					}
					next[v] = nl
					if nl != labels[v] {
						changed[v] = true
						updates[p]++
					} else {
						changed[v] = false
					}
				}
			}
		})
		return nil
	})
}

// lccFlow runs two aggregations: the first materializes every vertex's
// neighborhood as a shuffled id segment; the second intersects the
// neighborhoods across each triplet and shuffles one credit per closed
// wedge. The intermediate data dwarfs the graph, which is exactly why the
// paper's dataflow platform cannot finish LCC within the SLA at scale.
func lccFlow(ctx context.Context, u *uploaded) ([]float64, error) {
	n := u.G.NumVertices()
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	directed := u.G.Directed()
	sc.hoods = mplane.GrowZero(sc.hoods, n)
	hoods := sc.hoods
	err := runFlow(ctx, u, &sc.i32, 1, 8, flow[int32]{
		send: func(em *mplane.Stage[int32], ep *edgePartition) {
			for i, s := range ep.src {
				d := ep.dst[i]
				em.Send(d, s)
				em.Send(s, d)
			}
		},
		applySeg: func(_, _ int, v int32, msg []int32) {
			if len(msg) == 0 {
				hoods[v] = nil
				return
			}
			// The segment aliases the i32 inbox, which stays untouched for
			// the rest of the job (the credit shuffle uses the i64 mailbox),
			// so the deduplicated neighborhood can live in place.
			slices.Sort(msg)
			uniq := msg[:0]
			for i, x := range msg {
				if x == v {
					continue
				}
				if i > 0 && len(uniq) > 0 && uniq[len(uniq)-1] == x {
					continue
				}
				uniq = append(uniq, x)
			}
			hoods[v] = uniq
		},
	})
	if err != nil {
		return nil, err
	}
	credits := make([]int64, n)
	err = runFlow(ctx, u, &sc.i64, 1, 12, flow[int64]{
		send: func(em *mplane.Stage[int64], ep *edgePartition) {
			for i, a := range ep.src {
				b := ep.dst[i]
				weight := int64(1)
				if !directed {
					// A stored undirected edge represents both arcs.
					weight = 2
				}
				ha, hb := hoods[a], hoods[b]
				x, y := 0, 0
				for x < len(ha) && y < len(hb) {
					switch {
					case ha[x] < hb[y]:
						x++
					case hb[y] < ha[x]:
						y++
					default:
						em.Send(ha[x], weight)
						x++
						y++
					}
				}
			}
		},
		merge: func(a, b int64) int64 { return a + b },
		apply: func(vp int, v int32, msg int64, has bool) {
			if has {
				credits[v] = msg
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		d := len(hoods[v])
		if d >= 2 {
			out[v] = float64(credits[v]) / (float64(d) * float64(d-1))
		}
	}
	return out, nil
}

// ssspFlow is Pregel-on-dataflow SSSP with a min reducer.
func ssspFlow(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	n := u.G.NumVertices()
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	directed := u.G.Directed()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	active, nextActive := sc.frontier(n)
	active[source] = true
	activeCount := 1
	var updates []int
	f := flow[float64]{
		send: func(em *mplane.Stage[float64], ep *edgePartition) {
			for i, s := range ep.src {
				d := ep.dst[i]
				w := ep.w[i]
				if active[s] {
					em.Send(d, dist[s]+w)
				}
				if !directed && active[d] {
					em.Send(s, dist[d]+w)
				}
			}
		},
		merge: math.Min,
		apply: func(vp int, v int32, msg float64, has bool) {
			nextActive[v] = false
			if has && msg < dist[v] {
				dist[v] = msg
				nextActive[v] = true
				updates[vp]++
			}
		},
	}
	for activeCount > 0 {
		updates = sc.counters(len(u.vparts))
		frac := float64(activeCount) / float64(n)
		if err := runFlow(ctx, u, &sc.f64, frac, 8, f); err != nil {
			return nil, err
		}
		active, nextActive = nextActive, active
		activeCount = 0
		for _, c := range updates {
			activeCount += c
		}
	}
	return dist, nil
}
