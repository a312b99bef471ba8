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

// dfScratch is the engine's pooled shuffle plane: one typed mailbox per
// message width (a message exchange), the frontier flags of the sparse
// flows, and the CDLP label histogram. It is checked out of the engine's
// pool per Execute and reset — never reallocated — per dataflow stage, so
// steady-state iterations allocate nothing. The seed engine
// re-materialized a map[int32]M per vertex partition per iteration
// instead; that "fresh hash maps" cost is still modeled (the shuffle
// volume and the Alloc registration are unchanged) — only the Go-side
// garbage is gone.
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
	hoodLen  []int32             // lcc: v's neighborhood is the first hoodLen[v] entries of its i32 inbox segment
}

// mail is the shuffle state for one message type: a message exchange
// whose producers are a machine's edge partitions, plus the flow in
// progress. Its region bodies read the flow from here, so they are bound
// once per mailbox and a flow allocates nothing for them.
type mail[M mplane.Message] struct {
	ex platform.Exchange[M]

	flow     flow[M]
	u        *uploaded
	mach     int // the machine whose round it is
	edges    func(lo, hi int)
	vertices func(w, lo, hi int)
}

// flow is what one aggregateMessages dataflow does with the triplets and
// the delivered messages. send stages a partition's messages; apply
// receives every vertex's delivered messages, with the simulated thread
// slot it runs on (for per-thread scratch). merge is the reducer of a
// reduce-by-key stage (NoCombiner for a plain shuffle): it folds a
// vertex's messages left to right in delivery order, exactly the order
// the seed's per-partition hash maps merged in, so apply receives at
// most one.
type flow[M any] struct {
	send  func(em *mplane.Stage[M], p int)
	merge platform.Combiner
	apply func(worker, vpart int, v int32, msgs []M)
}

// stageEdges is the edge stage's body: it stages the messages of the
// machine's edge partitions [lo, hi), each into its own stage.
func (mb *mail[M]) stageEdges(lo, hi int) {
	for k := lo; k < hi; k++ {
		mb.flow.send(mb.ex.Stage(mb.mach, k), mb.mach+k*mb.u.Cl.Machines())
	}
}

// applyVertices is the vertex stage's body: it hands every vertex of the
// machine's vertex partitions [lo, hi) its delivered messages.
func (mb *mail[M]) applyVertices(w, lo, hi int) {
	n, nvp := int32(mb.u.G.NumVertices()), int32(mb.u.nvp)
	for k := lo; k < hi; k++ {
		p := mb.mach + k*mb.u.Cl.Machines()
		for v := int32(p); v < n; v += nvp {
			mb.flow.apply(w, p, v, mb.ex.At(v))
		}
	}
}

// acquireScratch checks the scratch out of the engine's pool.
func acquireScratch(u *uploaded) *dfScratch {
	return mplane.Acquire(u.Scratch(), func() *dfScratch {
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
// delivers them through the mailbox's exchange (machine-major,
// partition-major — the stable order the seed's sequential appends
// produced), and a vertex-stage round that hands every vertex its
// delivered messages (see flow). shipFraction scales the attribute-shuffle
// traffic (1 for dense iterations, the active fraction for sparse ones);
// msgBytes is the wire size of one message. Callers build f's functions
// once per job, not per flow: the mailbox holds them while the flow runs.
func runFlow[M mplane.Message](ctx context.Context, u *uploaded, mb *mail[M], shipFraction float64, msgBytes int64, f flow[M]) error {
	if err := platform.CheckContext(ctx); err != nil {
		return err
	}
	cl := u.Cl
	if mb.edges == nil {
		mb.edges, mb.vertices = mb.stageEdges, mb.applyVertices
	}
	mb.flow, mb.u = f, u
	defer func() {
		mb.flow, mb.u = flow[M]{}, nil // a pooled mailbox keeps no job alive
		mb.ex.End()
	}()
	mb.ex.Begin(u.G.NumVertices(), u.owner, cl.Machines(), edgePartsPerMachine, f.merge, msgBytes, nil)
	mb.ex.Open()

	// Edge stage: scan partitions, stage and deliver messages, account
	// the attribute shuffle.
	if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		mb.mach = mach
		th.Chunks(edgePartsPerMachine, mb.edges)
		mb.ex.Deliver(cl, mach)
		if shipFraction > 0 {
			cl.Send(mach, (mach+1)%cl.Machines(), int64(float64(u.shipBytes[mach])*shipFraction))
		}
		return nil
	}); err != nil {
		return err
	}
	mb.ex.Barrier(cl)

	// Vertex stage: hand every vertex its delivered messages.
	return cl.RunRound(func(mach int, th *cluster.Threads) error {
		mb.mach = mach
		th.ChunksIndexed(vertexPartsPerMachine, mb.vertices)
		return nil
	})
}

// prFlow is PageRank as iterated aggregateMessages with a sum reducer.
// Source attributes are read straight from the share vector; the ship
// stage that would move them to the edge partitions is accounted through
// shipBytes, as in the seed.
func prFlow(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	n := u.G.NumVertices()
	if n == 0 {
		return nil, nil
	}
	sc := acquireScratch(u)
	defer u.Scratch().Put(sc)
	directed := u.G.Directed()
	inv := 1.0 / float64(n)
	rank := make([]float64, n)
	// share[v] is rank[v] / outdegree(v), what v sends along each arc. Both
	// ends of a stored arc have one, so every sender's share is set.
	share := make([]float64, n)
	danglingParts := make([]float64, u.nvp)
	dangling := 0.0
	//graphalint:orderfree sequential single pass in vertex index order
	for v := int32(0); v < int32(n); v++ {
		rank[v] = inv
		if dg := u.G.OutDegree(v); dg > 0 {
			share[v] = inv / float64(dg)
		} else {
			dangling += inv
		}
	}
	var base float64
	f := flow[float64]{
		send: func(em *mplane.Stage[float64], p int) {
			for s, d := range u.arcs(p) {
				em.Send(d, share[s])
				if !directed {
					em.Send(s, share[d])
				}
			}
		},
		merge: platform.SumCombiner,
		apply: func(_, vp int, v int32, msgs []float64) {
			nv := base
			if len(msgs) > 0 {
				nv = base + damping*msgs[0]
			}
			rank[v] = nv
			if dg := u.G.OutDegree(v); dg > 0 {
				share[v] = nv / float64(dg)
			} else {
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
	defer u.Scratch().Put(sc)
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
		send: func(em *mplane.Stage[int64], p int) {
			for s, d := range u.arcs(p) {
				if active[s] && depth[d] == algorithms.Unreachable {
					em.Send(d, depth[s]+1)
				}
				if !directed && active[d] && depth[s] == algorithms.Unreachable {
					em.Send(s, depth[d]+1)
				}
			}
		},
		merge: platform.MinCombiner,
		apply: func(_, vp int, v int32, msgs []int64) {
			nextActive[v] = false
			if len(msgs) > 0 && depth[v] == algorithms.Unreachable {
				depth[v] = msgs[0]
				nextActive[v] = true
				updates[vp]++
			}
		},
	}
	for activeCount > 0 {
		updates = sc.counters(u.nvp)
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
	defer u.Scratch().Put(sc)
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = u.G.VertexID(int32(v))
	}
	var changes []int
	f := flow[int64]{
		send: func(em *mplane.Stage[int64], p int) {
			for s, d := range u.arcs(p) {
				em.Send(d, labels[s])
				em.Send(s, labels[d])
			}
		},
		merge: platform.MinCombiner,
		apply: func(_, vp int, v int32, msgs []int64) {
			if len(msgs) > 0 && msgs[0] < labels[v] {
				labels[v] = msgs[0]
				changes[vp]++
			}
		},
	}
	for {
		changes = sc.counters(u.nvp)
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
	defer u.Scratch().Put(sc)
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
		send: func(em *mplane.Stage[int32], p int) {
			for s, d := range u.arcs(p) {
				if dirty[d] {
					em.Send(d, labels[s])
				}
				if dirty[s] {
					em.Send(s, labels[d])
				}
			}
		},
		apply: func(w, vp int, v int32, msgs []int32) {
			if len(msgs) == 0 {
				next[v] = labels[v]
				changed[v] = false
				return
			}
			counts := sc.counts.At(w)
			counts.AddAll(msgs)
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
		updates = sc.counters(u.nvp)
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
			for p := range u.eparts {
				for s, d := range u.arcs(p) {
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
			for p := mach; p < len(u.eparts); p += cl.Machines() {
				for s, d := range u.arcs(p) {
					if int(u.owner[d]) != mach {
						wire += 16
					}
					if int(u.owner[s]) != mach {
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
	n, nvp := int32(g.NumVertices()), int32(u.nvp)
	return cl.RunRound(func(mach int, th *cluster.Threads) error {
		th.ChunksIndexed(vertexPartsPerMachine, func(w, lo, hi int) {
			for k := lo; k < hi; k++ {
				p := mach + k*cl.Machines()
				for v := int32(p); v < n; v += nvp {
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
	defer u.Scratch().Put(sc)
	directed := u.G.Directed()
	sc.hoodLen = mplane.GrowZero(sc.hoodLen, n)
	hoodLen, inbox := sc.hoodLen, &sc.i32.ex
	err := runFlow(ctx, u, &sc.i32, 1, 8, flow[int32]{
		send: func(em *mplane.Stage[int32], p int) {
			for s, d := range u.arcs(p) {
				em.Send(d, s)
				em.Send(s, d)
			}
		},
		apply: func(_, _ int, v int32, msg []int32) {
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
			hoodLen[v] = int32(len(uniq))
		},
	})
	if err != nil {
		return nil, err
	}
	hood := func(v int32) []int32 { return inbox.At(v)[:hoodLen[v]] }
	credits := make([]int64, n)
	err = runFlow(ctx, u, &sc.i64, 1, 12, flow[int64]{
		send: func(em *mplane.Stage[int64], p int) {
			for a, b := range u.arcs(p) {
				weight := int64(1)
				if !directed {
					// A stored undirected edge represents both arcs.
					weight = 2
				}
				ha, hb := hood(a), hood(b)
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
		merge: platform.SumCombiner,
		apply: func(_, _ int, v int32, msgs []int64) {
			if len(msgs) > 0 {
				credits[v] = msgs[0]
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		d := int(hoodLen[v])
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
	defer u.Scratch().Put(sc)
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
		// The arcs of u.arcs(p), with their weights read at the same
		// positions of g's out-rows.
		send: func(em *mplane.Stage[float64], p int) {
			g, stride := u.G, len(u.eparts)
			for _, r := range u.eparts[p] {
				s, nb, ws := r.row, g.OutNeighbors(r.row), g.OutWeights(r.row)
				for i := int(r.first); i < len(nb); i += stride {
					d, w := nb[i], ws[i]
					if active[s] {
						em.Send(d, dist[s]+w)
					}
					if !directed && active[d] {
						em.Send(s, dist[d]+w)
					}
				}
			}
		},
		merge: platform.MinCombiner,
		apply: func(_, vp int, v int32, msgs []float64) {
			nextActive[v] = false
			if len(msgs) > 0 && msgs[0] < dist[v] {
				dist[v] = msgs[0]
				nextActive[v] = true
				updates[vp]++
			}
		},
	}
	for activeCount > 0 {
		updates = sc.counters(u.nvp)
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
