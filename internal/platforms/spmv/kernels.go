package spmv

import (
	"context"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
)

// pagerank is a dense pull SpMV: every iteration runs one "apply" round
// computing the contribution vector rank/outdeg, then one "gather" round
// computing A^T * contrib per owned row. Each round ends with an allgather
// of the machine's vector slice. The apply round is also the chunk runner
// of the dangling mass's fold, the oracle's tree (par.SumBlocks over
// SumBlock vertex blocks): each machine sums, on its threads, the dangling
// ranks of the blocks that start in its range, so the machines' block
// spans tile the blocks as their ranges tile the vertices.
func pagerank(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	g, cl, dangling := u.lay.G, u.Cl, u.lay.Dangling
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	danglingMass := func(lo, hi int) float64 { // ascending, as RefPageRank adds them
		i, _ := slices.BinarySearch(dangling, int32(lo))
		j, _ := slices.BinarySearch(dangling, int32(hi))
		return par.SumBlockedAt(rank, dangling[i:j])
	}
	var err error
	apply := func(_ int, fold func(worker, lo, hi int)) {
		err = cl.RunRound(func(mach int, th *cluster.Threads) error {
			first, end := u.lay.Range(mach)
			th.Chunks(end-first, func(lo, hi int) {
				algorithms.PRContribRange(g, rank, contrib, first+lo, first+hi)
			})
			blo, bhi := (first+par.SumBlock-1)/par.SumBlock, (end+par.SumBlock-1)/par.SumBlock
			th.ChunksIndexed(bhi-blo, func(w, lo, hi int) { fold(w, blo+lo, blo+hi) })
			cl.Broadcast(mach, int64(end-first)*8)
			return nil
		})
	}
	var parts []float64
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		var mass float64
		if mass, parts = par.SumBlocks(n, par.SumBlock, apply, parts, danglingMass); err != nil {
			return nil, err
		}
		base := (1-damping)*inv + damping*mass*inv
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			first, end := u.lay.Range(mach)
			th.Chunks(end-first, func(lo, hi int) {
				algorithms.PRPullRange(g, contrib, next, base, damping, first+lo, first+hi)
			})
			return nil
		}); err != nil {
			return nil, err
		}
		rank, next = next, rank
	}
	return rank, nil
}

// route is the traffic rule of the frontier rounds: a machine ships
// every discovery it does not own to the owning machine, each bytes wide.
func route(u *uploaded, each int64) func(mach, n int, discovered []int32) {
	staging := make([]int64, u.Cl.Machines()) // per-destination totals
	return func(mach, _ int, discovered []int32) {
		clear(staging)
		for _, d := range discovered {
			if o := u.lay.Part.Owner[d]; int(o) != mach {
				staging[o] += each
			}
		}
		for o, b := range staging {
			u.Cl.Send(mach, o, b)
		}
	}
}

// bfs is a sparse frontier SpMSpV over the (select, min) semiring
// (algorithms.Kernels.PushBFS): each level, the machines push from their
// owned frontier rows, and discovered vertices are routed to their owning
// machines for the next level, 12 bytes each (vertex id + level).
func bfs(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	return platform.Run(ctx, &u.BaseUpload, u.lay.Range, route(u, 12), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
		return k.PushBFS(rt, u.lay.G, source)
	})
}

// lcc counts triangles as masked sparse row intersections: for vertex v
// with neighborhood N(v), the number of closed wedges is the sum over
// u in N(v) of |row(u) ∩ N(v)|, each row's entries tested against the
// thread slot's marks of N(v). Remote rows must be fetched, which the
// engine accounts as traffic from the row owner.
func lcc(ctx context.Context, u *uploaded) ([]float64, error) {
	g, cl, part := u.lay.G, u.Cl, u.lay.Part
	n := g.NumVertices()
	out := make([]float64, n)
	sc := mplane.Acquire(u.Scratch(), func() *lccScratch { return &lccScratch{} })
	defer u.Scratch().Put(sc)
	sc.marks = mplane.Grow(sc.marks, cl.Threads())
	sc.hoods = mplane.Grow(sc.hoods, cl.Threads())
	sc.fetched = mplane.Grow(sc.fetched, cl.Threads())
	for w := range sc.fetched {
		sc.fetched[w] = mplane.Grow(sc.fetched[w], cl.Machines())
	}
	err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		verts, fetched := part.Verts[mach], sc.fetched
		for _, f := range fetched {
			clear(f)
		}
		th.ChunksIndexed(len(verts), func(w, lo, hi int) {
			marks, hood := &sc.marks[w], sc.hoods[w]
			for _, v := range verts[lo:hi] {
				hood = algorithms.Neighborhood(g.OutNeighbors(v), g.InNeighbors(v), v, g.Directed(), hood[:0])
				d := len(hood)
				if d < 2 {
					continue
				}
				marks.Mark(n, hood)
				arcs := 0
				for _, uix := range hood {
					if o := part.Owner[uix]; int(o) != mach {
						fetched[w][o] += int64(g.OutDegree(uix)) * 4
					}
					arcs += marks.Count(g.OutNeighbors(uix))
				}
				out[v] = float64(arcs) / (float64(d) * float64(d-1))
			}
			sc.hoods[w] = hood
		})
		for w := range fetched {
			for o, b := range fetched[w] {
				cl.Send(o, mach, b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// lccScratch is lcc's pooled state, one entry per thread slot (machines
// run one after another, so they share them): the neighborhood marks,
// the neighborhood buffer, and the bytes fetched from each machine.
type lccScratch struct {
	marks   []algorithms.HoodMarks
	hoods   [][]int32
	fetched [][]int64
}

// sssp is Bellman-Ford over the (min, +) semiring
// (algorithms.Kernels.BellmanFordSSSP), with frontier routing identical to
// bfs, 16 bytes per discovery (vertex id + distance).
func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	return platform.Run(ctx, &u.BaseUpload, u.lay.Range, route(u, 16), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
		return k.BellmanFordSSSP(rt, u.lay.G, source)
	})
}
