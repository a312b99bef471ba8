package spmv

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/platform"
)

// pagerank is a dense pull SpMV: every iteration runs one "apply" round
// computing the contribution vector rank/outdeg plus the dangling mass,
// then one "gather" round computing A^T * contrib per owned row. Each
// round ends with an allgather of the machine's vector slice.
func pagerank(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	g, cl := u.lay.G, u.Cl
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
	danglingParts := make([]float64, cl.Machines())
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			first, end := u.lay.Range(mach)
			parts := make([]float64, th.Count())
			th.ChunksIndexed(end-first, func(w, lo, hi int) {
				parts[w] = algorithms.PRContribRange(g, rank, contrib, first+lo, first+hi)
			})
			var d float64
			//graphalint:orderfree chunk partials folded in worker-index order; geometry fixed by the simulated thread config, not host parallelism
			for _, x := range parts {
				d += x
			}
			danglingParts[mach] = d
			cl.Broadcast(mach, int64(end-first)*8)
			return nil
		}); err != nil {
			return nil, err
		}
		var dangling float64
		//graphalint:orderfree partials folded in machine-index order; machine count is deployment config, not host parallelism
		for _, d := range danglingParts {
			dangling += d
		}
		base := (1-damping)*inv + damping*dangling*inv
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

// route charges machine mach for shipping every discovery it does not own
// to the owning machine, each bytes wide; staging (one slot per machine)
// holds the per-destination totals.
func route(u *uploaded, mach int, discovered []int32, each int64, staging []int64) {
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

// bfs is a sparse frontier SpMSpV over the (select, min) semiring: each
// level, the machines push from their owned frontier rows; discovered
// vertices are routed to their owning machines for the next level.
func bfs(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	g, cl := u.lay.G, u.Cl
	depth := make([]int64, g.NumVertices())
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	frontiers := make([][]int32, cl.Machines())
	frontiers[u.lay.Part.Owner[source]] = []int32{source}
	discovered := make([][]int32, cl.Machines())
	staging := make([]int64, cl.Machines())
	total := 1
	for level := int64(1); total > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			local := frontiers[mach]
			discovered[mach] = th.Collect(len(local), discovered[mach], func(_, lo, hi int, out []int32) []int32 {
				return algorithms.BFSExpand(g, depth, local[lo:hi], level, out)
			})
			route(u, mach, discovered[mach], 12, staging) // vertex id + level
			return nil
		}); err != nil {
			return nil, err
		}
		total = u.lay.Deliver(discovered, frontiers)
	}
	return depth, nil
}

// lcc counts triangles as masked sparse row intersections: for vertex v
// with neighborhood N(v), the number of closed wedges is the sum over
// u in N(v) of |row(u) ∩ N(v)|, computed by sorted-list merges. Remote
// rows must be fetched, which the engine accounts as traffic from the row
// owner.
func lcc(ctx context.Context, u *uploaded) ([]float64, error) {
	g, cl, part := u.lay.G, u.Cl, u.lay.Part
	out := make([]float64, g.NumVertices())
	err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		verts := part.Verts[mach]
		fetched := make([][]int64, th.Count())
		for w := range fetched {
			fetched[w] = make([]int64, cl.Machines())
		}
		th.ChunksIndexed(len(verts), func(w, lo, hi int) {
			var hood []int32
			for _, v := range verts[lo:hi] {
				hood = algorithms.Neighborhood(g.OutNeighbors(v), g.InNeighbors(v), v, g.Directed(), hood[:0])
				d := len(hood)
				if d < 2 {
					continue
				}
				arcs := 0
				for _, uix := range hood {
					if o := part.Owner[uix]; int(o) != mach {
						fetched[w][o] += int64(g.OutDegree(uix)) * 4
					}
					arcs += algorithms.IntersectCount(g.OutNeighbors(uix), hood, v)
				}
				out[v] = float64(arcs) / (float64(d) * float64(d-1))
			}
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

// sssp is the layout's Bellman-Ford SpMSpV over the (min, +) semiring,
// with frontier routing identical to bfs: a machine ships every
// discovery it does not own to the owner.
func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	staging := make([]int64, u.Cl.Machines())
	dist, _, err := u.lay.SSSP(ctx, u.Cl, source, func(mach int, discovered []int32) {
		route(u, mach, discovered, 16, staging) // vertex id + distance
	})
	return dist, err
}
