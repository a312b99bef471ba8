package pushpull

import (
	"context"
	"sync/atomic"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// pullThresholdDivisor: a level switches from push to pull when the
// frontier's out-edge volume exceeds |E| / pullThresholdDivisor, the
// direction-optimizing heuristic.
const pullThresholdDivisor = 20

// bfs is the engine's hallmark direction-optimizing BFS. The direction is
// decided once per level, for all machines; pushes and pulls count the
// levels run each way.
func bfs(ctx context.Context, u *uploaded, source int32, force string) (depth []int64, pushes, pulls int, err error) {
	g, cl, part := u.lay.G, u.Cl, u.lay.Part
	depth = make([]int64, g.NumVertices())
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	frontier := []int32{source}
	discovered := make([][]int32, cl.Machines())
	for level := int64(1); len(frontier) > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, 0, 0, err
		}
		var frontierEdges int64
		for _, v := range frontier {
			frontierEdges += int64(g.OutDegree(v))
		}
		pull := frontierEdges > u.arcs/pullThresholdDivisor
		switch force {
		case "push":
			pull = false
		case "pull":
			pull = true
		}
		if pull {
			pulls++
		} else {
			pushes++
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			// Pull scans the machine's owned vertices, push expands its
			// owned slice of the frontier.
			work := part.Verts[mach]
			if !pull {
				work = nil
				for _, v := range frontier {
					if int(part.Owner[v]) == mach {
						work = append(work, v)
					}
				}
			}
			discovered[mach] = th.Collect(len(work), discovered[mach], func(_, lo, hi int, out []int32) []int32 {
				if pull {
					return pullScan(g, depth, work[lo:hi], level, out)
				}
				return algorithms.BFSExpand(g, depth, work[lo:hi], level, out)
			})
			cl.Broadcast(mach, int64(len(discovered[mach]))*12)
			return nil
		}); err != nil {
			return nil, 0, 0, err
		}
		frontier = frontier[:0]
		for _, list := range discovered {
			frontier = append(frontier, list...)
		}
	}
	return depth, pushes, pulls, nil
}

// pullScan checks the still-unvisited vertices of verts against the
// previous level: the first in-neighbor found at depth level-1 claims the
// vertex for this level. It returns claimed extended with the claimed
// vertices in scan order.
func pullScan(g *graph.Graph, depth []int64, verts []int32, level int64, claimed []int32) []int32 {
	for _, v := range verts {
		if depth[v] != algorithms.Unreachable {
			continue
		}
		for _, in := range g.InNeighbors(v) {
			if atomic.LoadInt64(&depth[in]) == level-1 {
				atomic.StoreInt64(&depth[v], level)
				claimed = append(claimed, v)
				break
			}
		}
	}
	return claimed
}

// pagerank pulls rank over in-edges; the dangling-vertex list is
// replicated so every machine computes the dangling mass locally,
// avoiding a second synchronization round per iteration.
func pagerank(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	g, cl, part := u.lay.G, u.Cl, u.lay.Part
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			// Replicated dangling-mass computation (same result on every
			// machine, no traffic).
			var dangling float64
			//graphalint:orderfree fold over the precomputed danglingVerts list in its fixed upload-time order
			for _, v := range u.danglingVerts {
				dangling += rank[v]
			}
			base := (1-damping)*inv + damping*dangling*inv
			verts := part.Verts[mach]
			th.Chunks(len(verts), func(lo, hi int) {
				//graphalint:orderfree per-vertex fold follows CSR in-neighbor order, fixed by the snapshot
				for _, v := range verts[lo:hi] {
					sum := 0.0
					for _, in := range g.InNeighbors(v) {
						sum += rank[in] / float64(g.OutDegree(in))
					}
					next[v] = base + damping*sum
				}
			})
			cl.Broadcast(mach, int64(len(verts))*8)
			return nil
		}); err != nil {
			return nil, err
		}
		rank, next = next, rank
	}
	return rank, nil
}

// sssp pushes relaxations from the frontier with atomic minimums (the
// layout's Bellman-Ford rounds): every machine broadcasts its
// discoveries, and each relaxes the ones it owns in the next round.
func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, int, error) {
	return u.lay.SSSP(ctx, u.Cl, source, func(mach int, discovered []int32) {
		u.Cl.Broadcast(mach, int64(len(discovered))*16)
	})
}
