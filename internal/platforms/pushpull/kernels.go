package pushpull

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
)

// pullThresholdDivisor: a level switches from push to pull when the
// frontier's out-edge volume exceeds |E| / pullThresholdDivisor, the
// direction-optimizing heuristic.
const pullThresholdDivisor = 20

// bfs is the engine's hallmark direction-optimizing BFS. The direction is
// decided once per level, for all machines; pushes and pulls count the
// levels run each way. A pull level marks the frontier in a bitmap, and
// every machine runs the bottom-up step over its owned range.
func bfs(ctx context.Context, u *uploaded, source int32, force string) (depth []int64, pushes, pulls int, err error) {
	g, cl, part := u.lay.G, u.Cl, u.lay.Part
	depth = make([]int64, g.NumVertices())
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	frontier := []int32{source}
	bits := make([]uint64, (g.NumVertices()+63)/64)
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
			clear(bits)
			for _, v := range frontier {
				bits[v>>6] |= 1 << (v & 63)
			}
		} else {
			pushes++
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			// Pull scans the machine's owned range, push expands its
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
			first, _ := u.lay.Range(mach)
			discovered[mach] = th.Collect(len(work), discovered[mach], func(_, lo, hi int, out []int32) []int32 {
				if pull {
					return algorithms.BFSPullRange(g, depth, bits, level, first+lo, first+hi, out)
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

// pagerank pulls rank over in-edges; the layout's dangling-vertex list is
// replicated so every machine folds the dangling mass locally, through
// the oracle's block tree (par.SumBlockedAt), avoiding a second
// synchronization round per iteration.
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
			base := (1-damping)*inv + damping*par.SumBlockedAt(rank, u.lay.Dangling)*inv
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

// sssp pushes relaxations from the frontier with atomic minimums
// (algorithms.Kernels.BellmanFordSSSP): every machine broadcasts its
// discoveries, 16 bytes each, and each relaxes the ones it owns in the
// next round.
func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	broadcast := func(mach, n int, _ []int32) { u.Cl.Broadcast(mach, int64(n)*16) }
	return platform.Run(ctx, &u.BaseUpload, u.lay.Range, broadcast, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
		return k.BellmanFordSSSP(rt, u.lay.G, source)
	})
}
