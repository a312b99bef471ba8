package pushpull

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
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
	g, cl, part := u.g, u.Cl, u.part
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
			first, _ := part.Range(mach)
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

// run runs a reference kernel (algorithms.Kernels) on the upload's
// machines, each owning its partition's range and broadcasting what it
// reports, each bytes per update.
func run[T any](ctx context.Context, u *uploaded, each int64, kernel func(*algorithms.Kernels, algorithms.Runtime) (T, error)) (T, error) {
	return platform.Run(ctx, &u.BaseUpload, u.part.Range, platform.Allgather(u.Cl, each), kernel)
}
