package pushpull

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// NewOneWay returns the engine with every BFS level run in one direction:
// top-down (algorithms.Kernels.PushBFS) or, with pull, bottom-up over each
// machine's range (pullBFS). Where the adaptive kernel picks a direction
// per level, these check each direction on its own at every graph, thread
// count and machine count of the conformance suite.
func NewOneWay(pull bool) platform.Platform {
	e := engine()
	e.Kernels[algorithms.BFS] = func(ctx context.Context, u *uploaded, j *platform.Job) (*algorithms.Output, error) {
		return j.Ints(run(ctx, u, 12, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
			if pull {
				return pullBFS(rt, u.g, j.SourceIndex)
			}
			return k.PushBFS(rt, u.g, j.SourceIndex)
		}))
	}
	return platform.New(e)
}

// pullBFS is a BFS that runs every level bottom-up, one round per level:
// each machine's still-unreached vertices scan their in-neighbors for one
// in the last level's frontier, and the machine reports the vertices it
// reached. The frontier is read-only during a round and a vertex's depth
// is written only by the chunk holding it, so chunks need no atomics.
func pullBFS(rt algorithms.Runtime, g *graph.Graph, source int32) ([]int64, error) {
	n := g.NumVertices()
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	inFrontier := make([]bool, n)
	inFrontier[source] = true
	for level, next := int64(1), []int32{source}; len(next) > 0; level++ {
		next = next[:0]
		if err := rt.Round(func() {
			lo, hi := rt.Owned()
			claimed := rt.Collect(hi-lo, nil, func(_, a, b int, out []int32) []int32 {
				for v := int32(lo + a); v < int32(lo+b); v++ {
					if depth[v] != algorithms.Unreachable {
						continue
					}
					for _, u := range g.InNeighbors(v) {
						if inFrontier[u] {
							depth[v] = level
							out = append(out, v)
							break
						}
					}
				}
				return out
			})
			rt.Report(len(claimed), claimed)
			next = append(next, claimed...)
		}); err != nil {
			return nil, err
		}
		clear(inFrontier)
		for _, v := range next {
			inFrontier[v] = true
		}
	}
	return depth, nil
}
