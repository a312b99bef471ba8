package native

import (
	"context"

	"graphalytics/internal/algorithms"
)

// bfs, wcc, cdlp and sssp run one kernel the way the engine's kernel table
// does, for the tests that call the kernels without a platform.Job.

func bfs(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	return run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) { return k.BFS(rt, u.G, source) })
}

func wcc(ctx context.Context, u *uploaded) ([]int64, error) {
	return run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) { return k.WCC(rt, u.G) })
}

func cdlp(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	return run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
		return k.CDLP(rt, u.G, iterations)
	})
}

func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	return run(ctx, u, func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) { return k.SSSP(rt, u.G, source) })
}
