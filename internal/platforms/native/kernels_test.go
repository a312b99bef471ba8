package native

import "context"

// bfs, cdlp and sssp run one kernel the way the engine's kernel table
// does, for the tests that call the kernels without a platform.Job.

func bfs(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	return run(ctx, u, func(r *runner) ([]int64, error) { return r.kernels.BFS(r, u.G, source) })
}

func cdlp(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	return run(ctx, u, func(r *runner) ([]int64, error) { return r.kernels.CDLP(r, u.G, iterations) })
}

func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	return run(ctx, u, func(r *runner) ([]float64, error) { return r.kernels.SSSP(r, u.G, source) })
}
