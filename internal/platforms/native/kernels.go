package native

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// runner is the native engine's algorithms.Runtime: the round loops are the
// reference kernels' (algorithms.Kernels), and the engine contributes only
// the runtime they run on. A round is one charged cluster.RunRound on the
// single machine, checked against the job's context first, and a region
// is one of the simulated thread pool's (cluster.Threads), whose chunks
// run on the host's cores. Output is therefore the reference kernels'
// bits, whatever the thread count.
//
// A runner is pooled per upload together with the kernels' working state,
// and its round callback is bound once, so a round allocates nothing.
type runner struct {
	kernels algorithms.Kernels
	cl      *cluster.Cluster
	ctx     context.Context
	body    func()           // the round in flight
	th      *cluster.Threads // its machine's thread pool
	round   func(int, *cluster.Threads) error
}

// run executes one kernel on a runner checked out of the upload's pool.
func run[T any](ctx context.Context, u *uploaded, kernel func(*runner) (T, error)) (T, error) {
	r := mplane.Acquire(&u.scratch, newRunner)
	r.cl, r.ctx = u.Cl, ctx
	defer func() {
		r.ctx = nil
		u.scratch.Put(r)
	}()
	return kernel(r)
}

func newRunner() *runner {
	r := &runner{}
	r.round = r.machine
	return r
}

func (r *runner) Round(body func()) error {
	if err := platform.CheckContext(r.ctx); err != nil {
		return err
	}
	r.body = body
	err := r.cl.RunRound(r.round)
	r.body, r.th = nil, nil // a pooled runner keeps no job's arrays alive
	return err
}

// machine runs the round in flight on the machine's thread pool.
func (r *runner) machine(_ int, th *cluster.Threads) error {
	r.th = th
	r.body()
	return nil
}

func (r *runner) Chunks(n int, fn func(worker, lo, hi int)) { r.th.ChunksIndexed(n, fn) }

func (r *runner) Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32 {
	return r.th.Collect(n, dst, fn)
}

func (r *runner) Workers() int { return r.cl.Threads() }
