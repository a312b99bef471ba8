package platform

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
)

// Run executes one of the reference kernels' round loops
// (algorithms.Kernels) on the upload's simulated machines, through the
// one cluster runtime every engine shares; the engine contributes only
// its deployment. owned(m) is the vertex range machine m owns, nil when
// one machine owns every vertex. traffic prices what a machine reports in
// a round (algorithms.Runtime.Report), nil when that is free.
//
// A round checks the job's context, then is one charged cluster.RunRound
// that runs the body on every machine in turn; a region is one of that
// machine's simulated thread pool (cluster.Threads), whose chunks run on
// the host's cores. On one machine the output is therefore the reference
// kernels' bits, whatever the thread count.
//
// The runtime and the kernels' working state are checked out of the
// engine's pool, so jobs allocate little beyond their outputs, also on a
// fresh upload, and the round callback is bound once, so a round
// allocates nothing.
func Run[T any](ctx context.Context, b *BaseUpload, owned func(mach int) (lo, hi int), traffic func(mach, n int, vertices []int32),
	kernel func(*algorithms.Kernels, algorithms.Runtime) (T, error)) (T, error) {
	r := mplane.Acquire(b.Scratch(), newRuntime)
	r.cl, r.ctx, r.n, r.owned, r.traffic = b.Cl, ctx, b.G.NumVertices(), owned, traffic
	defer func() {
		r.cl, r.ctx, r.owned, r.traffic = nil, nil, nil, nil // a pooled runtime keeps no job alive
		b.Scratch().Put(r)
	}()
	return kernel(&r.kernels, r)
}

// Allgather is the traffic rule that prices what a machine reports as an
// allgather: its n updates go to every other machine, each bytes apiece.
func Allgather(cl *cluster.Cluster, each int64) func(mach, n int, _ []int32) {
	return func(mach, n int, _ []int32) { cl.Broadcast(mach, int64(n)*each) }
}

// runtime is the algorithms.Runtime Run runs kernels on.
type runtime struct {
	kernels algorithms.Kernels
	cl      *cluster.Cluster
	ctx     context.Context
	n       int
	owned   func(mach int) (lo, hi int)
	traffic func(mach, n int, vertices []int32)
	body    func()           // the round in flight
	mach    int              // the machine running it
	th      *cluster.Threads // that machine's thread pool
	round   func(int, *cluster.Threads) error
}

func newRuntime() *runtime {
	r := &runtime{}
	r.round = r.machine
	return r
}

func (r *runtime) Round(body func()) error {
	if err := CheckContext(r.ctx); err != nil {
		return err
	}
	r.body = body
	err := r.cl.RunRound(r.round)
	r.body, r.th = nil, nil
	return err
}

// machine runs the round in flight on machine mach's thread pool.
func (r *runtime) machine(mach int, th *cluster.Threads) error {
	r.mach, r.th = mach, th
	r.body()
	return nil
}

func (r *runtime) Chunks(n int, fn func(worker, lo, hi int)) { r.th.ChunksIndexed(n, fn) }

func (r *runtime) Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32 {
	return r.th.Collect(n, dst, fn)
}

func (r *runtime) Workers() int { return r.cl.Threads() }

func (r *runtime) Owned() (lo, hi int) {
	if r.owned == nil {
		return 0, r.n
	}
	return r.owned(r.mach)
}

func (r *runtime) Report(n int, vertices []int32) {
	if r.traffic != nil {
		r.traffic(r.mach, n, vertices)
	}
}
