package spmv

import (
	"context"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// run runs a reference kernel (algorithms.Kernels) on the upload's
// machines, each owning its partition's range of rows; traffic prices
// what a machine reports.
func run[T any](ctx context.Context, u *uploaded, traffic func(mach, n int, vertices []int32), kernel func(*algorithms.Kernels, algorithms.Runtime) (T, error)) (T, error) {
	return platform.Run(ctx, &u.BaseUpload, u.part.Range, traffic, kernel)
}

// route is the traffic rule of the frontier rounds: a machine ships
// every discovery it does not own to the owning machine, each bytes wide.
func route(u *uploaded, each int64) func(mach, n int, discovered []int32) {
	staging := make([]int64, u.Cl.Machines()) // per-destination totals
	return func(mach, _ int, discovered []int32) {
		clear(staging)
		for _, d := range discovered {
			if o := u.part.Owner[d]; int(o) != mach {
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
	return run(ctx, u, route(u, 12), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]int64, error) {
		return k.PushBFS(rt, u.g, source)
	})
}

// lcc counts triangles as masked sparse row intersections: for vertex v
// with neighborhood N(v), the number of closed wedges is the sum over
// u in N(v) of |row(u) ∩ N(v)|, each row's entries tested against the
// thread slot's marks of N(v). Remote rows must be fetched, which the
// engine accounts as traffic from the row owner.
func lcc(ctx context.Context, u *uploaded) ([]float64, error) {
	g, cl, part := u.g, u.Cl, u.part
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
	return run(ctx, u, route(u, 16), func(k *algorithms.Kernels, rt algorithms.Runtime) ([]float64, error) {
		return k.BellmanFordSSSP(rt, u.g, source)
	})
}
