package algorithms

import (
	"sync/atomic"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// Parallel reference kernels. Validation (requirement R3) compares every
// platform output against the reference output, so reference computation
// sits on the critical path of every validated job. The Par* kernels run
// the shared round loops of kernels.go on the internal/par runtime, where
// a round is just a call, and their output is bit-identical to the
// sequential oracles in reference.go at every worker count:
//
//   - Integer kernels (BFS, WCC, CDLP) produce values that do not depend
//     on evaluation order: BFS is level-synchronous, WCC's labels are the
//     canonical per-component minima, CDLP's argmax is order-independent.
//   - Float kernels reduce through a fixed tree: PageRank's dangling mass
//     is summed over fixed par.SumBlock-sized blocks whose boundaries do
//     not depend on the worker count (par.SumBlockedAt over the ascending
//     dangling vertices), and per-vertex neighbor sums always
//     follow adjacency order. LCC is computed per vertex from integer
//     counts. SSSP's delta-stepping converges to the unique fixpoint of
//     edge relaxation, Dijkstra's bits (see sssp.go). First-come
//     accumulation is never used.
//
// Each kernel takes an explicit worker count; workers <= 0 selects
// par.Workers sizing from |V|+|E|.

// parRuntime is the Runtime of the Par* kernels: one machine that owns
// every vertex, where a round is a plain call and a region is one
// par.Chunks call over p workers. With automatic
// sizing, Collect — the BFS level and the SSSP phase — adapts its worker
// count to the frontier's estimated edge work: high-diameter graphs spend
// most levels on tiny frontiers that would otherwise pay a full
// fork-join. An explicit count is honored on every region. Outputs do not
// depend on the chunking, so both modes are bit-identical.
type parRuntime struct {
	n             int // vertices, all owned
	p             int
	auto          bool // size each Collect from its frontier's work
	arcsPerVertex int
	bufs          [][]int32 // per-worker Collect buffers, reused across regions
}

func newParRuntime(g *graph.Graph, workers int) *parRuntime {
	n := g.NumVertices()
	r := &parRuntime{n: n, p: par.Resolve(workers, n+int(g.NumEdges())), auto: workers <= 0, arcsPerVertex: 1}
	if n > 0 {
		arcs := int(g.NumEdges())
		if !g.Directed() {
			arcs *= 2
		}
		r.arcsPerVertex += arcs / n
	}
	return r
}

// Round never fails, so the Par* wrappers drop the kernels' error.
func (r *parRuntime) Round(body func()) error { body(); return nil }

func (r *parRuntime) Chunks(n int, fn func(worker, lo, hi int)) { par.Chunks(n, r.p, fn) }

func (r *parRuntime) Workers() int { return r.p }

func (r *parRuntime) Owned() (lo, hi int) { return 0, r.n }

func (r *parRuntime) Report(int, []int32) {}

func (r *parRuntime) Collect(n int, dst []int32, fn func(worker, lo, hi int, out []int32) []int32) []int32 {
	p := r.p
	if r.auto {
		p = min(p, par.Workers(n*r.arcsPerVertex))
	}
	for len(r.bufs) < p {
		r.bufs = append(r.bufs, nil)
	}
	par.Chunks(n, p, func(w, lo, hi int) { r.bufs[w] = fn(w, lo, hi, r.bufs[w][:0]) })
	dst = dst[:0]
	for w, out := range r.bufs[:p] {
		dst = append(dst, out...)
		r.bufs[w] = out[:0] // an empty chunk next region must not replay this one
	}
	return dst
}

// ParBFS is the parallel counterpart of RefBFS (see Kernels.BFS).
func ParBFS(g *graph.Graph, source int32, workers int) []int64 {
	depth, _ := new(Kernels).BFS(newParRuntime(g, workers), g, source)
	return depth
}

// ParPageRank is the parallel counterpart of RefPageRank (see
// Kernels.PageRank).
func ParPageRank(g *graph.Graph, iterations int, damping float64, workers int) []float64 {
	rank, _ := new(Kernels).PageRank(newParRuntime(g, workers), g, iterations, damping)
	return rank
}

// ParWCC is the parallel counterpart of RefWCC (see Kernels.WCC).
func ParWCC(g *graph.Graph, workers int) []int64 {
	labels, _ := new(Kernels).WCC(newParRuntime(g, workers), g)
	return labels
}

// ParCDLP is the parallel counterpart of RefCDLP (see Kernels.CDLP).
func ParCDLP(g *graph.Graph, iterations int, workers int) []int64 {
	labels, _ := new(Kernels).CDLP(newParRuntime(g, workers), g, iterations)
	return labels
}

// ParLCC is the parallel counterpart of RefLCC: Kernels.LCC over an
// orientation built on the same workers.
func ParLCC(g *graph.Graph, workers int) []float64 {
	rt := newParRuntime(g, workers)
	lcc, _ := new(Kernels).LCC(rt, NewLCCOrientation(g, rt.p))
	return lcc
}

// ParSSSP is the parallel counterpart of RefSSSP (see Kernels.SSSP).
func ParSSSP(g *graph.Graph, source int32, workers int) []float64 {
	dist, _ := new(Kernels).SSSP(newParRuntime(g, workers), g, source)
	return dist
}

// unite merges the components of a and b in the concurrent union-find:
// the larger of the two roots is linked under the smaller with a CAS that
// only succeeds while it is still a root; a lost race re-reads the roots
// and retries.
func unite(parent []int32, a, b int32) {
	for {
		ra, rb := findCAS(parent, a), findCAS(parent, b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
			return
		}
	}
}

// findCAS walks to the root with atomic loads, halving paths with
// best-effort CAS (a failed halving is harmless: the parent it read is
// still an ancestor, since links only ever move parents to smaller roots).
func findCAS(parent []int32, v int32) int32 {
	for {
		p := atomic.LoadInt32(&parent[v])
		if p == v {
			return v
		}
		gp := atomic.LoadInt32(&parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&parent[v], p, gp)
		v = gp
	}
}
