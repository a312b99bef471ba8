package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/mplane"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/validation"
)

// kernelGraph is one resident graph of the kernels workload: on the heap
// and mapped from its snapshot, with the parameters every job on it uses
// and the sequential oracle output per algorithm.
type kernelGraph struct {
	heap, mapped *graph.Graph
	params       algorithms.Params
	oracle       map[algorithms.Algorithm]*algorithms.Output
}

func (k *kernelGraph) close() {
	if k.mapped != nil {
		k.mapped.Close()
	}
}

// elements is |V|+|E|, the numerator of EVPS.
func (k *kernelGraph) elements() float64 {
	return float64(k.heap.NumVertices()) + float64(k.heap.NumEdges())
}

// exceptLCC are the five algorithms that run on the main graph.
var exceptLCC = slices.DeleteFunc(slices.Clone(algorithms.All), func(a algorithms.Algorithm) bool { return a == algorithms.LCC })

// refOracle runs the sequential Ref* oracle: the arbiter the parallel
// kernels and every engine are validated against.
func refOracle(g *graph.Graph, a algorithms.Algorithm, p algorithms.Params) *algorithms.Output {
	p = p.WithDefaults(a)
	src, _ := g.Index(p.Source)
	switch a {
	case algorithms.BFS:
		return &algorithms.Output{Algorithm: a, Int: algorithms.RefBFS(g, src)}
	case algorithms.PR:
		return &algorithms.Output{Algorithm: a, Float: algorithms.RefPageRank(g, p.Iterations, p.Damping)}
	case algorithms.WCC:
		return &algorithms.Output{Algorithm: a, Int: algorithms.RefWCC(g)}
	case algorithms.CDLP:
		return &algorithms.Output{Algorithm: a, Int: algorithms.RefCDLP(g, p.Iterations)}
	case algorithms.LCC:
		return &algorithms.Output{Algorithm: a, Float: algorithms.RefLCC(g)}
	default:
		return &algorithms.Output{Algorithm: a, Float: algorithms.RefSSSP(g, src)}
	}
}

// newKernelGraph generates a weighted Graph500 graph, snapshots and maps
// it, picks the max-degree vertex (lowest ID on ties) as BFS/SSSP source
// and computes the oracles for algos. It returns the oracle time apart.
func (r *run) newKernelGraph(scale int, algos []algorithms.Algorithm) (*kernelGraph, time.Duration, error) {
	g, err := graph500.Generate(graph500.Config{Scale: scale, Seed: r.seed, Weighted: true})
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(r.dir, fmt.Sprintf("g%d.gsnap", scale))
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		return nil, 0, err
	}
	mapped, err := graph.MapSnapshotFile(path)
	if err != nil {
		return nil, 0, err
	}
	src := int32(0)
	for v := int32(1); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) > g.OutDegree(src) {
			src = v
		}
	}
	k := &kernelGraph{
		heap: g, mapped: mapped,
		params: algorithms.Params{Source: g.VertexID(src), Iterations: 10},
		oracle: make(map[algorithms.Algorithm]*algorithms.Output),
	}
	t := time.Now()
	for _, a := range algos {
		k.oracle[a] = refOracle(g, a, k.params)
	}
	return k, time.Since(t), nil
}

// runKernels is the compute workload: two graphs stay resident and every
// timed call is one algorithm job on them. One round is a native Execute
// of each of the six algorithms, each output validated against the
// sequential oracle.
func runKernels(r *run) {
	platforms.RegisterAll()
	native, err := platform.Get("native")
	if !r.must(err, "kernels: native engine") {
		return
	}
	cfg := platform.RunConfig{Threads: r.p, Machines: 1}

	// LCC runs on the smaller graph; the other five on the main one.
	var big, small *kernelGraph
	graphOf := func(a algorithms.Algorithm) *kernelGraph {
		if a == algorithms.LCC {
			return small
		}
		return big
	}
	if !r.setUp(func() bool {
		if big != nil {
			big.close()
			small.close()
		}
		var oracleBig, oracleSmall time.Duration
		big, oracleBig, err = r.newKernelGraph(r.sz.kernelsScale, exceptLCC)
		if !r.must(err, "kernels set-up: main graph") {
			return false
		}
		small, oracleSmall, err = r.newKernelGraph(r.sz.lccScale, []algorithms.Algorithm{algorithms.LCC})
		if !r.must(err, "kernels set-up: LCC graph") {
			return false
		}
		r.rec.add("algorithms.oracle_s", (oracleBig + oracleSmall).Seconds())
		return true
	}) {
		return
	}
	defer big.close()
	defer small.close()

	upBig, err := native.Upload(big.heap, cfg)
	if !r.must(err, "kernels: native upload") {
		return
	}
	defer upBig.Free()
	upSmall, err := native.Upload(small.heap, cfg)
	if !r.must(err, "kernels: native upload") {
		return
	}
	defer upSmall.Free()
	uploadOf := func(a algorithms.Algorithm) platform.Uploaded {
		if a == algorithms.LCC {
			return upSmall
		}
		return upBig
	}

	ctx := context.Background()
	r.rounds(func(i int) (elements float64) {
		tr := r.roundTracer(i)
		root := tr.begin(0, "kernels.round", i)
		defer tr.end(root)
		var execAll time.Duration
		for _, a := range algorithms.All {
			k := graphOf(a)
			sp := tr.begin(root, "platforms.native.execute", i)
			t := time.Now()
			res, err := native.Execute(ctx, uploadOf(a), a, k.params)
			exec := time.Since(t)
			tr.end(sp)
			if !r.must(err, "kernels: native "+string(a)) {
				continue
			}
			execAll += exec
			r.rec.add("exec_"+strings.ToLower(string(a))+"_ms", exec.Seconds()*1e3)
			sp = tr.begin(root, "validation.validate", i)
			rep := validation.Validate(res.Output, k.oracle[a], k.heap.IDs())
			tr.end(sp)
			r.check(rep.OK, "kernels: native %s differs from the oracle: %s", a, rep.FirstDiff)
			elements += k.elements()
		}
		r.rec.add("op_p50_ms", execAll.Seconds()*1e3)
		return elements
	})

	// EVPS beside each exec metric, as the paper reports it.
	for _, a := range algorithms.All {
		ms := median(r.rec.get("exec_" + strings.ToLower(string(a)) + "_ms"))
		fmt.Printf("kernels: native %-4s %10.3f ms  EVPS %.4g (V+E = %.0f)\n", a, ms, graphOf(a).elements()/(ms/1e3), graphOf(a).elements())
	}

	if r.traced {
		r.kernelProbes(graphOf, cfg)
	}
}

// kernelProbes measures the layers under the engines: the shared
// reference kernels at one worker and at all, on heap and mapped graphs;
// two more engines' upload and execute; the message plane and the
// parallel runtime in isolation; and validation. Traced runs only.
func (r *run) kernelProbes(graphOf func(algorithms.Algorithm) *kernelGraph, cfg platform.RunConfig) {
	ctx := context.Background()
	reference := func(a algorithms.Algorithm, g *graph.Graph, workers int, metric string) *algorithms.Output {
		var out *algorithms.Output
		for i := 0; i < r.sz.probeReps; i++ {
			t := time.Now()
			o, err := algorithms.RunReferenceWorkers(g, a, graphOf(a).params, workers)
			r.rec.add(metric, time.Since(t).Seconds()*1e3)
			if !r.must(err, "kernels probe: reference "+string(a)) {
				return nil
			}
			out = o
		}
		return out
	}
	for _, a := range algorithms.All {
		k, key := graphOf(a), "algorithms."+strings.ToLower(string(a))
		heap := reference(a, k.heap, r.p, key+".wP_ms")
		one := reference(a, k.heap, 1, key+".w1_ms")
		mapped := reference(a, k.mapped, r.p, key+".mapped_wP_ms")
		if heap == nil || one == nil || mapped == nil {
			continue
		}
		ids := k.heap.IDs()
		for _, o := range []*algorithms.Output{heap, one} {
			rep := validation.Validate(o, k.oracle[a], ids)
			r.check(rep.OK, "kernels probe: reference %s differs from the oracle: %s", a, rep.FirstDiff)
		}
		same := slices.Equal(heap.Int, mapped.Int) && slices.Equal(heap.Float, mapped.Float)
		r.check(same, "kernels probe: reference %s differs between heap and mapped graph", a)
	}

	// validation.Validate on the main graph's vertex count.
	big := graphOf(algorithms.PR)
	for i := 0; i < r.sz.probeReps; i++ {
		t := time.Now()
		rep := validation.Validate(big.oracle[algorithms.PR], big.oracle[algorithms.PR], big.heap.IDs())
		r.rec.add("validation.validate_ms", time.Since(t).Seconds()*1e3)
		r.check(rep.OK, "kernels probe: an output differs from itself")
	}

	// Engines with a real upload: pregel on five algorithms, gas on two.
	engine := func(name string, algos []algorithms.Algorithm) {
		p, err := platform.Get(name)
		if !r.must(err, "kernels probe: engine "+name) {
			return
		}
		t := time.Now()
		up, err := p.Upload(big.heap, cfg)
		r.rec.add("platforms."+name+".upload_ms", time.Since(t).Seconds()*1e3)
		if !r.must(err, "kernels probe: "+name+" upload") {
			return
		}
		defer up.Free()
		for _, a := range algos {
			t := time.Now()
			res, err := p.Execute(ctx, up, a, big.params)
			r.rec.add("platforms."+name+"."+strings.ToLower(string(a))+".exec_ms", time.Since(t).Seconds()*1e3)
			if !r.must(err, "kernels probe: "+name+" "+string(a)) {
				continue
			}
			rep := validation.Validate(res.Output, big.oracle[a], big.heap.IDs())
			r.check(rep.OK, "kernels probe: %s %s differs from the oracle: %s", name, a, rep.FirstDiff)
		}
	}
	engine("pregel", exceptLCC)
	engine("gas", []algorithms.Algorithm{algorithms.PR, algorithms.CDLP})

	// Allocations of one warm PageRank Execute (pools already filled).
	for _, name := range []string{"native", "pregel"} {
		p, err := platform.Get(name)
		if !r.must(err, "kernels probe: engine "+name) {
			continue
		}
		up, err := p.Upload(big.heap, cfg)
		if !r.must(err, "kernels probe: "+name+" upload") {
			continue
		}
		_, err = p.Execute(ctx, up, algorithms.PR, big.params)
		r.must(err, "kernels probe: "+name+" PR")
		objects, _ := mallocs(func() { _, err = p.Execute(ctx, up, algorithms.PR, big.params) })
		r.must(err, "kernels probe: "+name+" PR")
		r.rec.add("platforms."+name+".pr.allocs", objects)
		up.Free()
	}

	r.planeProbes(big.heap)
}

// planeProbes drives the message plane and the parallel runtime through
// their public API alone, one message per arc of g: the cost an engine
// pays per message before it computes anything.
func (r *run) planeProbes(g *graph.Graph) {
	n := g.NumVertices()
	arcs := 0.0
	for v := int32(0); int(v) < n; v++ {
		arcs += float64(g.OutDegree(v))
	}
	var stage mplane.Stage[float64]
	var inbox mplane.Inbox[float64]
	var slots mplane.Slots[float64]
	var counts mplane.LabelCounts
	counts.EnsureDomain(n)
	add := func(a, b float64) float64 { return a + b }
	for i := 0; i < r.sz.probeReps+1; i++ {
		t := time.Now()
		stage.Reset()
		for v := int32(0); int(v) < n; v++ {
			for _, u := range g.OutNeighbors(v) {
				stage.Send(u, 1)
			}
		}
		inbox.Begin(n)
		inbox.Count(&stage)
		inbox.Seal()
		inbox.Scatter(&stage)
		scatter := time.Since(t)
		r.check(inbox.Total() == int(arcs), "plane probe: inbox holds %d messages, want %.0f", inbox.Total(), arcs)

		t = time.Now()
		slots.Begin(n)
		for v := int32(0); int(v) < n; v++ {
			for _, u := range g.OutNeighbors(v) {
				slots.Put(u, 1, add)
			}
		}
		put := time.Since(t)

		t = time.Now()
		best := int32(0)
		for v := int32(0); int(v) < n; v++ {
			for _, u := range g.OutNeighbors(v) {
				counts.Add(u)
			}
			best += counts.BestAndReset(v)
		}
		label := time.Since(t)
		_ = best
		if i == 0 {
			continue // the first pass grows the buffers
		}
		r.rec.add("mplane.scatter_ns_per_msg", float64(scatter.Nanoseconds())/arcs)
		r.rec.add("mplane.slots_put_ns_per_msg", float64(put.Nanoseconds())/arcs)
		r.rec.add("mplane.labelcounts_ns_per_add", float64(label.Nanoseconds())/arcs)
	}

	values := make([]float64, r.sz.sortKeys)
	for i := range values {
		values[i] = 1 / float64(i+1)
	}
	for i := 0; i < r.sz.probeReps; i++ {
		t := time.Now()
		total := par.SumBlocked(len(values), r.p, func(lo, hi int) float64 {
			s := 0.0
			for _, v := range values[lo:hi] {
				s += v
			}
			return s
		})
		r.rec.add("par.sum_blocked_ms", time.Since(t).Seconds()*1e3)
		r.check(total > 0, "plane probe: blocked sum is %v", total)

		const dispatches = 1000
		t = time.Now()
		for k := 0; k < dispatches; k++ {
			par.Chunks(n, r.p, func(worker, lo, hi int) {})
		}
		r.rec.add("par.chunks_dispatch_us", time.Since(t).Seconds()*1e6/dispatches)
	}
}
