package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/par"
	"graphalytics/internal/xrand"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileCRC is the CRC-32C of a file's bytes.
func fileCRC(path string) (uint32, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	return h.Sum32(), n, err
}

// csrCRC fingerprints a graph's identifiers, out-adjacency and weights in
// CSR order, so two graphs with equal CRCs answer every query alike. It
// touches every page of a mapped graph.
func csrCRC(g *graph.Graph) uint32 {
	h := crc32.New(castagnoli)
	buf := make([]byte, 0, 1<<16)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.VertexID(v)))
		for _, u := range g.OutNeighbors(v) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
		}
		for _, w := range g.OutWeights(v) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
		}
		if len(buf) >= 1<<15 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum32()
}

// graphShape is what the load workload compares graphs by.
type graphShape struct {
	vertices int
	edges    int64
	crc      uint32
}

func shapeOf(g *graph.Graph) graphShape {
	return graphShape{g.NumVertices(), g.NumEdges(), csrCRC(g)}
}

// mallocs runs f and returns the heap objects and bytes it allocated.
func mallocs(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// runLoad is the construction workload: every timed operation turns an
// edge stream or a snapshot file into a queryable graph, and no kernel
// runs. One round is a heap build, a streamed (bounded-memory) build and
// two snapshot reopens of the same Graph500 graph.
func runLoad(r *run) {
	cfg := graph500.Config{Scale: r.sz.loadScale, Seed: r.seed, Weighted: true}
	refPath := filepath.Join(r.dir, "ref.gsnap")
	streamedPath := filepath.Join(r.dir, "streamed.gsnap")

	// Set-up: the reference the timed builds are checked against — the
	// graph's shape and the bytes of its snapshot.
	var want graphShape
	var wantFile uint32
	var fileBytes int64
	if !r.setUp(func() bool {
		g, err := graph500.Generate(cfg)
		if !r.must(err, "load set-up: generate") ||
			!r.must(graph.WriteSnapshotFile(refPath, g), "load set-up: write snapshot") {
			return false
		}
		want = shapeOf(g)
		wantFile, fileBytes, err = fileCRC(refPath)
		return r.must(err, "load set-up: snapshot CRC")
	}) {
		return
	}

	var last *graph.Graph
	r.rounds(func(i int) (edges float64) {
		tr := r.roundTracer(i)

		// Edge stream to heap graph.
		root := tr.begin(0, "load.build_heap", 3*i)
		t := time.Now()
		b := graph.NewBuilder(false, true)
		sp := tr.begin(root, "graph500.into", 3*i)
		err := graph500.Into(cfg, b)
		tr.end(sp)
		into := time.Since(t)
		var g *graph.Graph
		build := func() {
			sp := tr.begin(root, "graph.build", 3*i)
			g, err = b.Build()
			tr.end(sp)
		}
		if tr != nil {
			objects, bytes := mallocs(build)
			r.rec.add("graph.build_allocs", objects)
			r.rec.add("graph.build_alloc_mb", bytes/(1<<20))
		} else {
			build()
		}
		heap := time.Since(t)
		tr.end(root)
		if !r.must(err, "load: heap build") {
			return
		}
		r.rec.add("build_heap_s", heap.Seconds())
		r.rec.add("op_p50_ms", heap.Seconds()*1e3)
		if tr != nil {
			r.rec.add("graph500.into_s", into.Seconds())
			r.rec.add("graph.build_s", (heap - into).Seconds())
		}
		got := shapeOf(g)
		r.check(got == want, "load: heap build is %+v, want %+v", got, want)
		last = g
		edges += float64(g.NumEdges())

		// Edge stream to on-disk snapshot under a memory budget.
		root = tr.begin(0, "load.build_streamed", 3*i+1)
		t = time.Now()
		b = graph.NewBuilder(false, true).SetSpill(graph.SpillOptions{Dir: r.dir, BudgetBytes: r.sz.spillBudget})
		sp = tr.begin(root, "graph500.into", 3*i+1)
		err = graph500.Into(cfg, b)
		tr.end(sp)
		into = time.Since(t)
		buildTo := func() {
			sp := tr.begin(root, "graph.buildto", 3*i+1)
			if err == nil {
				err = b.BuildTo(streamedPath)
			}
			tr.end(sp)
		}
		if tr != nil {
			objects, bytes := mallocs(buildTo)
			r.rec.add("graph.buildto_allocs", objects)
			r.rec.add("graph.buildto_alloc_mb", bytes/(1<<20))
		} else {
			buildTo()
		}
		streamed := time.Since(t)
		tr.end(root)
		if !r.must(err, "load: streamed build") {
			return
		}
		r.rec.add("build_streamed_s", streamed.Seconds())
		if tr != nil {
			r.rec.add("graph.buildto_s", (streamed - into).Seconds())
		}
		crc, _, err := fileCRC(streamedPath)
		r.check(err == nil && crc == wantFile, "load: streamed snapshot CRC %08x (%v), want %08x: BuildTo and Build+WriteSnapshotFile differ", crc, err, wantFile)
		edges += float64(g.NumEdges())

		// Snapshot to usable heap graph: what a warmed dataset costs.
		for k := 0; k < 2; k++ {
			root = tr.begin(0, "load.reopen_heap", 3*i+2)
			t = time.Now()
			sp = tr.begin(root, "graph.read_snapshot", 3*i+2)
			rg, err := graph.ReadSnapshotFile(refPath)
			tr.end(sp)
			reopen := time.Since(t)
			tr.end(root)
			if !r.must(err, "load: reopen snapshot") {
				return
			}
			r.rec.add("reopen_heap_ms", reopen.Seconds()*1e3)
			got := shapeOf(rg)
			r.check(got == want, "load: decoded snapshot is %+v, want %+v", got, want)
			edges += float64(rg.NumEdges())
		}
		return edges
	})

	if r.traced && last != nil {
		r.loadProbes(last, want, refPath, fileBytes)
	}
}

// loadProbes measures the layers under the load workload's end-to-end
// numbers one call at a time: snapshot write and the three ways to open
// one, the store's four outcomes of a Get, and the parallel sort the
// builder leans on. It runs on traced runs only, after the rounds.
func (r *run) loadProbes(g *graph.Graph, want graphShape, refPath string, fileBytes int64) {
	r.rec.add("graph.bytes_per_edge", float64(fileBytes)/float64(g.NumEdges()))

	path := filepath.Join(r.dir, "probe.gsnap")
	for i := 0; i < r.sz.probeReps; i++ {
		t := time.Now()
		if !r.must(graph.WriteSnapshotFile(path, g), "load probe: write snapshot") {
			return
		}
		d := time.Since(t).Seconds()
		r.rec.add("graph.snapshot_write_ms", d*1e3)
		r.rec.add("graph.snapshot_write_mb_per_s", float64(fileBytes)/(1<<20)/d)
	}
	for i := 0; i < r.sz.mapOpens; i++ {
		t := time.Now()
		m, err := graph.MapSnapshotFile(refPath)
		d := time.Since(t)
		if !r.must(err, "load probe: map snapshot") {
			return
		}
		r.rec.add("graph.map_open_us", d.Seconds()*1e6)
		m.Close()
	}
	for i := 0; i < r.sz.probeReps; i++ {
		t := time.Now()
		m, err := graph.MapSnapshotFileVerified(refPath)
		d := time.Since(t)
		if !r.must(err, "load probe: map snapshot verified") {
			return
		}
		r.rec.add("graph.map_verified_ms", d.Seconds()*1e3)
		m.Close()

		// First traversal of a fresh mapping: page faults included.
		m, err = graph.MapSnapshotFile(refPath)
		if !r.must(err, "load probe: map snapshot") {
			return
		}
		t = time.Now()
		got := shapeOf(m)
		r.rec.add("graph.mapped_first_touch_ms", time.Since(t).Seconds()*1e3)
		r.check(got == want, "load: mapped snapshot is %+v, want %+v", got, want)
		m.Close()
	}

	rng := xrand.New(r.seed)
	keys := make([]int64, r.sz.sortKeys)
	for i := range keys {
		keys[i] = int64(rng.Uint64() >> 1)
	}
	scratch := make([]int64, len(keys))
	for i := 0; i < r.sz.probeReps; i++ {
		copy(scratch, keys)
		t := time.Now()
		par.SortInt64s(scratch)
		r.rec.add("par.sort_int64s_ms", time.Since(t).Seconds()*1e3)
	}

	// The store, both ways: a Get that writes (built: the materializer's
	// graph is persisted) and Gets that read (snapshot decode, map,
	// resident hit), then two keys fighting over a budget that holds one.
	built := func() (*graph.Graph, error) { return g, nil }
	never := func() (*graph.Graph, error) { return nil, fmt.Errorf("materializer called on a populated store") }
	get := func(st *graphstore.Store, key string, mat graphstore.Materializer, source graphstore.Source, metric string, scale float64) bool {
		res, err := st.Get(key, mat)
		if !r.must(err, "load probe: store get "+key) {
			return false
		}
		r.check(res.Source == source, "load probe: store get %s came from %s, want %s", key, res.Source, source)
		r.rec.add(metric, res.Elapsed.Seconds()*scale)
		return true
	}
	var dir string
	for i := 0; i < r.sz.probeReps; i++ {
		dir = filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
		if !get(graphstore.New(graphstore.Options{Dir: dir}), "a", built, graphstore.SourceBuilt, "graphstore.get_built_ms", 1e3) {
			return
		}
	}
	for i := 0; i < r.sz.probeReps; i++ {
		st := graphstore.New(graphstore.Options{Dir: dir})
		if !get(st, "a", never, graphstore.SourceSnapshot, "graphstore.get_snapshot_ms", 1e3) ||
			!get(st, "a", never, graphstore.SourceMemory, "graphstore.get_memory_ns", 1e9) {
			return
		}
		st = graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
		if !get(st, "a", never, graphstore.SourceSnapshot, "graphstore.get_snapshot_mapped_ms", 1e3) {
			return
		}
	}
	st := graphstore.New(graphstore.Options{Dir: dir, MemoryBudget: g.MemoryFootprint() + g.MemoryFootprint()/2})
	if !get(st, "b", built, graphstore.SourceBuilt, "graphstore.get_built_ms", 1e3) {
		return
	}
	for i := 0; i < 2*r.sz.probeReps; i++ {
		if !get(st, string(rune('a'+i%2)), never, graphstore.SourceSnapshot, "graphstore.evict_reload_ms", 1e3) {
			return
		}
	}
}
