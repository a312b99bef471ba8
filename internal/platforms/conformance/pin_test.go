package conformance_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// TestPooledScratchPinsNoGraph holds the engines' scratch pools to their
// no-pin rule. The pools live as long as the engine, so a pooled value
// that kept a reference into its job — an upload, a graph, a cluster, a
// closure over one, or a message that aliases a graph row — would keep
// every graph the engine ever ran on alive. Every engine, and pregel
// without combiners, runs all the algorithms it supports on a fresh
// graph, directed and undirected, on two threads of two machines (one on
// the single-machine engines); the upload is freed and the collector run.
// Then neither the graph nor its adjacency array may be reachable.
func TestPooledScratchPinsNoGraph(t *testing.T) {
	for _, e := range fuzzEngines(t) {
		for _, directed := range []bool{true, false} {
			at := fmt.Sprintf("%s directed=%v", e.name, directed)
			graphRef, rowsRef := runAndFree(t, at, e.p, directed)
			for range 3 { // sync.Pool victims survive one cycle
				runtime.GC()
			}
			if graphRef.Value() != nil {
				t.Errorf("%s: a pooled value keeps the graph alive after its upload was freed", at)
			}
			if rowsRef.Value() != nil {
				t.Errorf("%s: a pooled value keeps the graph's adjacency array alive after its upload was freed", at)
			}
		}
	}
}

// runAndFree builds a weighted graph, runs every algorithm p supports on
// it, frees the upload and returns weak pointers to the graph and to its
// adjacency array: nothing the caller holds keeps either alive.
func runAndFree(t *testing.T, at string, p platform.Platform, directed bool) (weak.Pointer[graph.Graph], weak.Pointer[int32]) {
	t.Helper()
	const n = 300
	b := graph.NewBuilder(directed, true)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	state := uint64(11)
	for v := int64(0); v < n; v++ {
		b.AddVertex(v)
		for range 5 {
			state = state*6364136223846793005 + 1442695040888963407
			b.AddWeightedEdge(v, int64(state>>33)%n, float64(state>>40&0xff)/16+0.5)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rc := platform.RunConfig{Threads: 2, Machines: 1}
	if p.Distributed() {
		rc.Machines = 2
	}
	up, err := p.UploadContext(context.Background(), g, rc)
	if err != nil {
		t.Fatalf("%s: upload: %v", at, err)
	}
	params := algorithms.Params{Source: g.VertexID(0), Iterations: 5}
	for _, a := range algorithms.All {
		if !p.Supports(a) {
			continue
		}
		if _, err := p.Execute(context.Background(), up, a, params); err != nil {
			t.Fatalf("%s %s: %v", at, a, err)
		}
	}
	up.Free()
	return weak.Make(g), weak.Make(&g.OutNeighbors(0)[0])
}
