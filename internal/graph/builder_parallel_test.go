package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphalytics/internal/par"
)

// forceWorkers raises GOMAXPROCS so the builder's parallel paths run
// multi-worker even on single-core CI machines, restoring it afterwards.
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

const refVerts, refEdges = 3000, 8 * par.MinGrain

// refUniform and refSkewed are the edge streams of
// TestBuildMatchesReferenceLarge. refUniform draws sparse external IDs,
// so almost every segment is under the insertion-sort cutoff.
func refUniform(rng *rand.Rand) [][2]int64 {
	edges := make([][2]int64, refEdges)
	for i := range edges {
		edges[i] = [2]int64{rng.Int63n(refVerts) * 3, rng.Int63n(refVerts) * 3} // sparse external IDs
	}
	return edges
}

// refSkewed has power-law degrees and hubs whose segments land on 24 and
// 25 arcs, either side of the insertion-sort cutoff, and on more than
// 10^4.
func refSkewed(rng *rand.Rand) [][2]int64 {
	zipf := rand.NewZipf(rng, 1.3, 1, refVerts-1)
	edges := make([][2]int64, refEdges)
	for i := range edges {
		edges[i] = [2]int64{int64(zipf.Uint64()), int64(zipf.Uint64())}
	}
	return withHubs(rng, edges, 24, 25, 12000)
}

// withHubs appends one hub per degree to edges and shuffles them. Hubs
// and their leaves live above the other fixtures' ID ranges, so a hub's
// segment holds exactly its own edges. Few leaves per hub force repeated
// neighbors.
func withHubs(rng *rand.Rand, edges [][2]int64, degrees ...int) [][2]int64 {
	for h, deg := range degrees {
		hub := int64(1<<20 + h)
		for range deg {
			edges = append(edges, [2]int64{hub, 1<<21 + rng.Int63n(int64(deg/3+1))})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// endpoints returns the distinct endpoints of edges in first-appearance
// order.
func endpoints(edges [][2]int64) []int64 {
	seen := make(map[int64]bool)
	var ids []int64
	for _, e := range edges {
		for _, id := range e {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// TestBuildMatchesReferenceLarge cross-checks the parallel counting-sort
// build against a naive map-based construction on inputs large enough to
// engage multiple workers, across the directed × weighted matrix and at
// 1, 2 and 8 workers, with duplicates, self-loops and isolated vertices in
// the mix. Every edge carries a distinct weight, so a kept weight shows
// which occurrence of a repeated edge survived.
//
// The declared fixtures drive both routes to the identifiers: every
// endpoint declared (shuffled, each twice) takes the declared vertices;
// one endpoint left out, or one that only a dropped self-loop names,
// sends Build to the union of vertices and endpoints. The cutoff fixture
// puts hub segments at radixSegMin − 1 and radixSegMin arcs, either side
// of the radix per-vertex sort.
func TestBuildMatchesReferenceLarge(t *testing.T) {
	allDeclared := func(rng *rand.Rand, edges [][2]int64) []int64 {
		ids := endpoints(edges)
		ids = append(ids, ids...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return ids
	}
	for _, fx := range []struct {
		name    string
		edges   func(*rand.Rand) [][2]int64
		declare func(*rand.Rand, [][2]int64) []int64
	}{
		{"uniform", refUniform, nil},
		{"skewed", refSkewed, nil},
		{"declared", refSkewed, allDeclared},
		{"declared-but-one", refUniform, func(rng *rand.Rand, edges [][2]int64) []int64 {
			ids := allDeclared(rng, edges)
			missing := edges[len(edges)/2][1]
			return slices.DeleteFunc(ids, func(id int64) bool { return id == missing })
		}},
		{"undeclared-self-loop", func(rng *rand.Rand) [][2]int64 {
			edges := refUniform(rng)
			return append(edges, [2]int64{-5, -5}) // dropped; -5 is no other edge's endpoint
		}, func(rng *rand.Rand, edges [][2]int64) []int64 {
			return slices.DeleteFunc(allDeclared(rng, edges), func(id int64) bool { return id == -5 })
		}},
		{"cutoff", func(rng *rand.Rand) [][2]int64 {
			return withHubs(rng, refUniform(rng), radixSegMin-1, radixSegMin)
		}, nil},
	} {
		rng := rand.New(rand.NewSource(7))
		edges := fx.edges(rng)
		var declared []int64
		if fx.declare != nil {
			declared = fx.declare(rng, edges)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", fx.name, workers), func(t *testing.T) {
				forceWorkers(t, workers)
				for _, directed := range []bool{true, false} {
					for _, weighted := range []bool{true, false} {
						checkBuildAgainstReference(t, edges, declared, directed, weighted)
					}
				}
			})
		}
	}
}

// checkBuildAgainstReference declares the vertices declared, builds
// edges, edge i weighted i, and compares the graph with a map-based
// keep-first construction.
func checkBuildAgainstReference(t *testing.T, edges [][2]int64, declared []int64, directed, weighted bool) {
	t.Helper()
	b := NewBuilder(directed, weighted)
	b.SetOptions(BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.AddVertex(1 << 40) // isolated, far outside the edge ID range
	wantIDs := map[int64]bool{1 << 40: true}
	for _, id := range declared {
		b.AddVertex(id)
		wantIDs[id] = true
	}
	type ekey struct{ s, d int64 }
	first := make(map[ekey]float64) // keep-first reference weights
	deg := make(map[int64]map[int64]bool)
	addRef := func(s, d int64, w float64) {
		ks, kd := s, d
		if !directed && ks > kd {
			ks, kd = kd, ks
		}
		k := ekey{ks, kd}
		if _, dup := first[k]; dup {
			return
		}
		first[k] = w
		if deg[s] == nil {
			deg[s] = make(map[int64]bool)
		}
		deg[s][d] = true
		if !directed {
			if deg[d] == nil {
				deg[d] = make(map[int64]bool)
			}
			deg[d][s] = true
		}
	}
	for i, e := range edges {
		s, d, w := e[0], e[1], float64(i)
		b.AddWeightedEdge(s, d, w)
		wantIDs[s], wantIDs[d] = true, true
		if s != d {
			addRef(s, d, w)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("directed=%v weighted=%v: %v", directed, weighted, err)
	}
	if int64(len(first)) != g.NumEdges() {
		t.Fatalf("directed=%v weighted=%v: |E|=%d, want %d", directed, weighted, g.NumEdges(), len(first))
	}
	if g.NumVertices() != len(wantIDs) {
		t.Fatalf("directed=%v weighted=%v: |V|=%d, want %d", directed, weighted, g.NumVertices(), len(wantIDs))
	}
	for v, id := range g.IDs() {
		if !wantIDs[id] || v > 0 && g.IDs()[v-1] >= id {
			t.Fatalf("vertex %d: id %d unexpected or out of order", v, id)
		}
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		id := g.VertexID(v)
		adj := g.OutNeighbors(v)
		ws := g.OutWeights(v)
		if len(adj) != len(deg[id]) {
			t.Fatalf("vertex %d: outdeg=%d, want %d", id, len(adj), len(deg[id]))
		}
		for i, u := range adj {
			if i > 0 && adj[i-1] >= u {
				t.Fatalf("vertex %d: adjacency not strictly ascending", id)
			}
			uid := g.VertexID(u)
			if !deg[id][uid] {
				t.Fatalf("vertex %d: unexpected neighbor %d", id, uid)
			}
			if weighted {
				ks, kd := id, uid
				if !directed && ks > kd {
					ks, kd = kd, ks
				}
				if want := first[ekey{ks, kd}]; ws[i] != want {
					t.Fatalf("directed=%v edge (%d,%d): weight %v, want first-occurrence %v", directed, id, uid, ws[i], want)
				}
			}
		}
		if directed {
			// In-adjacency must mirror the reference transpose.
			for _, u := range g.InNeighbors(v) {
				if !deg[g.VertexID(u)][id] {
					t.Fatalf("vertex %d: unexpected in-neighbor %d", id, g.VertexID(u))
				}
			}
		}
	}
}

// TestCheckIndexSpace pins the vertex-count limit Build and BuildTo share.
// 2^31 vertices cannot be materialized in a test, so it checks the size
// argument on both sides of the limit.
func TestCheckIndexSpace(t *testing.T) {
	if err := checkIndexSpace(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 vertices: %v, want nil", err)
	}
	if err := checkIndexSpace(math.MaxInt32 + 1); err == nil {
		t.Fatal("MaxInt32+1 vertices: nil error, want index-space overflow")
	}
}

// TestBuildStrictErrorsOnParallelPath verifies duplicate and self-loop
// errors are still raised when Build runs multi-worker.
func TestBuildStrictErrorsOnParallelPath(t *testing.T) {
	forceWorkers(t, 4)
	mk := func() *Builder {
		b := NewBuilder(true, false)
		for i := 0; i < 4*par.MinGrain; i++ {
			b.AddEdge(int64(i), int64(i+1))
		}
		return b
	}
	b := mk()
	b.AddEdge(17, 18) // duplicate of an existing edge
	if _, err := b.Build(); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("err = %v, want ErrDuplicateEdge", err)
	}
	b = mk()
	b.AddEdge(99, 99)
	if _, err := b.Build(); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
}
