package algorithms_test

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/xrand"
)

// lccPropertyGraph draws a graph that holds every shape the triangle
// kernel treats specially: random arcs, a third of them reciprocated
// (multiplicity 2 on directed graphs), a star whose leaves have degree
// one, a clique (every corner of every triangle shared), and vertices no
// edge touches. External IDs are sparse.
func lccPropertyGraph(t *testing.T, seed uint64, directed bool) *graph.Graph {
	t.Helper()
	r := xrand.New(seed)
	n := 20 + r.Intn(120)
	id := func(v int) int64 { return int64(v)*3 + 1 }
	b := graph.NewBuilder(directed, false)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	leaves, isolated := 2+r.Intn(10), 1+r.Intn(4)
	for v := 0; v < n+leaves+isolated; v++ {
		b.AddVertex(id(v))
	}
	for i, m := 0, n*(1+r.Intn(6)); i < m; i++ {
		s, d := r.Intn(n), r.Intn(n)
		b.AddEdge(id(s), id(d))
		if r.Intn(3) == 0 {
			b.AddEdge(id(d), id(s))
		}
	}
	hub := r.Intn(n)
	for l := 0; l < leaves; l++ {
		if r.Intn(2) == 0 {
			b.AddEdge(id(hub), id(n+l))
		} else {
			b.AddEdge(id(n+l), id(hub))
		}
	}
	clique := r.Perm(n)[:3+r.Intn(6)]
	for i, u := range clique {
		for _, v := range clique[i+1:] {
			b.AddEdge(id(u), id(v))
			if r.Intn(2) == 0 {
				b.AddEdge(id(v), id(u))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestParLCCMatchesOracleOnRandomGraphs is the property behind the
// kernel's determinism claim: on directed and undirected graphs, at every
// worker count, on the heap and mapped from a snapshot, the degree-ordered
// triangle kernel returns RefLCC's output bit for bit.
func TestParLCCMatchesOracleOnRandomGraphs(t *testing.T) {
	dir := t.TempDir()
	for seed := uint64(1); seed <= 40; seed++ {
		for _, directed := range []bool{true, false} {
			g := lccPropertyGraph(t, seed, directed)
			want := algorithms.RefLCC(g)
			name := fmt.Sprintf("seed=%d/directed=%v", seed, directed)
			for _, workers := range []int{1, 2, 3, 8} {
				if got := algorithms.ParLCC(g, workers); !slices.Equal(got, want) {
					t.Errorf("%s/workers=%d: ParLCC differs from RefLCC", name, workers)
				}
			}
			path := filepath.Join(dir, fmt.Sprintf("%d-%v.gsnap", seed, directed))
			if err := graph.WriteSnapshotFile(path, g); err != nil {
				t.Fatal(err)
			}
			mapped, err := graph.MapSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := algorithms.ParLCC(mapped, 3); !slices.Equal(got, want) {
				t.Errorf("%s: ParLCC on the mapped graph differs from RefLCC", name)
			}
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHoodMarksCountsIntersection holds HoodMarks.Count to a naive count
// of |list ∩ hood| over random sorted, duplicate-free lists. One HoodMarks
// serves every case: hundreds of Marks, whose stale stamps must not
// count; a grow to a larger vertex count; and Marks across the epoch's
// wrap, whose first epoch after the wrap every vertex is stamped with.
func TestHoodMarksCountsIntersection(t *testing.T) {
	r := xrand.New(45)
	// set draws a sorted, duplicate-free list of vertices below n, each
	// present with one density per list, from empty to full.
	set := func(n int) []int32 {
		density := r.Intn(9)
		var s []int32
		for w := int32(0); w < int32(n); w++ {
			if r.Intn(8) < density {
				s = append(s, w)
			}
		}
		return s
	}
	var m algorithms.HoodMarks
	check := func(name string, n, marks int) {
		t.Helper()
		for i := 0; i < marks; i++ {
			hood := set(n)
			m.Mark(n, hood)
			in := make([]bool, n)
			for _, u := range hood {
				in[u] = true
			}
			for range 4 {
				list := set(n)
				want := 0
				for _, w := range list {
					if in[w] {
						want++
					}
				}
				if got := m.Count(list); got != want {
					t.Fatalf("%s, mark %d: Count = %d, want %d (|hood| = %d, |list| = %d)", name, i, got, want, len(hood), len(list))
				}
			}
		}
	}
	check("stale stamps", 64, 500)
	check("grown", 1000, 200)
	// Stamp every vertex with epoch 1, the first epoch after the wrap,
	// and wrap at the next Mark: unless the wrap clears the stamps, every
	// vertex counts after it.
	all := make([]int32, 1000)
	for i := range all {
		all[i] = int32(i)
	}
	algorithms.SetHoodEpoch(&m, 0)
	m.Mark(len(all), all)
	algorithms.SetHoodEpoch(&m, math.MaxUint32)
	check("epoch wrap", 1000, 200)
}

// TestLCCProbeWork guards the kernel's work bound without a stopwatch.
// On a fixed Graph500 graph the number of mark probes is an exact
// function of the orientation, so it is pinned, and it must stay under an
// eighth of the adjacency entries RefLCC scans (every neighbor's whole
// list, for every vertex).
func TestLCCProbeWork(t *testing.T) {
	g, err := graph500.Generate(graph500.Config{Scale: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	o := algorithms.NewLCCOrientation(g, 1)
	count, mark := make([]int64, n), make([]uint8, n)
	probes := o.CountRange(count, mark, 0, n)
	const golden = 1721628
	if probes != golden {
		t.Errorf("probes = %d, want %d", probes, golden)
	}
	var scanned int64
	for v := int32(0); int(v) < n; v++ {
		for _, u := range g.OutNeighbors(v) {
			scanned += int64(g.OutDegree(u))
		}
	}
	if probes*8 > scanned {
		t.Errorf("probes = %d, more than 1/8 of the %d entries the oracle scans", probes, scanned)
	}
}

// TestLCCBoundsBalanceSkew checks the work-cut chunk bounds where they
// matter: a clique on the lowest indices of an otherwise sparse graph puts
// every probe in the first equal-count chunk, while the work-cut chunks
// share them out.
func TestLCCBoundsBalanceSkew(t *testing.T) {
	const n, k, p = 4096, 128, 8
	b := graph.NewBuilder(false, false)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(int64(u), int64(v))
		}
	}
	for v := k; v < n; v++ {
		b.AddEdge(int64(v-1), int64(v))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o := algorithms.NewLCCOrientation(g, 1)
	count, mark := make([]int64, n), make([]uint8, n)
	probes := o.CountRange(count, mark, 0, n)
	largest := func(bounds []int) int64 {
		var most int64
		for w := 0; w < p; w++ {
			most = max(most, o.CountRange(count, mark, bounds[w], bounds[w+1]))
		}
		return most
	}
	byCount := make([]int, p+1)
	for w := range byCount {
		byCount[w] = w * n / p
	}
	if most := largest(byCount); most != probes {
		t.Fatalf("equal-count chunks: largest makes %d of %d probes; the graph lost the skew this test needs", most, probes)
	}
	bounds := o.Bounds(p)
	if bounds[0] != 0 || bounds[p] != n || !slices.IsSorted(bounds) {
		t.Fatalf("Bounds(%d) = %v: not a cut of [0, %d)", p, bounds, n)
	}
	if most := largest(bounds); most*p > probes*3/2 {
		t.Errorf("work-cut chunks: largest makes %d of %d probes, over 1.5x its share", most, probes)
	}
}
