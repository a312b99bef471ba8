package graph_test

import (
	"fmt"
	"testing"

	"graphalytics/internal/graph"
)

// splitPlace is an arbitrary deterministic placement, uneven on purpose.
func splitPlace(parts int) func(src, dst int32) int {
	return func(src, dst int32) int { return int(uint32(src)*2654435761^uint32(dst)*40503) % parts }
}

// TestSplitProperties splits directed and undirected, weighted and
// unweighted graphs, heap-built and mapped, into 1, 3 and 8 parts: every
// arc of g lands in exactly the part its placement names, in that part's
// out-row and in-row with its weight; every row stays strictly ascending;
// an undirected edge's two directions share a part; and the parts' edge
// counts sum to g's.
func TestSplitProperties(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			path, heap := writeV2Fixture(t, directed, weighted)
			mapped, err := graph.MapSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []*graph.Graph{heap, mapped} {
				for _, parts := range []int{1, 3, 8} {
					t.Run(fmt.Sprintf("directed=%v/weighted=%v/mapped=%v/parts=%d", directed, weighted, g.Mapped(), parts), func(t *testing.T) {
						checkSplit(t, g, parts)
					})
				}
			}
			mapped.Close()
		}
	}
}

func checkSplit(t *testing.T, g *graph.Graph, parts int) {
	t.Helper()
	place := splitPlace(parts)
	gs := g.Split(parts, place)
	if len(gs) != parts {
		t.Fatalf("%d parts, want %d", len(gs), parts)
	}
	n := int32(g.NumVertices())
	var edges, arcs int64
	for p, pg := range gs {
		if pg.NumVertices() != int(n) || pg.Directed() != g.Directed() || pg.Weighted() != g.Weighted() || pg.Mapped() {
			t.Fatalf("part %d: %v, from %v", p, pg, g)
		}
		edges += pg.NumEdges()
		for v := int32(0); v < n; v++ {
			if pg.VertexID(v) != g.VertexID(v) {
				t.Fatalf("part %d: vertex %d has id %d, want %d", p, v, pg.VertexID(v), g.VertexID(v))
			}
			for _, row := range [][]int32{pg.OutNeighbors(v), pg.InNeighbors(v)} {
				for i := 1; i < len(row); i++ {
					if row[i-1] >= row[i] {
						t.Fatalf("part %d: row of %d not strictly ascending: %v", p, v, row)
					}
				}
			}
			arcs += int64(pg.OutDegree(v))
		}
	}
	if edges != g.NumEdges() {
		t.Fatalf("parts hold %d edges, g %d", edges, g.NumEdges())
	}
	wantArcs := g.NumEdges()
	if !g.Directed() {
		wantArcs *= 2
	}
	if arcs != wantArcs {
		t.Fatalf("parts hold %d arcs, g %d", arcs, wantArcs)
	}
	for v := int32(0); v < n; v++ {
		ws := g.OutWeights(v)
		for i, u := range g.OutNeighbors(v) {
			p := place(v, u)
			if !g.Directed() {
				p = place(min(v, u), max(v, u))
			}
			w := 0.0
			if ws != nil {
				w = ws[i]
			}
			pg := gs[p]
			if !hasArc(pg.OutNeighbors(v), pg.OutWeights(v), u, w) {
				t.Fatalf("arc %d->%d (w %v) missing from part %d's out-row", v, u, w, p)
			}
			if !hasArc(pg.InNeighbors(u), pg.InWeights(u), v, w) {
				t.Fatalf("arc %d->%d (w %v) missing from part %d's in-row", v, u, w, p)
			}
			if !g.Directed() && !hasArc(pg.OutNeighbors(u), pg.OutWeights(u), v, w) {
				t.Fatalf("edge {%d, %d}: reverse direction not in part %d", v, u, p)
			}
			for q, other := range gs {
				if q != p && hasArc(other.OutNeighbors(v), nil, u, 0) {
					t.Fatalf("arc %d->%d in parts %d and %d", v, u, p, q)
				}
			}
		}
	}
}

// hasArc reports whether row holds u, with weight w when ws is non-nil.
func hasArc(row []int32, ws []float64, u int32, w float64) bool {
	for i, x := range row {
		if x == u {
			return ws == nil || ws[i] == w
		}
	}
	return false
}
