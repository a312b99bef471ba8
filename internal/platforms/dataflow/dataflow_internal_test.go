package dataflow

import (
	"fmt"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// TestPartitionsAreResidueClasses checks the edge and vertex datasets
// laid over g: every stored arc — numbered row-major, every out-arc of a
// directed graph and the arc to the higher index of an undirected one —
// is in exactly one edge partition, the one its number is ≡ to modulo
// the partition count; each partition's rows ascend; and the vertex
// partitions cover V once.
func TestPartitionsAreResidueClasses(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 5, Weight: 3},
		{Src: 0, Dst: 2, Weight: 4}, {Src: 3, Dst: 0, Weight: 5}, {Src: 3, Dst: 4, Weight: 6},
		{Src: 4, Dst: 1, Weight: 7}, {Src: 4, Dst: 2, Weight: 8}, {Src: 5, Dst: 3, Weight: 9},
	}
	// A hub of 30 arcs gives rows longer than the partition count.
	for d := int64(6); d < 36; d++ {
		edges = append(edges, graph.Edge{Src: 2, Dst: d, Weight: float64(d)})
	}
	for _, kind := range []struct {
		name               string
		directed, weighted bool
	}{{"directed", true, false}, {"undirected", false, false}, {"weighted", false, true}} {
		g, err := graph.FromEdges(kind.name, kind.directed, kind.weighted, edges, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, machines := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/m%d", kind.name, machines), func(t *testing.T) {
				up, err := New().Upload(g, platform.RunConfig{Threads: 1, Machines: machines})
				if err != nil {
					t.Fatal(err)
				}
				defer up.Free()
				checkPartitions(t, g, up.(*uploaded), machines)
			})
		}
	}
}

func checkPartitions(t *testing.T, g *graph.Graph, u *uploaded, machines int) {
	t.Helper()
	nep := machines * edgePartsPerMachine
	if len(u.eparts) != nep || u.nvp != machines*vertexPartsPerMachine {
		t.Fatalf("%d edge and %d vertex partitions, want %d and %d",
			len(u.eparts), u.nvp, nep, machines*vertexPartsPerMachine)
	}
	type arc struct{ src, dst int32 }
	part := map[arc]int{} // the partition of each stored arc, by its number
	k := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, d := range g.OutNeighbors(v) {
			if g.Directed() || d >= v {
				part[arc{v, d}] = k % nep
				k++
			}
		}
	}
	seen := map[arc]bool{}
	for p, ep := range u.eparts {
		for i, r := range ep {
			if i > 0 && r.row <= ep[i-1].row {
				t.Fatalf("partition %d: row %d after row %d", p, r.row, ep[i-1].row)
			}
		}
		for s, d := range u.arcs(p) {
			a := arc{s, d}
			want, stored := part[a]
			if !stored || seen[a] {
				t.Fatalf("partition %d: arc %v not stored or in two partitions", p, a)
			}
			if want != p {
				t.Fatalf("arc %v in partition %d, its number is ≡ %d", a, p, want)
			}
			seen[a] = true
		}
	}
	if len(seen) != len(part) {
		t.Fatalf("partitions hold %d of %d stored arcs", len(seen), len(part))
	}
	// Vertex partitions: each vertex once, on its owner's machine.
	covered := make([]int, g.NumVertices())
	for p := 0; p < u.nvp; p++ {
		for v := int32(p); v < int32(g.NumVertices()); v += int32(u.nvp) {
			covered[v]++
			if int(u.owner[v]) != p%machines {
				t.Fatalf("vertex %d of partition %d owned by machine %d", v, p, u.owner[v])
			}
		}
	}
	for v, c := range covered {
		if c != 1 {
			t.Fatalf("vertex %d is in %d vertex partitions", v, c)
		}
	}
}
