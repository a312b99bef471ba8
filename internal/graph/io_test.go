package graph_test

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphalytics/internal/graph"
)

func TestReadVE(t *testing.T) {
	v := strings.NewReader("# vertices\n1\n2\n3\n\n4\n")
	e := strings.NewReader("1 2 0.5\n2 3 1.5\n# comment\n3 1 2.25\n")
	g, err := graph.ReadVE(v, e, "t", true, true, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got |V|=%d |E|=%d, want 4, 3", g.NumVertices(), g.NumEdges())
	}
	v1, _ := g.Index(1)
	if w := g.OutWeights(v1); len(w) != 1 || w[0] != 0.5 {
		t.Fatalf("weights of 1 = %v, want [0.5]", w)
	}
}

func TestReadVEErrors(t *testing.T) {
	cases := []struct {
		name     string
		v, e     string
		weighted bool
	}{
		{"bad vertex id", "abc\n", "", false},
		{"too few edge fields", "1\n2\n", "1\n", false},
		{"bad src", "1\n2\n", "x 2\n", false},
		{"bad dst", "1\n2\n", "1 x\n", false},
		{"missing weight", "1\n2\n", "1 2\n", true},
		{"bad weight", "1\n2\n", "1 2 zz\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := graph.ReadVE(strings.NewReader(tc.v), strings.NewReader(tc.e), "t", true, tc.weighted, graph.BuildOptions{})
			if err == nil {
				t.Fatal("expected a parse error")
			}
		})
	}
}

// TestReadVERejectsUnusableWeights: the kernels assume non-negative
// weights (a negative cycle never settles), so a weight that is negative,
// NaN or infinite fails the read with an error naming its edge line.
func TestReadVERejectsUnusableWeights(t *testing.T) {
	for _, w := range []string{"-1", "-0.5", "NaN", "nan", "inf", "+Inf", "-inf"} {
		t.Run(w, func(t *testing.T) {
			e := "# weights\n1 2 0.5\n2 1 " + w + "\n"
			_, err := graph.ReadVE(strings.NewReader("1\n2\n"), strings.NewReader(e), "t", true, true, graph.BuildOptions{})
			if err == nil || !strings.Contains(err.Error(), "edge line 3") {
				t.Fatalf("weight %s: err = %v, want an error naming edge line 3", w, err)
			}
		})
	}
	// Zero, and the negative zero it equals, are valid weights.
	for _, w := range []string{"0", "-0"} {
		e := "1 2 " + w + "\n"
		if _, err := graph.ReadVE(strings.NewReader("1\n2\n"), strings.NewReader(e), "t", true, true, graph.BuildOptions{}); err != nil {
			t.Fatalf("weight %s: %v", w, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	vPath := filepath.Join(dir, "g.v")
	ePath := filepath.Join(dir, "g.e")

	b := graph.NewBuilder(false, true)
	b.SetName("roundtrip")
	b.AddVertex(10) // isolated vertex must survive the round trip
	b.AddWeightedEdge(1, 2, 0.125)
	b.AddWeightedEdge(2, 5, 3.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveVE(g, vPath, ePath); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.LoadVE(vPath, ePath, false, true, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: got |V|=%d |E|=%d, want %d, %d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestLoadVEMissingFile(t *testing.T) {
	if _, err := graph.LoadVE("/nonexistent.v", "/nonexistent.e", true, false, graph.BuildOptions{}); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

// FuzzReadVE holds the edge-list reader to two properties: no vertex or
// edge file makes it panic, and a graph it accepts survives WriteVE →
// ReadVE with the same identifiers, the same edges and the same weight
// bits. The seed corpus in testdata/fuzz/FuzzReadVE holds comments and
// blank lines, a weighted file, a missing weight, -1, NaN and inf
// weights, an edge endpoint missing from the vertex file, and a
// three-field line in an unweighted file.
func FuzzReadVE(f *testing.F) {
	f.Fuzz(func(t *testing.T, v, e []byte, directed, weighted bool) {
		g, err := graph.ReadVE(bytes.NewReader(v), bytes.NewReader(e), "fuzz", directed, weighted, graph.BuildOptions{})
		if err != nil {
			return
		}
		var vb, eb bytes.Buffer
		if err := graph.WriteVE(g, &vb, &eb); err != nil {
			t.Fatalf("accepted graph does not write: %v", err)
		}
		back, err := graph.ReadVE(&vb, &eb, "fuzz", directed, weighted, graph.BuildOptions{})
		if err != nil {
			t.Fatalf("written graph does not read: %v", err)
		}
		if !slices.Equal(back.IDs(), g.IDs()) {
			t.Fatalf("round trip changed the identifiers: %v, then %v", g.IDs(), back.IDs())
		}
		want, got := g.Edges(), back.Edges()
		if len(got) != len(want) {
			t.Fatalf("round trip changed the edge count: %d, then %d", len(want), len(got))
		}
		for i := range want {
			if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("round trip changed edge %d: %v, then %v", i, want[i], got[i])
			}
		}
	})
}
