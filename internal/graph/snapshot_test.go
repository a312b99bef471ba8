package graph_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
)

// snapshotFixture builds a graph covering the tricky shapes: isolated
// vertices, sparse non-contiguous IDs, skewed degrees.
func snapshotFixture(t *testing.T, directed, weighted bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(directed, weighted)
	b.SetName("fixture")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.AddVertex(0)
	b.AddVertex(1 << 50) // isolated
	for i := 0; i < 4000; i++ {
		b.AddWeightedEdge(rng.Int63n(300)*7, rng.Int63n(300)*7, float64(i)/3)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertGraphsEqual compares two graphs structurally: identity table,
// flags, counts, and full adjacency with weights in both directions.
func assertGraphsEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.Name() != want.Name() || got.Directed() != want.Directed() || got.Weighted() != want.Weighted() {
		t.Fatalf("shape mismatch: got (%q,%v,%v), want (%q,%v,%v)",
			got.Name(), got.Directed(), got.Weighted(), want.Name(), want.Directed(), want.Weighted())
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := int32(0); v < int32(want.NumVertices()); v++ {
		if got.VertexID(v) != want.VertexID(v) {
			t.Fatalf("vertex %d: id %d, want %d", v, got.VertexID(v), want.VertexID(v))
		}
		for _, dir := range []struct {
			name   string
			ga, wa []int32
			gw, ww []float64
			hasIn  bool
		}{
			{"out", got.OutNeighbors(v), want.OutNeighbors(v), got.OutWeights(v), want.OutWeights(v), false},
			{"in", got.InNeighbors(v), want.InNeighbors(v), got.InWeights(v), want.InWeights(v), true},
		} {
			if len(dir.ga) != len(dir.wa) {
				t.Fatalf("vertex %d: %s-degree %d, want %d", v, dir.name, len(dir.ga), len(dir.wa))
			}
			for i := range dir.wa {
				if dir.ga[i] != dir.wa[i] {
					t.Fatalf("vertex %d: %s-neighbor %d differs", v, dir.name, i)
				}
				if dir.ww != nil && dir.gw[i] != dir.ww[i] {
					t.Fatalf("vertex %d: %s-weight %d differs", v, dir.name, i)
				}
			}
		}
	}
}

// snapshotBytes returns g's snapshot as WriteSnapshotFile lays it out.
func snapshotBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// readSnapshotBytes writes raw to a file and reads it back with
// ReadSnapshotFile.
func readSnapshotBytes(t *testing.T, raw []byte) (*graph.Graph, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return graph.ReadSnapshotFile(path)
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			want := snapshotFixture(t, directed, weighted)
			got, err := readSnapshotBytes(t, snapshotBytes(t, want))
			if err != nil {
				t.Fatalf("directed=%v weighted=%v: decode: %v", directed, weighted, err)
			}
			assertGraphsEqual(t, got, want)
		}
	}
}

func TestSnapshotRoundTripEmptyGraph(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddVertex(42)
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshotBytes(t, snapshotBytes(t, want))
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, got, want)
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	want := snapshotFixture(t, true, true)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, got, want)
}

func TestSnapshotTruncatedIsBadSnapshot(t *testing.T) {
	want := snapshotFixture(t, true, true)
	full := snapshotBytes(t, want)
	// Cut at a spread of prefixes: inside the magic, the header, the
	// sections, and one byte short.
	for _, n := range []int{0, 4, 11, 40, len(full) / 2, len(full) - 1} {
		if _, err := readSnapshotBytes(t, full[:n]); !errors.Is(err, graph.ErrBadSnapshot) {
			t.Errorf("truncated at %d: err = %v, want ErrBadSnapshot", n, err)
		}
	}
}

func TestSnapshotBitFlipIsBadSnapshot(t *testing.T) {
	want := snapshotFixture(t, false, true)
	full := snapshotBytes(t, want)
	// Flip one bit at a spread of offsets: header, section payloads and
	// the zero padding between them, which no checksum covers.
	for _, off := range []int{0, 9, 30, len(full) / 3, 2 * len(full) / 3, len(full) - 2} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		if _, err := readSnapshotBytes(t, mut); !errors.Is(err, graph.ErrBadSnapshot) {
			t.Errorf("bit flip at %d: err = %v, want ErrBadSnapshot", off, err)
		}
	}
}

func TestSnapshotWrongVersionIsBadSnapshot(t *testing.T) {
	want := snapshotFixture(t, false, false)
	full := snapshotBytes(t, want)
	full[8] = 0xFF // version field follows the 8-byte magic
	if _, err := readSnapshotBytes(t, full); !errors.Is(err, graph.ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
	// Format v1 — what builds before the page-aligned layout wrote — is a
	// wrong version like any other.
	if _, err := readSnapshotBytes(t, v1Header()); !errors.Is(err, graph.ErrBadSnapshot) {
		t.Fatalf("v1 header: err = %v, want ErrBadSnapshot", err)
	}
}

// v1Header is the start of a format-v1 snapshot of an empty unnamed graph:
// magic, version 1, flags, name length, then the three zero counts.
func v1Header() []byte {
	hdr := append([]byte("GLYTSNAP"), 1, 0, 0, 0)
	return append(hdr, make([]byte, 8+24)...)
}

func TestSnapshotGarbageIsBadSnapshot(t *testing.T) {
	if _, err := readSnapshotBytes(t, []byte("not a snapshot at all")); !errors.Is(err, graph.ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
}

func TestReadSnapshotFileMissing(t *testing.T) {
	_, err := graph.ReadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap"))
	if err == nil || errors.Is(err, graph.ErrBadSnapshot) {
		t.Fatalf("missing file: err = %v, want plain not-exist error", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}
