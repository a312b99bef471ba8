package graph_test

import (
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
)

func TestMapSnapshotFileVerified(t *testing.T) {
	path, want := writeV2Fixture(t, true, true)
	g, err := graph.MapSnapshotFileVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	assertGraphsEqual(t, g, want)
}

// Retain must keep the mapping alive past Close: the graph store hands
// out graphs whose eviction can race with engines still traversing them.
func TestMappedRetainOutlivesClose(t *testing.T) {
	path, want := writeV2Fixture(t, false, true)
	g, err := graph.MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	release := g.Retain()
	if err := g.Close(); err != nil { // drops the graph's own ref; retained ref remains
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, want) // mapping must still be readable
	release()
	release() // idempotent
}

func TestMappedCloseIdempotent(t *testing.T) {
	path, _ := writeV2Fixture(t, false, false)
	g, err := graph.MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapGraphMappedAccessors(t *testing.T) {
	g := snapshotFixture(t, true, true)
	if g.Mapped() {
		t.Fatal("heap graph reports Mapped")
	}
	if g.MappedBytes() != 0 {
		t.Fatalf("MappedBytes = %d, want 0", g.MappedBytes())
	}
	if g.SizeBytes() != g.MemoryFootprint() {
		t.Fatal("SizeBytes != MemoryFootprint for heap graph")
	}
	g.Retain()() // no-op
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapSnapshotFileMissing(t *testing.T) {
	if _, err := graph.MapSnapshotFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("mapping a missing file succeeded")
	}
}

// A clone of a mapped graph lives on the heap: it is not Mapped and stays
// readable after the source's mapping is gone.
func TestCloneOfMappedGraphIsHeapResident(t *testing.T) {
	for _, directed := range []bool{true, false} {
		path, built := writeV2Fixture(t, directed, true)
		mapped, err := graph.MapSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := mapped.Clone()
		if c.Mapped() || c.MappedBytes() != 0 {
			t.Fatalf("clone of a mapped graph: Mapped=%v MappedBytes=%d, want heap", c.Mapped(), c.MappedBytes())
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, c, built)
	}
}
