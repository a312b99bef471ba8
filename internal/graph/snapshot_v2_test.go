package graph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
)

// writeV2Fixture writes a fixture graph as a v2 snapshot file.
func writeV2Fixture(t *testing.T, directed, weighted bool) (string, *graph.Graph) {
	t.Helper()
	want := snapshotFixture(t, directed, weighted)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	return path, want
}

func TestSnapshotV2FileRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			path, want := writeV2Fixture(t, directed, weighted)
			got, err := graph.ReadSnapshotFile(path)
			if err != nil {
				t.Fatalf("directed=%v weighted=%v: %v", directed, weighted, err)
			}
			if got.Mapped() {
				t.Fatal("ReadSnapshotFile returned a mapped graph")
			}
			assertGraphsEqual(t, got, want)
		}
	}
}

func TestSnapshotV2EmptyGraph(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddVertex(42)
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
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

// Truncations anywhere — mid-header, mid-section, one byte short — must
// fail cleanly with ErrBadSnapshot from both the heap read and the
// map-open path. MapSnapshotFile in particular must reject the file
// during header validation, before any mmap slice escapes: this is the
// no-SIGBUS guarantee.
func TestSnapshotV2TruncatedIsBadSnapshot(t *testing.T) {
	path, _ := writeV2Fixture(t, true, true)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, n := range []int{0, 4, 11, 40, 150, 4096, len(full) / 2, len(full) - 1} {
		if n > len(full) {
			continue
		}
		trunc := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(trunc, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.ReadSnapshotFile(trunc); !errors.Is(err, graph.ErrBadSnapshot) {
			t.Errorf("read truncated at %d: err = %v, want ErrBadSnapshot", n, err)
		}
		if g, err := graph.MapSnapshotFile(trunc); !errors.Is(err, graph.ErrBadSnapshot) {
			if g != nil {
				g.Close()
			}
			t.Errorf("map truncated at %d: err = %v, want ErrBadSnapshot", n, err)
		}
	}
}

// Bit flips in the header fail both open paths; flips in section payloads
// fail the heap read and MapSnapshotFileVerified (the plain
// map-open intentionally skips payload CRCs).
func TestSnapshotV2CorruptIsBadSnapshot(t *testing.T) {
	path, _ := writeV2Fixture(t, false, true)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mutate := func(off int) string {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		p := filepath.Join(dir, "mut.snap")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Header offsets: magic, version, flags, counts, section table.
	for _, off := range []int{0, 9, 13, 25, 60, 100, 190} {
		p := mutate(off)
		if _, err := graph.ReadSnapshotFile(p); !errors.Is(err, graph.ErrBadSnapshot) {
			t.Errorf("read with header flip at %d: err = %v, want ErrBadSnapshot", off, err)
		}
		if g, err := graph.MapSnapshotFile(p); !errors.Is(err, graph.ErrBadSnapshot) {
			if g != nil {
				g.Close()
			}
			t.Errorf("map with header flip at %d: err = %v, want ErrBadSnapshot", off, err)
		}
	}
	// Payload offsets: inside the page-aligned sections.
	for _, off := range []int{4096, len(full)/2 | 1, len(full) - 2} {
		p := mutate(off)
		if _, err := graph.ReadSnapshotFile(p); !errors.Is(err, graph.ErrBadSnapshot) {
			t.Errorf("read with payload flip at %d: err = %v, want ErrBadSnapshot", off, err)
		}
		if g, err := graph.MapSnapshotFileVerified(p); !errors.Is(err, graph.ErrBadSnapshot) {
			if g != nil {
				g.Close()
			}
			t.Errorf("verified map with payload flip at %d: err = %v, want ErrBadSnapshot", off, err)
		}
	}
}

// A v2 file whose header is intact (its CRC recomputed) but not the one
// the writer lays out for those counts is rejected by every open path: a
// graph has exactly one v2 byte representation.
func TestSnapshotV2NonCanonicalIsBadSnapshot(t *testing.T) {
	path, _ := writeV2Fixture(t, true, true)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	const table, fileSize = 56, 48
	reseal := func(b []byte) []byte {
		end := table + 7*20 + int(le.Uint32(b[16:20])) + 4
		le.PutUint32(b[end-4:], crc32.Checksum(b[:end-4], crc32.MakeTable(crc32.Castagnoli)))
		return b
	}
	// One zero page inserted before the last section, whose offset and
	// the file size move with it.
	last := table
	for row := table; row < table+7*20; row += 20 {
		if le.Uint64(full[row:]) > le.Uint64(full[last:]) {
			last = row
		}
	}
	off := le.Uint64(full[last:])
	gap := append(append(append([]byte(nil), full[:off]...), make([]byte, 4096)...), full[off:]...)
	le.PutUint64(gap[last:], off+4096)
	le.PutUint64(gap[fileSize:], uint64(len(gap)))
	unknownFlag := append([]byte(nil), full...)
	unknownFlag[12] |= 1 << 2
	reserved := append([]byte(nil), full...)
	reserved[20] = 1

	dir := t.TempDir()
	for _, c := range []struct {
		name string
		raw  []byte
	}{{"gap", gap}, {"flag", unknownFlag}, {"reserved", reserved}} {
		p := filepath.Join(dir, c.name+".snap")
		if err := os.WriteFile(p, reseal(c.raw), 0o644); err != nil {
			t.Fatal(err)
		}
		for i, open := range []func(string) (*graph.Graph, error){
			graph.ReadSnapshotFile, graph.MapSnapshotFile, graph.MapSnapshotFileVerified,
		} {
			if g, err := open(p); !errors.Is(err, graph.ErrBadSnapshot) {
				if g != nil {
					g.Close()
				}
				t.Errorf("%s, open path %d: err = %v, want ErrBadSnapshot", c.name, i, err)
			}
		}
	}
}

// A graph written twice must produce identical bytes: the v2 layout is a
// pure function of the graph, which the builder-equivalence CRC tests
// depend on.
func TestSnapshotV2Deterministic(t *testing.T) {
	want := snapshotFixture(t, true, true)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if err := graph.WriteSnapshotFile(a, want); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteSnapshotFile(b, want); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("two writes of the same graph differ")
	}
}
