package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Decode must reject checksum-valid snapshots whose arrays violate the
// sortedness invariants Index and HasEdge binary-search on, or whose
// offsets point past the adjacency array. Such files cannot come from
// WriteSnapshotFile on a built Graph — they model external or hand-built
// .gsnap inputs — so the fixtures are assembled directly.
func TestDecodeRejectsUnsortedSnapshot(t *testing.T) {
	unsortedIDs := &Graph{
		name: "bad-ids", directed: true, numEdges: 2,
		ids:    []int64{5, 3},
		outOff: []int64{0, 1, 2}, outAdj: []int32{1, 0},
		inOff: []int64{0, 1, 2}, inAdj: []int32{1, 0},
	}
	unsortedAdj := &Graph{
		name: "bad-adj", directed: true, numEdges: 2,
		ids:    []int64{1, 2, 3},
		outOff: []int64{0, 2, 2, 2}, outAdj: []int32{2, 1},
		inOff: []int64{0, 0, 1, 2}, inAdj: []int32{0, 0},
	}
	offPastAdj := &Graph{
		name: "bad-off", directed: true, numEdges: 2,
		ids:    []int64{1, 2},
		outOff: []int64{0, 100, 2}, outAdj: []int32{0, 1},
		inOff: []int64{0, 1, 2}, inAdj: []int32{0, 1},
	}
	for _, g := range []*Graph{unsortedIDs, unsortedAdj, offPastAdj} {
		path := filepath.Join(t.TempDir(), g.name+".snap")
		if err := WriteSnapshotFile(path, g); err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", g.name, err)
		}
	}
}

// snapshotOf returns the v2 bytes of a small graph built with the given
// flags and a few weighted edges over sparse identifiers.
func snapshotOf(t testing.TB, directed, weighted bool) []byte {
	t.Helper()
	b := NewBuilder(directed, weighted)
	b.SetName("seed")
	for i, e := range [][2]int64{{1, 5}, {5, 9}, {9, 1}, {1, 1 << 40}} {
		b.AddWeightedEdge(e[0], e[1], float64(i)+0.5)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// swapSections is what lets a big-endian host read the little-endian
// file; on this host the test checks it against encoding/binary instead.
func TestSwapSections(t *testing.T) {
	orig := snapshotOf(t, true, true)
	h, err := parseV2Header(orig)
	if err != nil {
		t.Fatal(err)
	}
	swapped := bytes.Clone(orig)
	swapSections(swapped, h)
	for i, s := range h.secs {
		for off := s.off; off < s.off+s.size; {
			if i == secOutAdj || i == secInAdj {
				if got, want := binary.BigEndian.Uint32(swapped[off:]), binary.LittleEndian.Uint32(orig[off:]); got != want {
					t.Fatalf("section %d at %d: big-endian read %#x, want %#x", i, off, got, want)
				}
				off += 4
				continue
			}
			if got, want := binary.BigEndian.Uint64(swapped[off:]), binary.LittleEndian.Uint64(orig[off:]); got != want {
				t.Fatalf("section %d at %d: big-endian read %#x, want %#x", i, off, got, want)
			}
			off += 8
		}
	}
	swapSections(swapped, h)
	if !bytes.Equal(swapped, orig) {
		t.Fatal("swapping twice is not the identity")
	}
}

// FuzzParseSnapshot holds the one snapshot reader to two properties: no
// input makes it panic, and an input it accepts is exactly the bytes
// WriteSnapshotFile produces for the graph it returns — the layout is
// canonical, so an accepted file has no second representation. The seed
// corpus in testdata/fuzz/FuzzParseSnapshot holds the four
// directed/weighted fixtures, the empty graph, a truncated file, a v1
// header and a bit-flipped file.
func FuzzParseSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := parseSnapshot(bytes.Clone(data), true)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
			return
		}
		path := filepath.Join(t.TempDir(), "again.snap")
		if err := WriteSnapshotFile(path, g); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes, but the graph writes back %d different bytes", len(data), len(again))
		}
	})
}
