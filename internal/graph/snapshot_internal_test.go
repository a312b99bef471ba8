package graph

import (
	"errors"
	"path/filepath"
	"testing"
)

// Decode must reject checksum-valid snapshots whose arrays violate the
// sortedness invariants Index and HasEdge binary-search on. Such files
// cannot come from WriteSnapshotFile on a built Graph — they model
// external or hand-built .gsnap inputs — so the fixtures are assembled
// directly.
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
	for _, g := range []*Graph{unsortedIDs, unsortedAdj} {
		path := filepath.Join(t.TempDir(), g.name+".snap")
		if err := WriteSnapshotFile(path, g); err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", g.name, err)
		}
	}
}
