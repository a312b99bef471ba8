package workload_test

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/workload"
)

// TestCatalogGolden pins the CRC-32C of every in-core catalog dataset's
// snapshot bytes. A generator or builder change that moves one byte of
// any dataset fails here; an intended one must bump GeneratorVersion, so
// that snapshot caches keyed by Fingerprint regenerate, and record the
// new values.
func TestCatalogGolden(t *testing.T) {
	want := map[string]uint32{
		"R1":        0x8aa5b421,
		"R2":        0xd0009535,
		"R3":        0x9d791eab,
		"R4":        0x0634e9e5,
		"R5":        0x1512021a,
		"R6":        0xfb7f81af,
		"D100":      0x06df804a,
		"D100cc005": 0x0dd79ef2,
		"D100cc015": 0x358497de,
		"D300":      0xd780a517,
		"D1000":     0xb0051fa1,
		"G22":       0xa6d59a27,
		"G23":       0x5815adf3,
		"G24":       0x4dd3acdc,
		"G25":       0xcd159f4f,
		"G26":       0x45b34f76,
	}
	if workload.GeneratorVersion != 1 {
		t.Fatalf("GeneratorVersion %d: these values are version 1's", workload.GeneratorVersion)
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	dir := t.TempDir()
	cat := workload.Catalog()
	if len(cat) != len(want) {
		t.Errorf("catalog holds %d in-core datasets, the golden %d", len(cat), len(want))
	}
	for _, d := range cat {
		g, err := d.Generate()
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		path := filepath.Join(dir, d.ID+".gsnap")
		if err := graph.WriteSnapshotFile(path, g); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.Checksum(b, table); got != want[d.ID] {
			t.Errorf("%s: snapshot CRC-32C %#08x, want %#08x", d.ID, got, want[d.ID])
		}
	}
}
