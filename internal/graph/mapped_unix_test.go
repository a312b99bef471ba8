//go:build linux || darwin

package graph_test

import (
	"sync"
	"testing"

	"graphalytics/internal/graph"
)

// The mmap view and the heap-read graph must be element-wise
// identical: same identifier table, adjacency, weights, in both
// directions. Run under -race this also exercises concurrent read-only
// access to the mapping.
func TestMapSnapshotFileMatchesHeapDecode(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			path, built := writeV2Fixture(t, directed, weighted)
			heap, err := graph.ReadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := graph.MapSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !mapped.Mapped() {
				t.Fatal("MapSnapshotFile returned a non-mapped graph")
			}
			if mapped.MappedBytes() <= 0 {
				t.Fatalf("MappedBytes = %d, want > 0", mapped.MappedBytes())
			}
			if mapped.SizeBytes() != heap.SizeBytes() {
				t.Fatalf("SizeBytes: mapped %d, heap %d", mapped.SizeBytes(), heap.SizeBytes())
			}
			assertGraphsEqual(t, mapped, heap)
			assertGraphsEqual(t, mapped, built)
			// Concurrent readers over the same mapping: -race must stay
			// silent, and every reader must see identical data.
			fingerprint := func(g *graph.Graph) int64 {
				var sum int64
				for v := int32(0); v < int32(g.NumVertices()); v++ {
					sum += g.VertexID(v)
					for _, u := range g.OutNeighbors(v) {
						sum += int64(u)
					}
					for _, u := range g.InNeighbors(v) {
						sum ^= int64(u) << 1
					}
				}
				return sum
			}
			want := fingerprint(heap)
			sums := make([]int64, 4)
			var wg sync.WaitGroup
			for r := range sums {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sums[r] = fingerprint(mapped)
				}()
			}
			wg.Wait()
			for r, sum := range sums {
				if sum != want {
					t.Fatalf("reader %d: fingerprint %d, want %d", r, sum, want)
				}
			}
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
