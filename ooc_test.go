//go:build linux

package graphalytics_test

import (
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
)

// The out-of-core claim, end to end: a Graph500 scale-20 graph — whose
// raw edge list alone is ~400 MB — builds through the spill-to-disk
// BuildTo, byte for byte the snapshot the build has always produced, and
// runs BFS from an mmap'd snapshot under a heap limit far below the
// edge-list size. Gated behind GRAPHALYTICS_OOC=1 because it
// generates ~17M edges and external-sorts ~1 GB of arc records; CI runs
// it in a dedicated GOMEMLIMIT-capped job.
func TestOutOfCoreGraph500Scale20(t *testing.T) {
	if os.Getenv("GRAPHALYTICS_OOC") != "1" {
		t.Skip("set GRAPHALYTICS_OOC=1 to run the out-of-core proof")
	}
	const (
		scale        = 20
		edgeFactor   = 16
		numEdges     = edgeFactor << scale  // 16.7M generated edges
		rawEdgeBytes = int64(numEdges) * 24 // []graph.Edge footprint the heap never pays
		heapCap      = int64(256) << 20     // well below rawEdgeBytes (~403 MB)
		// The snapshot's IEEE CRC-32 and size: the key-range build of the
		// ~32 runs must write these bytes at any worker count.
		wantCRC, wantSize = 0xe875829c, 142_381_072
	)
	if os.Getenv("GOMEMLIMIT") == "" {
		// The CI job caps the whole process via GOMEMLIMIT; standalone runs
		// get the same cap here so the proof holds locally too.
		prev := debug.SetMemoryLimit(heapCap)
		defer debug.SetMemoryLimit(prev)
	}

	// The build's peak is what proves it out-of-core: the heap after
	// BuildTo returns has already let the spill buffers go.
	start := time.Now()
	stopSampling := sampleHeapPeak(5 * time.Millisecond)
	b := graph.NewBuilder(false, false)
	b.SetSpill(graph.SpillOptions{Dir: t.TempDir(), BudgetBytes: 64 << 20})
	err := graph500.Into(graph500.Config{Scale: scale, Seed: scale}, b)
	path := filepath.Join(t.TempDir(), "g500-20.snap")
	if err == nil {
		err = b.BuildTo(path)
	}
	peak := stopSampling()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	crc, size := fileCRC32(t, path)
	t.Logf("built scale-%d snapshot in %.1fs with peak heap %d MiB (edge list would be %d MiB), crc %08x, %d bytes",
		scale, elapsed.Seconds(), peak>>20, rawEdgeBytes>>20, crc, size)
	if int64(peak) >= rawEdgeBytes {
		t.Fatalf("peak heap during Into + BuildTo = %d MiB, not below the raw edge list (%d MiB): the build was not out-of-core",
			peak>>20, rawEdgeBytes>>20)
	}
	if crc != wantCRC || size != wantSize {
		t.Fatalf("snapshot crc %08x, %d bytes; want %08x, %d bytes", crc, size, uint32(wantCRC), int64(wantSize))
	}

	g, err := graph.MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumVertices() != 1<<scale {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), 1<<scale)
	}
	// BFS from the highest-degree hub: Graph500's random relabeling makes
	// any fixed ID a random — frequently isolated — R-MAT vertex, while
	// the hub anchors the giant component. The degree scan walks the
	// mapped offset array, touching every CSR page through the mapping.
	hub, hubDeg := int32(0), 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if d := len(g.OutNeighbors(v)); d > hubDeg {
			hub, hubDeg = v, d
		}
	}
	out, err := algorithms.RunReference(g, algorithms.BFS, algorithms.Params{Source: g.VertexID(hub)})
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for _, d := range out.Int {
		if d != algorithms.Unreachable {
			reached++
		}
	}
	// The R-MAT giant component spans well over half the non-isolated
	// vertices (empirically ~70% of all vertices at these scales).
	if reached < g.NumVertices()/4 {
		t.Fatalf("BFS reached %d of %d vertices; mapped graph looks wrong", reached, g.NumVertices())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if int64(ms.HeapAlloc) >= rawEdgeBytes {
		t.Fatalf("heap after BFS = %d MiB, not below the raw edge list (%d MiB)",
			ms.HeapAlloc>>20, rawEdgeBytes>>20)
	}
	t.Logf("BFS reached %d/%d vertices with HeapAlloc=%d MiB", reached, g.NumVertices(), ms.HeapAlloc>>20)
}

// fileCRC32 streams the file at path through an IEEE CRC-32 and returns
// the checksum and the byte count.
func fileCRC32(t *testing.T, path string) (uint32, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum32(), n
}

// sampleHeapPeak reads the bytes of heap objects (live and not yet swept)
// every interval until the returned stop is called; stop waits for the
// sampler to exit and returns the largest reading.
func sampleHeapPeak(interval time.Duration) (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done := make(chan struct{})
	result := make(chan uint64)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				metrics.Read(sample)
				result <- max(peak, sample[0].Value.Uint64())
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}
