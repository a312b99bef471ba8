package graph

import (
	"runtime"
	"sync/atomic"
)

// mapping is a refcounted mmap region. The Graph constructed over it
// holds one reference (dropped by Close or, as a safety net, by a
// finalizer); Retain hands additional references to owners like the
// graph store so their release on evict can never unmap memory an engine
// still reaches through a live *Graph.
type mapping struct {
	data []byte
	refs atomic.Int64
}

func (m *mapping) release() {
	if m.refs.Add(-1) == 0 {
		// Best-effort: an munmap failure leaks address space but cannot
		// corrupt anything, and no caller has a useful recovery.
		_ = munmapFile(m.data)
		m.data = nil
	}
}

// MapSnapshotFile opens a v2 snapshot as an mmap-backed Graph. The header
// (including its CRC and the section table's consistency with the file
// size) is validated eagerly, then the CSR arrays are sliced directly
// over the mapping: open cost is O(header) no matter how large the graph
// is, and pages fault in through the page cache on first touch. Section
// payload CRCs are *not* verified on this path — use
// MapSnapshotFileVerified or ReadSnapshotFile when the file is untrusted.
//
// The returned Graph must eventually be released with Close (a finalizer
// backstops forgotten handles). Where the file cannot be mapped — a host
// without mmap, a big-endian host, or a failing mmap call — the graph
// comes from ReadSnapshotFile's fully verified heap read instead and is
// not Mapped.
func MapSnapshotFile(path string) (*Graph, error) {
	return mapSnapshotFile(path, false)
}

// MapSnapshotFileVerified is MapSnapshotFile plus a full pass over the
// mapping that checks the padding, every section CRC and the structural
// shape before the Graph escapes. It gives ReadSnapshotFile's integrity
// guarantees at mmap residency cost, reading the whole file once.
func MapSnapshotFileVerified(path string) (*Graph, error) {
	return mapSnapshotFile(path, true)
}

func mapSnapshotFile(path string, verify bool) (*Graph, error) {
	f, size, err := openSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !hostLittleEndian {
		return readSnapshot(f, size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return readSnapshot(f, size)
	}
	g, err := parseSnapshot(data, verify)
	if err != nil {
		// parseSnapshot returned no graph, so no alias into the mapping
		// outlives it. As in release, an munmap failure only leaks
		// address space.
		_ = munmapFile(data)
		return nil, err
	}
	m := &mapping{data: data}
	m.refs.Store(1) // the Graph's own reference
	g.mapped = m
	runtime.SetFinalizer(g, (*Graph).finalizeMapping)
	return g, nil
}

// Mapped reports whether the graph's arrays live in an mmap'd snapshot
// rather than on the heap.
func (g *Graph) Mapped() bool { return g.mapped != nil }

// MappedBytes returns the size of the backing mapping (0 for heap-backed
// graphs). The graph store charges these bytes separately from heap
// bytes: mapped pages are reclaimable by the OS under pressure, heap
// bytes are not.
func (g *Graph) MappedBytes() int64 {
	if g.mapped == nil {
		return 0
	}
	return int64(len(g.mapped.data))
}

// SizeBytes returns the real byte footprint of the graph's CSR arrays,
// mapped or heap-backed. This is the number LRU byte budgets should
// charge.
func (g *Graph) SizeBytes() int64 { return g.MemoryFootprint() }

// Retain pins the backing mapping and returns an idempotent release
// function. Owners that outlive unpredictable consumers (the graph
// store's LRU, which may evict while an engine still runs) take a
// reference per handout so the munmap happens only after every holder is
// done. For heap-backed graphs it is a no-op.
func (g *Graph) Retain() func() {
	if g.mapped == nil {
		return func() {}
	}
	m := g.mapped
	m.refs.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			m.release()
		}
	}
}

// Close releases the graph's own reference on its backing mapping; the
// memory is unmapped — and the graph's arrays become invalid — once every
// Retain reference is also released. Safe to call on heap-backed graphs
// and more than once.
func (g *Graph) Close() error {
	if g.mapped != nil {
		runtime.SetFinalizer(g, nil)
		g.releaseSelf()
	}
	return nil
}

func (g *Graph) finalizeMapping() { g.releaseSelf() }

func (g *Graph) releaseSelf() {
	if g.mapped != nil && g.mapClosed.CompareAndSwap(false, true) {
		g.mapped.release()
	}
}
