package graph

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// ErrMapUnsupported is returned by MapSnapshotFile on platforms without
// mmap support or whose byte order does not match the little-endian
// on-disk layout. Callers should fall back to ReadSnapshotFile.
var ErrMapUnsupported = errors.New("graph: snapshot mapping unsupported on this platform")

// hostLittleEndian reports whether the in-memory layout of the host
// matches the on-disk little-endian layout, which is what lets sections
// be reinterpreted in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

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
// backstops forgotten handles). Non-mmap platforms yield
// ErrMapUnsupported; callers fall back to ReadSnapshotFile.
func MapSnapshotFile(path string) (*Graph, error) {
	return mapSnapshotFile(path, false)
}

// MapSnapshotFileVerified is MapSnapshotFile plus a full pass over the
// mapping that checks every section CRC and the structural shape before
// the Graph escapes. It gives the copying decoder's integrity guarantees
// at mmap residency cost, reading the whole file once.
func MapSnapshotFileVerified(path string) (*Graph, error) {
	return mapSnapshotFile(path, true)
}

func mapSnapshotFile(path string, verify bool) (*Graph, error) {
	if !mmapSupported || !hostLittleEndian {
		return nil, ErrMapUnsupported
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var fixed [snapV2FixedBytes]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return nil, badSnapshot("reading v2 header: %v", err)
	}
	if string(fixed[:8]) != snapshotMagic {
		return nil, badSnapshot("magic %q", fixed[:8])
	}
	if v := leU32(fixed[8:12]); v != snapshotVersion2 {
		return nil, badSnapshot("version %d, want %d", v, snapshotVersion2)
	}
	nameLen := leU32(fixed[16:20])
	if nameLen > 1<<20 {
		return nil, badSnapshot("name length %d", nameLen)
	}
	hdr := make([]byte, snapV2NameOff+int(nameLen)+4)
	copy(hdr, fixed[:])
	if _, err := io.ReadFull(f, hdr[snapV2FixedBytes:]); err != nil {
		return nil, badSnapshot("reading v2 header: %v", err)
	}
	h, err := parseV2Header(hdr)
	if err != nil {
		return nil, err
	}
	// The declared file size must match reality before any section offset
	// is trusted: together with parseV2Header's bounds checks this is what
	// rules out SIGBUS from slicing a truncated mapping.
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: map snapshot: %w", err)
	}
	if st.Size() != h.fileSize {
		return nil, badSnapshot("file is %d bytes, header declares %d", st.Size(), h.fileSize)
	}

	data, err := mmapFile(f, h.fileSize)
	if err != nil {
		return nil, err
	}
	m := &mapping{data: data}
	m.refs.Store(1) // the Graph's own reference

	g := &Graph{
		name:     h.name,
		directed: h.directed(),
		weighted: h.weighted(),
		numEdges: h.numEdges,
		mapped:   m,
	}
	g.ids = mapInt64s(data, h.secs[secIDs])
	g.outOff = mapInt64s(data, h.secs[secOutOff])
	g.outAdj = mapInt32s(data, h.secs[secOutAdj])
	g.outW = mapFloat64s(data, h.secs[secOutW])
	if g.directed {
		g.inOff = mapInt64s(data, h.secs[secInOff])
		g.inAdj = mapInt32s(data, h.secs[secInAdj])
		g.inW = mapFloat64s(data, h.secs[secInW])
	} else {
		g.inOff, g.inAdj, g.inW = g.outOff, g.outAdj, g.outW
	}

	if verify {
		err := verifySections(data, h)
		if err == nil {
			err = g.checkShape()
		}
		if err != nil {
			// Drop every alias into the mapping before unmapping it.
			g.ids, g.outOff, g.outAdj, g.outW = nil, nil, nil, nil
			g.inOff, g.inAdj, g.inW = nil, nil, nil
			g.mapped = nil
			m.release()
			return nil, err
		}
	}
	runtime.SetFinalizer(g, (*Graph).finalizeMapping)
	return g, nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// The section slicers reinterpret mapping bytes in place. Safety rests on
// parseV2Header's invariants: offsets are page-aligned (hence aligned for
// every element type), and off+size lies inside the mapping.

func mapInt64s(data []byte, s v2Section) []int64 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[s.off])), s.size/8)
}

func mapInt32s(data []byte, s v2Section) []int32 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[s.off])), s.size/4)
}

func mapFloat64s(data []byte, s v2Section) []float64 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[s.off])), s.size/8)
}

func verifySections(data []byte, h *v2Header) error {
	pos := h.headerLen()
	for i, s := range h.secs {
		if s.size == 0 {
			continue
		}
		if !allZero(data[pos:s.off]) {
			return badSnapshot("nonzero padding before section %d", i)
		}
		if got := crc32.Checksum(data[s.off:s.off+s.size], crcTable); got != s.crc {
			return badSnapshot("section %d checksum %08x, want %08x", i, got, s.crc)
		}
		pos = s.off + s.size
	}
	return nil
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
