package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"
)

// The snapshot format persists a built graph's CSR arrays verbatim, so a
// cached dataset loads back with one bulk read — or an mmap — instead of
// re-parsing text or re-running a generator. This file holds the entry
// points, the one reader every open runs (parseSnapshot), the structural
// checks and the bulk slice writers; the page-aligned layout itself is
// documented in snapshot_v2.go. Format version 2 is the only one read or
// written: a file with any other version field (including v1 files older
// builds wrote) is a bad snapshot.
//
// Reading verifies the magic, version, canonical layout and checksums,
// returning an error wrapping ErrBadSnapshot for any mismatch so callers
// can treat a stale or corrupt snapshot as a cache miss rather than a hard
// failure.

// ErrBadSnapshot is wrapped by every decode failure caused by the snapshot
// bytes themselves (bad magic, unknown version, truncation, checksum
// mismatch, inconsistent header). Callers should treat it as "regenerate".
var ErrBadSnapshot = errors.New("graph: bad snapshot")

const (
	snapshotMagic = "GLYTSNAP"

	snapFlagDirected = 1 << 0
	snapFlagWeighted = 1 << 1

	// snapshotMaxElems bounds header-declared array lengths before any
	// allocation, so a corrupt header cannot OOM the process. Vertex
	// counts must fit int32 anyway (internal indices are int32).
	snapshotMaxElems = 1 << 34
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checkShape validates structural invariants a checksum cannot: offsets
// must be monotonic and in bounds, adjacency indices must name real
// vertices, and the identifier table and per-vertex neighbor lists must
// be strictly ascending (Index and HasEdge binary-search them). This
// keeps a syntactically valid but inconsistent snapshot from silently
// corrupting kernel results later.
func (g *Graph) checkShape() error {
	n := int64(len(g.ids))
	for i := int64(1); i < n; i++ {
		if g.ids[i-1] >= g.ids[i] {
			return badSnapshot("identifier table not strictly ascending at %d", i)
		}
	}
	check := func(off []int64, adj []int32) error {
		if int64(len(off)) != n+1 || off[0] != 0 || off[n] != int64(len(adj)) {
			return badSnapshot("offset table shape")
		}
		for v := int64(0); v < n; v++ {
			if off[v] > off[v+1] || off[v+1] > off[n] {
				return badSnapshot("offsets not monotonic at vertex %d", v)
			}
			for i := off[v] + 1; i < off[v+1]; i++ {
				if adj[i-1] >= adj[i] {
					return badSnapshot("adjacency of vertex %d not strictly ascending", v)
				}
			}
		}
		for _, u := range adj {
			if int64(u) < 0 || int64(u) >= n {
				return badSnapshot("adjacency index %d out of range", u)
			}
		}
		return nil
	}
	if err := check(g.outOff, g.outAdj); err != nil {
		return err
	}
	if g.directed {
		return check(g.inOff, g.inAdj)
	}
	return nil
}

func badSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// WriteSnapshotFile atomically writes g's snapshot to path in the
// page-aligned format (mmap-able via MapSnapshotFile): the bytes land in
// a temporary file in the same directory which is fsynced and renamed
// into place, so readers never observe a partial snapshot.
func WriteSnapshotFile(path string, g *Graph) error {
	h := headerFromGraph(g)
	return installSnapshot(path, func(f *os.File) error {
		return writeSnapshotV2(f, h, graphSections(g, h))
	})
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile into one
// heap buffer and overlays the graph on it, verifying the header, the
// padding, every section CRC and the structural shape. Errors from
// corrupt content wrap ErrBadSnapshot; a missing file surfaces as an
// fs.ErrNotExist error.
func ReadSnapshotFile(path string) (*Graph, error) {
	f, size, err := openSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readSnapshot(f, size)
}

// openSnapshot opens path and returns its size, rejecting a file too short
// to hold a v2 header before anything is allocated or mapped for it.
func openSnapshot(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("graph: open snapshot: %w", err)
	}
	if size := st.Size(); size < snapV2NameOff+4 || size > math.MaxInt {
		f.Close()
		return nil, 0, badSnapshot("file is %d bytes", size)
	}
	return f, st.Size(), nil
}

// readSnapshot reads the size bytes of f into one buffer and parses them
// with every check on. The buffer is exactly the file's size, and
// parseSnapshot requires the header to declare that size, so a lying
// header cannot make the reader allocate more than the file holds.
func readSnapshot(f *os.File, size int64) (*Graph, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, badSnapshot("reading %d bytes: %v", size, err)
	}
	return parseSnapshot(data, true)
}

// parseSnapshot is the one snapshot reader: it validates the header at the
// start of data, requires len(data) to be the declared file size, and
// overlays the CSR arrays on data in place. With verify it also checks the
// padding, every section CRC and the structural shape; without, it reads
// the header alone, which is what keeps a plain map-open O(header). On
// error no slice into data escapes.
func parseSnapshot(data []byte, verify bool) (*Graph, error) {
	h, err := parseV2Header(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != h.fileSize {
		return nil, badSnapshot("file is %d bytes, header declares %d", len(data), h.fileSize)
	}
	if verify {
		if err := verifySections(data, h); err != nil {
			return nil, err
		}
	}
	if !hostLittleEndian {
		swapSections(data, h)
	}
	g := &Graph{
		name:     h.name,
		directed: h.directed(),
		weighted: h.weighted(),
		numEdges: h.numEdges,
		ids:      sectionInt64s(data, h.secs[secIDs]),
		outOff:   sectionInt64s(data, h.secs[secOutOff]),
		outAdj:   sectionInt32s(data, h.secs[secOutAdj]),
		outW:     sectionFloat64s(data, h.secs[secOutW]),
	}
	if g.directed {
		g.inOff = sectionInt64s(data, h.secs[secInOff])
		g.inAdj = sectionInt32s(data, h.secs[secInAdj])
		g.inW = sectionFloat64s(data, h.secs[secInW])
	} else {
		g.inOff, g.inAdj, g.inW = g.outOff, g.outAdj, g.outW
	}
	if verify {
		if err := g.checkShape(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// verifySections checks that the padding before every section is zero —
// the one region no CRC covers, and the canonical layout allows one byte
// representation per graph — and that every section matches its CRC.
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

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// hostLittleEndian reports whether the in-memory layout of the host
// matches the on-disk little-endian layout, which is what lets sections
// be reinterpreted in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// swapSections reverses the bytes of every element of every section in
// place, by the section's element width, turning the file's little-endian
// values into a big-endian host's. It runs only on heap buffers: a
// big-endian host never overlays a mapping.
func swapSections(data []byte, h *v2Header) {
	for i, s := range h.secs {
		width := int64(8)
		if i == secOutAdj || i == secInAdj {
			width = 4
		}
		for off := s.off; off < s.off+s.size; off += width {
			slices.Reverse(data[off : off+width])
		}
	}
}

// The section slicers reinterpret data in place. Safety rests on
// parseV2Header's canonical layout: every section starts on a page-aligned
// offset and lies inside data. data is either a mapping, which starts on a
// page boundary, or one heap block of more than a page (the out-offset
// section always follows the first page), which the Go allocator aligns to
// at least 8 bytes. So &data[s.off] is aligned for every element type and
// the slice stays inside one allocation, which is what checkptr (on under
// -race) verifies.

func sectionInt64s(data []byte, s v2Section) []int64 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[s.off])), s.size/8)
}

func sectionInt32s(data []byte, s v2Section) []int32 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[s.off])), s.size/4)
}

func sectionFloat64s(data []byte, s v2Section) []float64 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[s.off])), s.size/8)
}

// Bulk little-endian slice writers. A shared chunk buffer keeps the
// conversion allocation-free per call and lets bufio do large writes.

const snapChunk = 8192 // elements per conversion chunk

func writeInt64s(w io.Writer, a []int64) error {
	buf := make([]byte, 8*snapChunk)
	for len(a) > 0 {
		n := min(len(a), snapChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(a[i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return fmt.Errorf("graph: encode snapshot: %w", err)
		}
		a = a[n:]
	}
	return nil
}

func writeInt32s(w io.Writer, a []int32) error {
	buf := make([]byte, 4*snapChunk)
	for len(a) > 0 {
		n := min(len(a), snapChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(a[i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return fmt.Errorf("graph: encode snapshot: %w", err)
		}
		a = a[n:]
	}
	return nil
}

func writeFloat64s(w io.Writer, a []float64) error {
	buf := make([]byte, 8*snapChunk)
	for len(a) > 0 {
		n := min(len(a), snapChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(a[i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return fmt.Errorf("graph: encode snapshot: %w", err)
		}
		a = a[n:]
	}
	return nil
}
