package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// The snapshot format persists a built graph's CSR arrays verbatim, so a
// cached dataset loads back with a handful of bulk reads — or an mmap —
// instead of re-parsing text or re-running a generator. This file holds
// the entry points, the structural checks and the bulk slice codecs; the
// page-aligned layout itself is documented in snapshot_v2.go. Format
// version 2 is the only one read or written: a file with any other
// version field (including v1 files older builds wrote) is a bad snapshot.
//
// Decoding verifies the magic, version and checksums and bounds-checks the
// header, returning an error wrapping ErrBadSnapshot for any mismatch so
// callers can treat a stale or corrupt snapshot as a cache miss rather
// than a hard failure.

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
			if off[v] > off[v+1] {
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

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile. Errors
// from corrupt content wrap ErrBadSnapshot; a missing file surfaces as an
// fs.ErrNotExist error.
func ReadSnapshotFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f)
}

// Bulk little-endian slice codecs. A shared chunk buffer keeps the
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

// The readers grow their result incrementally (append, starting from a
// bounded capacity) rather than allocating len==n up front: a corrupt
// header that lies about array sizes then fails at the first missing byte
// instead of forcing a multi-gigabyte allocation first.

const snapInitialCap = 1 << 20 // elements; ~8 MiB worst case

func readInt64s(r io.Reader, n int) ([]int64, error) {
	out := make([]int64, 0, min(n, snapInitialCap))
	buf := make([]byte, 8*snapChunk)
	for len(out) < n {
		c := min(n-len(out), snapChunk)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, badSnapshot("reading int64 array: %v", err)
		}
		for j := 0; j < c; j++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[8*j:])))
		}
	}
	return out, nil
}

func readInt32s(r io.Reader, n int) ([]int32, error) {
	out := make([]int32, 0, min(n, snapInitialCap))
	buf := make([]byte, 4*snapChunk)
	for len(out) < n {
		c := min(n-len(out), snapChunk)
		if _, err := io.ReadFull(r, buf[:4*c]); err != nil {
			return nil, badSnapshot("reading int32 array: %v", err)
		}
		for j := 0; j < c; j++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*j:])))
		}
	}
	return out, nil
}

func readFloat64s(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, 0, min(n, snapInitialCap))
	buf := make([]byte, 8*snapChunk)
	for len(out) < n {
		c := min(n-len(out), snapChunk)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, badSnapshot("reading float64 array: %v", err)
		}
		for j := 0; j < c; j++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:])))
		}
	}
	return out, nil
}
