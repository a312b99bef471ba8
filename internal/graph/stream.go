package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"graphalytics/internal/par"
)

// Out-of-core build path. A spill-configured Builder never holds the full
// edge list: AddEdge appends 32-byte arc records to a bounded in-memory
// buffer that is radix-sorted by key (in parallel) and spilled to a temp
// run file whenever it fills, and BuildTo k-way-merges the sorted runs
// directly into the page-aligned v2 CSR sections on disk. Peak memory is
// O(BudgetBytes + |V|): the identifier table, its hash index and the
// offset arrays stay in RAM, the arcs never do.
//
// Determinism: every arc carries seq, its global edge-insertion index, and
// arcs enter a buffer in seq order. The run sort is a stable sort by key,
// so every run comes out in (key, seq) order at any worker count; (key,
// seq) pairs are unique (self-loops never spill), so the merge order is a
// total order independent of run boundaries, worker counts and
// scheduling. Within a destination vertex the merge yields arcs in
// insertion order — exactly the order the in-memory counting sort
// produces before its per-vertex sort — and the same per-vertex (neighbor,
// seq) sort plus first-occurrence dedup runs on top. BuildTo output is
// therefore byte-identical to Build + WriteSnapshotFile, which the
// equivalence tests assert by CRC.

// SpillOptions configure the out-of-core build path; see Builder.SetSpill.
type SpillOptions struct {
	// Dir is where spill runs and section scratch files live. A private
	// subdirectory is created under it (or under the OS temp dir when
	// empty) and removed when BuildTo finishes.
	Dir string
	// BudgetBytes bounds the in-memory arc buffers and the radix-sort
	// scratch together: both are allocated once, at exact capacity, on
	// the first spilled edge, and their sum never exceeds the budget. <= 0
	// selects the default (128 MiB); tiny values are clamped to one page
	// of records.
	BudgetBytes int64
	// Workers pins the worker count for run sorting; <= 0 means auto.
	// Output bytes are identical at any worker count.
	Workers int
}

const (
	arcRecBytes        = 32
	defaultSpillBudget = 128 << 20
	minSpillBudgetRecs = 128
	spillPageBytes     = 1 << 18
)

// arcRec is one directed arc tagged with its global insertion index.
type arcRec struct {
	key int64 // grouping vertex (external id)
	val int64 // neighbor (external id)
	seq uint64
	w   float64
}

func cmpArc(a, b arcRec) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.seq, b.seq)
}

// spool is one arc stream (out-arcs; directed graphs keep a second one
// keyed by destination for the in-CSR).
type spool struct {
	buf  []arcRec
	runs []string
}

type spillState struct {
	opts    SpillOptions
	dir     string // private scratch dir, created lazily
	runRecs int    // capacity of each spool buffer and of the scratch
	out, in spool
	scratch []arcRec   // radix scatter target, shared by the spools
	counts  [][256]int // per-worker digit histograms
	keys    []int64    // sorted distinct keys of every flushed run
	keysTmp []int64    // merge target for keys
	pages   [2][]byte  // encode buffers: runs and adjacency, weights
	seq     uint64
	err     error
}

// page returns pooled encode buffer i, allocating it on first use.
func (sp *spillState) page(i int) []byte {
	if sp.pages[i] == nil {
		sp.pages[i] = make([]byte, 0, spillPageBytes)
	}
	return sp.pages[i]
}

// SetSpill switches the builder to the out-of-core path: subsequent
// AddEdge calls stream through bounded spill runs and the graph is
// produced by BuildTo instead of Build. Must be called before any edge is
// added.
func (b *Builder) SetSpill(opts SpillOptions) *Builder {
	if len(b.edges) > 0 {
		panic("graph: SetSpill after AddEdge")
	}
	if opts.BudgetBytes <= 0 {
		opts.BudgetBytes = defaultSpillBudget
	}
	recs := int(opts.BudgetBytes / arcRecBytes)
	if recs < minSpillBudgetRecs {
		recs = minSpillBudgetRecs
	}
	// The budget holds one buffer per spool and the scratch they share,
	// all of the same capacity.
	arrays := 2
	if b.directed {
		arrays = 3
	}
	b.spill = &spillState{opts: opts, runRecs: recs / arrays}
	return b
}

// Spilling reports whether the builder is on the out-of-core path.
func (b *Builder) Spilling() bool { return b.spill != nil }

func (sp *spillState) ensureDir() error {
	if sp.dir != "" {
		return nil
	}
	dir, err := os.MkdirTemp(sp.opts.Dir, "graph-spill-*")
	if err != nil {
		return fmt.Errorf("graph: spill dir: %w", err)
	}
	sp.dir = dir
	return nil
}

func (sp *spillState) cleanup() {
	if sp.dir != "" {
		os.RemoveAll(sp.dir)
		sp.dir = ""
	}
}

// spillAdd is the AddEdge path for spill-configured builders. It mirrors
// the in-memory semantics exactly: self-loops error (or are dropped, with
// the endpoint still registered as a vertex — collectIDs would have seen
// it), and every edge consumes one seq so arc order matches edge order.
func (b *Builder) spillAdd(src, dst int64, w float64) {
	sp := b.spill
	if sp.err != nil {
		return
	}
	seq := sp.seq
	sp.seq++
	if src == dst {
		if !b.opts.DropSelfLoops {
			sp.err = fmt.Errorf("%w: vertex %d", ErrSelfLoop, src)
			return
		}
		b.vertices = append(b.vertices, src)
		return
	}
	if !b.weighted {
		w = 0
	}
	if sp.scratch == nil {
		sp.out.buf = make([]arcRec, 0, sp.runRecs)
		if b.directed {
			sp.in.buf = make([]arcRec, 0, sp.runRecs)
		}
		sp.scratch = make([]arcRec, 0, sp.runRecs)
	}
	if b.directed {
		sp.out.buf = append(sp.out.buf, arcRec{key: src, val: dst, seq: seq, w: w})
		sp.in.buf = append(sp.in.buf, arcRec{key: dst, val: src, seq: seq, w: w})
		if len(sp.out.buf) == cap(sp.out.buf) {
			sp.err = sp.flushBoth()
		}
	} else {
		sp.out.buf = append(sp.out.buf, arcRec{key: src, val: dst, seq: seq, w: w},
			arcRec{key: dst, val: src, seq: seq, w: w})
		if cap(sp.out.buf)-len(sp.out.buf) < 2 {
			sp.err = sp.flush(&sp.out)
		}
	}
}

func (sp *spillState) flushBoth() error {
	if err := sp.flush(&sp.out); err != nil {
		return err
	}
	return sp.flush(&sp.in)
}

// flush sorts the spool's buffer by key, merges its distinct keys into the
// key set and writes it as one run file.
func (sp *spillState) flush(s *spool) error {
	n := len(s.buf)
	if n == 0 {
		return nil
	}
	if err := sp.ensureDir(); err != nil {
		return err
	}
	p := min(par.Resolve(sp.opts.Workers, n), n)
	if len(sp.counts) < p {
		sp.counts = make([][256]int, p)
	}
	// The sorted records may land in the scratch array; the spool keeps
	// whichever array holds them, the other becomes the scratch — both
	// have the same capacity.
	sorted, spare := radixSort(s.buf, sp.scratch[:n], sp.counts[:p])
	s.buf, sp.scratch = sorted[:0], spare[:0]
	sp.keys, sp.keysTmp = mergeKeys(sp.keysTmp, sp.keys, sorted), sp.keys

	f, err := os.CreateTemp(sp.dir, "run-*")
	if err != nil {
		return fmt.Errorf("graph: spill run: %w", err)
	}
	w := pageWriter{f: f, buf: sp.page(0)}
	for _, r := range sorted {
		w.putRec(r)
	}
	err = w.flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("graph: spill run: %w", err)
	}
	s.runs = append(s.runs, f.Name())
	return nil
}

// radixSort sorts recs stably by key with an LSD radix sort over the 8-bit
// digits of the sign-flipped key, scattering back and forth between recs
// and tmp (len(tmp) == len(recs)); it returns the array holding the sorted
// records and the other one. Digits every key shares are skipped, so keys
// below 2^17 take three passes, not eight. Each pass counts and scatters
// per worker over par.Chunks with buildCSR's prefix rule — digit-major,
// worker-minor — so the pass is stable and its result is the same for any
// len(counts), the worker count.
func radixSort(recs, tmp []arcRec, counts [][256]int) (sorted, spare []arcRec) {
	diff := keyDiff(recs, recs[0].key)
	for shift := uint(0); shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		radixPass(recs, tmp, shift, counts)
		recs, tmp = tmp, recs
	}
	return recs, tmp
}

// keyDiff ORs together every key's bits that differ from first: a digit
// that is zero in the result is shared by all keys.
func keyDiff(recs []arcRec, first int64) uint64 {
	var d uint64
	for _, r := range recs {
		d |= uint64(r.key ^ first)
	}
	return d
}

// radixPass stably scatters src into dst by the key digit at shift.
func radixPass(src, dst []arcRec, shift uint, counts [][256]int) {
	p := len(counts)
	clear(counts) // they hold the previous pass's cursors
	par.Chunks(len(src), p, func(w, lo, hi int) {
		countDigits(src[lo:hi], &counts[w], shift)
	})
	// Exclusive prefix, digit-major and worker-minor: worker w's records of
	// digit d land after every smaller digit and after the records of d in
	// lower workers' chunks, i.e. in input order.
	pos := 0
	for d := range 256 {
		for w := range counts {
			c := counts[w][d]
			counts[w][d] = pos
			pos += c
		}
	}
	par.Chunks(len(src), p, func(w, lo, hi int) {
		scatterDigits(src[lo:hi], dst, &counts[w], shift)
	})
}

// digit is the 8-bit digit at shift of the sign-flipped key, so negative
// keys order before non-negative ones.
func digit(key int64, shift uint) uint8 {
	return uint8((uint64(key) ^ 1<<63) >> shift)
}

// countDigits adds the records' key digits at shift to the histogram c.
//
//graphalint:noalloc
func countDigits(recs []arcRec, c *[256]int, shift uint) {
	for _, r := range recs {
		c[digit(r.key, shift)]++
	}
}

// scatterDigits places every record at its digit's cursor in dst and
// advances the cursor.
//
//graphalint:noalloc
func scatterDigits(recs, dst []arcRec, pos *[256]int, shift uint) {
	for _, r := range recs {
		d := digit(r.key, shift)
		dst[pos[d]] = r
		pos[d]++
	}
}

// mergeKeys writes the union of the sorted distinct set and the distinct
// keys of the key-sorted run into dst's storage and returns it.
//
//graphalint:noalloc
func mergeKeys(dst, set []int64, run []arcRec) []int64 {
	dst = dst[:0]
	i := 0
	for j, r := range run {
		if j > 0 && r.key == run[j-1].key {
			continue
		}
		for i < len(set) && set[i] < r.key {
			dst = append(dst, set[i])
			i++
		}
		if i < len(set) && set[i] == r.key {
			i++
		}
		dst = append(dst, r.key)
	}
	dst = append(dst, set[i:]...)
	return dst
}

// pageWriter encodes fixed-width little-endian values into one page-sized
// buffer and writes the page out whenever it fills. The first write error
// sticks and is returned by flush.
type pageWriter struct {
	f   *os.File
	buf []byte
	err error
}

// grow makes room for n more bytes and returns them.
func (w *pageWriter) grow(n int) []byte {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
	l := len(w.buf)
	w.buf = w.buf[:l+n]
	return w.buf[l:]
}

//graphalint:noalloc
func (w *pageWriter) putRec(r arcRec) {
	b := w.grow(arcRecBytes)
	binary.LittleEndian.PutUint64(b[0:], uint64(r.key))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.val))
	binary.LittleEndian.PutUint64(b[16:], r.seq)
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.w))
}

func (w *pageWriter) put32(v uint32) { binary.LittleEndian.PutUint32(w.grow(4), v) }
func (w *pageWriter) put64(v uint64) { binary.LittleEndian.PutUint64(w.grow(8), v) }

func (w *pageWriter) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// runReader streams one sorted run file through a buffer it owns.
type runReader struct {
	f        *os.File
	buf      []byte
	pos, end int
	cur      arcRec
}

// openRun opens a run of at most runRecs records.
func openRun(path string, runRecs int) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: spill run: %w", err)
	}
	return &runReader{f: f, buf: make([]byte, min(spillPageBytes, runRecs*arcRecBytes))}, nil
}

// next decodes the following record into r.cur; ok is false at end of run.
//
//graphalint:noalloc
func (r *runReader) next() (ok bool, err error) {
	if r.pos == r.end {
		if err := r.fill(); err != nil || r.end == 0 {
			return false, err
		}
	}
	b := r.buf[r.pos : r.pos+arcRecBytes]
	r.cur = arcRec{
		key: int64(binary.LittleEndian.Uint64(b[0:])),
		val: int64(binary.LittleEndian.Uint64(b[8:])),
		seq: binary.LittleEndian.Uint64(b[16:]),
		w:   math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
	r.pos += arcRecBytes
	return true, nil
}

// fill reads the next bufferful of whole records; r.end is 0 at end of run.
func (r *runReader) fill() error {
	n, err := io.ReadFull(r.f, r.buf)
	r.pos, r.end = 0, n
	switch {
	case err == io.EOF || err == nil:
		return nil
	case err == io.ErrUnexpectedEOF && n%arcRecBytes == 0:
		return nil
	case err == io.ErrUnexpectedEOF:
		return fmt.Errorf("graph: spill run %s: truncated record", r.f.Name())
	default:
		return fmt.Errorf("graph: spill run: %w", err)
	}
}

func (r *runReader) close() { r.f.Close() }

// kway merges sorted runs by (key, seq) with a binary heap. (key, seq)
// uniqueness across runs makes the pop order a total order.
type kway struct {
	rs []*runReader
}

func newKWay(paths []string, runRecs int) (*kway, error) {
	k := &kway{}
	for _, p := range paths {
		r, err := openRun(p, runRecs)
		if err != nil {
			k.close()
			return nil, err
		}
		ok, err := r.next()
		if err != nil {
			r.close()
			k.close()
			return nil, err
		}
		if !ok {
			r.close()
			continue
		}
		k.rs = append(k.rs, r)
	}
	for i := len(k.rs)/2 - 1; i >= 0; i-- {
		k.siftDown(i)
	}
	return k, nil
}

func (k *kway) close() {
	for _, r := range k.rs {
		r.close()
	}
	k.rs = nil
}

func (k *kway) empty() bool { return len(k.rs) == 0 }

func (k *kway) less(i, j int) bool {
	return cmpArc(k.rs[i].cur, k.rs[j].cur) < 0
}

// pop returns the smallest record and advances its run.
func (k *kway) pop() (arcRec, error) {
	rec := k.rs[0].cur
	ok, err := k.rs[0].next()
	if err != nil {
		return arcRec{}, err
	}
	if !ok {
		k.rs[0].close()
		last := len(k.rs) - 1
		k.rs[0] = k.rs[last]
		k.rs = k.rs[:last]
	}
	if len(k.rs) > 0 {
		k.siftDown(0)
	}
	return rec, nil
}

func (k *kway) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(k.rs) && k.less(l, m) {
			m = l
		}
		if r < len(k.rs) && k.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		k.rs[i], k.rs[m] = k.rs[m], k.rs[i]
		i = m
	}
}

// spillIDs produces the sorted distinct identifier table: the key set the
// flushes gathered (every endpoint of every surviving edge is a key in
// some spool) merged with the explicit vertices.
func (b *Builder) spillIDs() ([]int64, error) {
	keys := b.spill.keys
	vs := par.SortInt64s(b.vertices)
	ids := make([]int64, 0, len(keys)+len(vs))
	for i, j := 0, 0; i < len(keys) || j < len(vs); {
		var id int64
		if j == len(vs) || (i < len(keys) && keys[i] <= vs[j]) {
			id = keys[i]
			i++
		} else {
			id = vs[j]
			j++
		}
		if len(ids) == 0 || ids[len(ids)-1] != id {
			ids = append(ids, id)
		}
	}
	if err := checkIndexSpace(len(ids)); err != nil {
		return nil, err
	}
	return ids, nil
}

// csrScratch is one merged adjacency direction: the offsets stay in
// memory, the neighbor and weight payloads stream to scratch files (the
// section CRCs are computed when the scratch bytes are copied into the
// final snapshot).
type csrScratch struct {
	off     []int64
	adjPath string
	wPath   string
	arcs    int64
}

// mergeSpool merges one spool's runs into CSR form. Arc values are
// translated to internal indices through index, each vertex's arcs are
// sorted by (neighbor, seq) and deduplicated keeping the first occurrence
// — byte-for-byte the in-memory buildCSR semantics.
func (b *Builder) mergeSpool(ids []int64, index map[int64]int32, runs []string) (*csrScratch, error) {
	sp := b.spill
	cs := &csrScratch{off: make([]int64, len(ids)+1)}

	adjF, err := os.CreateTemp(sp.dir, "adj-*")
	if err != nil {
		return nil, fmt.Errorf("graph: spill merge: %w", err)
	}
	defer adjF.Close()
	cs.adjPath = adjF.Name()
	adj := pageWriter{f: adjF, buf: sp.page(0)}
	var wgt pageWriter
	if b.weighted {
		wF, err := os.CreateTemp(sp.dir, "wgt-*")
		if err != nil {
			return nil, fmt.Errorf("graph: spill merge: %w", err)
		}
		defer wF.Close()
		cs.wPath = wF.Name()
		wgt = pageWriter{f: wF, buf: sp.page(1)}
	}

	m, err := newKWay(runs, sp.runRecs)
	if err != nil {
		return nil, err
	}
	defer m.close()

	// The current vertex's arcs arrive in seq order, so sorting the words
	// neighbor<<32 | position orders them by (neighbor, seq): the first of
	// equal neighbors is the first occurrence. weights is by position.
	order := make([]uint64, 0, 1024)
	var weights []float64
	vcur := 0
	flush := func(key int64) error {
		if len(order) == 0 {
			return nil
		}
		// Keys arrive ascending, so the vertex cursor only moves forward;
		// every key is an endpoint, hence present in ids.
		for ids[vcur] != key {
			vcur++
		}
		slices.Sort(order)
		kept := int64(0)
		prev := int32(-1)
		for _, o := range order {
			v := int32(o >> 32)
			if v == prev {
				if !b.opts.DedupEdges {
					a, c := key, ids[v]
					if !b.directed && a > c {
						a, c = c, a
					}
					return fmt.Errorf("%w: (%d, %d)", ErrDuplicateEdge, a, c)
				}
				continue
			}
			prev = v
			adj.put32(uint32(v))
			if b.weighted {
				wgt.put64(math.Float64bits(weights[uint32(o)]))
			}
			kept++
		}
		cs.off[vcur+1] = kept
		cs.arcs += kept
		order, weights = order[:0], weights[:0]
		return nil
	}

	curKey := int64(0)
	for !m.empty() {
		rec, err := m.pop()
		if err != nil {
			return nil, err
		}
		if len(order) > 0 && rec.key != curKey {
			if err := flush(curKey); err != nil {
				return nil, err
			}
		}
		curKey = rec.key
		v, ok := index[rec.val]
		if !ok {
			return nil, fmt.Errorf("graph: spill merge: arc value %d missing from identifier table", rec.val)
		}
		order = append(order, uint64(v)<<32|uint64(len(order)))
		if b.weighted {
			weights = append(weights, rec.w)
		}
	}
	if err := flush(curKey); err != nil {
		return nil, err
	}

	for v := 0; v < len(ids); v++ {
		cs.off[v+1] += cs.off[v]
	}
	if err := adj.flush(); err != nil {
		return nil, fmt.Errorf("graph: spill merge: %w", err)
	}
	if b.weighted {
		if err := wgt.flush(); err != nil {
			return nil, fmt.Errorf("graph: spill merge: %w", err)
		}
	}
	return cs, nil
}

// fileSection adapts a scratch file into a v2 section source.
func fileSection(path string, size int64) v2SectionSource {
	return v2SectionSource{size: size, emit: func(w io.Writer) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := io.Copy(w, f)
		if err != nil {
			return err
		}
		if n != size {
			return fmt.Errorf("scratch section %s is %d bytes, want %d", path, n, size)
		}
		return nil
	}}
}

// BuildTo builds the graph directly into a v2 snapshot at path. For a
// spill-configured builder this is the out-of-core path: flush the
// remaining buffers, derive the identifier table from the gathered key
// set, merge each spool into CSR scratch files, and compose the final
// page-aligned snapshot — all without ever materializing the arc arrays
// in memory. The output is byte-identical to Build + WriteSnapshotFile.
// Builders without spill configured simply build in memory and write the
// snapshot.
//
// The builder must not be reused after BuildTo.
func (b *Builder) BuildTo(path string) error {
	if b.spill == nil {
		g, err := b.Build()
		if err != nil {
			return err
		}
		return WriteSnapshotFile(path, g)
	}
	sp := b.spill
	defer sp.cleanup()
	if sp.err != nil {
		return sp.err
	}
	if err := sp.flushBoth(); err != nil {
		return err
	}
	// Every arc is on disk: the budget's arrays are not needed again.
	sp.out.buf, sp.in.buf, sp.scratch = nil, nil, nil
	if err := sp.ensureDir(); err != nil { // no edges at all still needs scratch space
		return err
	}

	ids, err := b.spillIDs()
	if err != nil {
		return err
	}
	sp.keys, sp.keysTmp = nil, nil
	index := idIndex(ids)
	out, err := b.mergeSpool(ids, index, sp.out.runs)
	if err != nil {
		return err
	}
	var in *csrScratch
	if b.directed {
		if in, err = b.mergeSpool(ids, index, sp.in.runs); err != nil {
			return err
		}
	}

	h := &v2Header{
		name:   b.name,
		nVerts: int64(len(ids)),
		arcs:   out.arcs,
	}
	if b.directed {
		h.flags |= snapFlagDirected
		h.numEdges = out.arcs
	} else {
		h.numEdges = out.arcs / 2
	}
	if b.weighted {
		h.flags |= snapFlagWeighted
	}
	h.layout()

	var secs [snapV2SectionCount]v2SectionSource
	int64Sec := func(a []int64) v2SectionSource {
		return v2SectionSource{size: 8 * int64(len(a)), emit: func(w io.Writer) error { return writeInt64s(w, a) }}
	}
	secs[secIDs] = int64Sec(ids)
	secs[secOutOff] = int64Sec(out.off)
	secs[secOutAdj] = fileSection(out.adjPath, 4*out.arcs)
	if b.weighted {
		secs[secOutW] = fileSection(out.wPath, 8*out.arcs)
	}
	if b.directed {
		secs[secInOff] = int64Sec(in.off)
		secs[secInAdj] = fileSection(in.adjPath, 4*in.arcs)
		if b.weighted {
			secs[secInW] = fileSection(in.wPath, 8*in.arcs)
		}
	}
	return installSnapshot(path, func(f *os.File) error {
		return writeSnapshotV2(f, h, secs)
	})
}
