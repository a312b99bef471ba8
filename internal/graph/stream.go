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
// run file whenever it fills, and BuildTo merges the sorted runs directly
// into the page-aligned v2 CSR sections on disk. Peak memory is
// O(BudgetBytes + |V|): the identifier table, its lookup table and the
// offset arrays stay in RAM, the arcs never do.
//
// The merge is parallel by key range: the identifier table is cut into P
// vertex ranges of about equal arc counts, and each worker k-way-merges
// its slice of every run — found by binary search over the run file,
// which holds fixed-width records sorted by key and so is its own index —
// into section scratch files of its own, concatenated in worker order.
//
// Determinism: every arc carries seq, its global edge-insertion index, and
// arcs enter a buffer in seq order. The run sort is a stable sort by key,
// so every run comes out in (key, seq) order at any worker count; (key,
// seq) pairs are unique (self-loops never spill), so the merge order is a
// total order independent of run boundaries, worker counts and
// scheduling. A vertex's arcs all fall in one key range, so the range
// split moves no arc between vertices: any split yields the same CSR.
// Within a destination vertex the merge yields arcs in insertion order —
// exactly the order the in-memory counting sort produces before its
// per-vertex sort — and the same per-vertex (neighbor, seq) sort plus
// first-occurrence dedup runs on top. BuildTo output is therefore
// byte-identical to Build + WriteSnapshotFile, which the equivalence tests
// assert by CRC.

// SpillOptions configure the out-of-core build path; see Builder.SetSpill.
type SpillOptions struct {
	// Dir is where spill runs and section scratch files live. A private
	// subdirectory is created under it (or under the OS temp dir when
	// empty) and removed when BuildTo finishes.
	Dir string
	// BudgetBytes bounds the in-memory arc buffers and the radix-sort
	// scratch together: both are allocated once, at exact capacity, on
	// the first spilled edge, and their sum never exceeds the budget. The
	// merge frees them and gives its read buffers the same budget, with a
	// floor of one record per reader. <= 0 selects the default (128 MiB);
	// tiny values are clamped to one page of records.
	BudgetBytes int64
	// Workers pins the worker count for run sorting and for the merge
	// (capped at one worker per vertex); <= 0 means auto. Output bytes are
	// identical at any worker count.
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
	runs []runFile
}

// runFile is one sorted run. The merge opens it once, and every merge
// worker reads its slice through the shared *os.File with ReadAt, so a
// merge holds one descriptor per run at any worker count.
type runFile struct {
	path string
	recs int64
	f    *os.File // open during the merge only
}

type spillState struct {
	opts    SpillOptions
	dir     string // private scratch dir, created lazily
	runRecs int    // capacity of each spool buffer and of the scratch
	out, in spool
	scratch []arcRec    // radix scatter target, shared by the spools
	counts  [][256]int  // per-worker digit histograms
	keys    []int64     // sorted distinct keys of every flushed run
	keysTmp []int64     // merge target for keys
	pages   [][2][]byte // per merge worker: adjacency, weights; runs use pages[0][0]
	seq     uint64
	err     error
}

// page returns worker w's pooled encode buffer i, allocating it on first
// use. Workers touch only their own entry, so sp.pages must already hold
// one per worker.
func (sp *spillState) page(w, i int) []byte {
	if sp.pages[w][i] == nil {
		sp.pages[w][i] = make([]byte, 0, spillPageBytes)
	}
	return sp.pages[w][i]
}

// SetSpill switches the builder to the out-of-core path: subsequent
// AddEdge calls stream through bounded spill runs and the graph is
// produced by BuildTo instead of Build. Must be called before any edge is
// added. It releases any edge capacity an earlier Grow reserved.
func (b *Builder) SetSpill(opts SpillOptions) *Builder {
	if len(b.edges) > 0 {
		panic("graph: SetSpill after AddEdge")
	}
	b.edges = nil
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
	b.spill = &spillState{opts: opts, runRecs: recs / arrays, pages: make([][2][]byte, 1)}
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
	w := pageWriter{f: f, buf: sp.page(0, 0)}
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
	s.runs = append(s.runs, runFile{path: f.Name(), recs: int64(n)})
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

// openSpillRuns opens every run for positional reads; closeSpillRuns
// closes them.
func openSpillRuns(runs []runFile) error {
	for i := range runs {
		f, err := os.Open(runs[i].path)
		if err != nil {
			closeSpillRuns(runs)
			return fmt.Errorf("graph: spill run: %w", err)
		}
		runs[i].f = f
	}
	return nil
}

func closeSpillRuns(runs []runFile) {
	for i := range runs {
		if runs[i].f != nil {
			runs[i].f.Close()
			runs[i].f = nil
		}
	}
}

// lowerBound returns the position of the run's first record keyed key or
// above, searching [lo, hi), which must bracket it. buf is the caller's
// 8-byte probe buffer: reusing it keeps a probe allocation-free.
func (r *runFile) lowerBound(key, lo, hi int64, buf []byte) (int64, error) {
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if _, err := r.f.ReadAt(buf, mid*arcRecBytes); err != nil {
			return 0, fmt.Errorf("graph: spill run %s: %w", r.path, err)
		}
		if int64(binary.LittleEndian.Uint64(buf)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// splitRuns cuts a merge into p key ranges of about equal arc counts.
// Range w holds the vertices [bounds[w], bounds[w+1]) and, in every run r,
// the records [cuts[w][r], cuts[w+1][r]): exactly the records keyed by its
// vertices, since a run is sorted by key. Every vertex's arcs land in one
// range whatever the bounds, so the split never changes the output bytes,
// only the balance. Split w is the first vertex whose records start at or
// past w/p of the arcs, found by a binary search over ids; a probe sums
// the runs' lower bounds, each searched within the bracket the previous
// probes left.
func splitRuns(ids []int64, runs []runFile, p int) (bounds []int, cuts [][]int64, err error) {
	var total int64
	ends := make([]int64, len(runs))
	for r := range runs {
		total += runs[r].recs
		ends[r] = runs[r].recs
	}
	bounds = make([]int, p+1)
	cuts = make([][]int64, p+1)
	cuts[0] = make([]int64, len(runs))
	bounds[p], cuts[p] = len(ids), ends
	buf := make([]byte, 8)
	probe := make([]int64, len(runs))
	for w := 1; w < p; w++ {
		target := total * int64(w) / int64(p)
		lo, hi := bounds[w-1], len(ids)
		lower, upper := slices.Clone(cuts[w-1]), slices.Clone(ends)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			var below int64
			for r := range runs {
				if probe[r], err = runs[r].lowerBound(ids[mid], lower[r], upper[r], buf); err != nil {
					return nil, nil, err
				}
				below += probe[r]
			}
			if below >= target {
				hi = mid
				copy(upper, probe)
			} else {
				lo = mid + 1
				copy(lower, probe)
			}
		}
		bounds[w], cuts[w] = lo, upper
	}
	return bounds, cuts, nil
}

// mergeBufRecs sizes each merge reader's buffer, in records, when p
// workers each read every one of runs runs: the p·runs buffers share the
// budget, with a floor of one record and a ceiling of one page each.
func mergeBufRecs(budget int64, p, runs int) int {
	recs := budget / arcRecBytes / int64(max(p*runs, 1))
	return int(min(max(recs, 1), spillPageBytes/arcRecBytes))
}

// sectionReader streams the records [off, end) (byte offsets) of one run
// through a buffer it owns, refilled by positional reads of the run file
// every worker shares.
type sectionReader struct {
	f        *os.File
	off, end int64
	buf      []byte
	pos, n   int // decode position and valid bytes in buf
	cur      arcRec
}

// next decodes the following record into r.cur; ok is false at the end of
// the section.
//
//graphalint:noalloc
func (r *sectionReader) next() (ok bool, err error) {
	if r.pos == r.n {
		if r.off == r.end {
			return false, nil
		}
		if err := r.fill(); err != nil {
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

// fill reads the next bufferful of the section. A run shorter than the
// records its flush wrote fails here.
func (r *sectionReader) fill() error {
	n := int(min(int64(len(r.buf)), r.end-r.off))
	if _, err := r.f.ReadAt(r.buf[:n], r.off); err != nil {
		return fmt.Errorf("graph: spill run %s: %w", r.f.Name(), err)
	}
	r.off += int64(n)
	r.pos, r.n = 0, n
	return nil
}

// newSections returns a min-heap over the non-empty sections [from[r],
// to[r]) of the runs, each reader primed with its first record. The
// readers' buffers, bufRecs records each or the section if shorter, are
// carved from one allocation.
func newSections(runs []runFile, from, to []int64, bufRecs int) (mergeHeap, error) {
	total := int64(0)
	for r := range runs {
		total += min(int64(bufRecs), to[r]-from[r])
	}
	backing := make([]byte, total*arcRecBytes)
	readers := make([]sectionReader, len(runs))
	h := make(mergeHeap, 0, len(runs))
	for r := range runs {
		recs := min(int64(bufRecs), to[r]-from[r])
		if recs == 0 {
			continue
		}
		rd := &readers[r]
		*rd = sectionReader{f: runs[r].f, off: from[r] * arcRecBytes, end: to[r] * arcRecBytes, buf: backing[:recs*arcRecBytes]}
		backing = backing[recs*arcRecBytes:]
		if _, err := rd.next(); err != nil {
			return nil, err
		}
		h = append(h, rd)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	return h, nil
}

// mergeHeap merges sorted sections by (key, seq) with a binary min-heap.
// (key, seq) uniqueness across runs makes the pop order a total order.
type mergeHeap []*sectionReader

// pop returns the smallest record and advances its section.
//
//graphalint:noalloc
func (h *mergeHeap) pop() (arcRec, error) {
	s := *h
	rec := s[0].cur
	ok, err := s[0].next()
	if err != nil {
		return arcRec{}, err
	}
	if !ok {
		last := len(s) - 1
		s[0] = s[last]
		s = s[:last]
		*h = s
	}
	if len(s) > 0 {
		h.siftDown(0)
	}
	return rec, nil
}

func (h mergeHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && cmpArc(h[l].cur, h[m].cur) < 0 {
			m = l
		}
		if r < len(h) && cmpArc(h[r].cur, h[m].cur) < 0 {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
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
// memory, the neighbor and weight payloads stream to scratch files, one
// per merge worker in key order (the section CRCs are computed when the
// scratch bytes are copied into the final snapshot).
type csrScratch struct {
	off      []int64
	adjPaths []string
	wPaths   []string
	arcs     int64
}

// mergeSpool merges one spool's runs into CSR form on P workers, one key
// range each (see splitRuns). Arc values are translated to internal
// indices through index, each vertex's arcs are sorted by (neighbor, seq)
// and deduplicated keeping the first occurrence — byte-for-byte the
// in-memory buildCSR semantics. Each worker stops at its first error and
// the lowest worker's is returned: ranges ascend by key, so it is the
// error a sequential merge would meet first.
func (b *Builder) mergeSpool(ids []int64, index *idTable, runs []runFile) (*csrScratch, error) {
	sp := b.spill
	if err := openSpillRuns(runs); err != nil {
		return nil, err
	}
	defer closeSpillRuns(runs)
	var recs int64
	for _, r := range runs {
		recs += r.recs
	}
	p := max(min(par.Resolve(sp.opts.Workers, int(recs)), len(ids)), 1)
	bounds, cuts, err := splitRuns(ids, runs, p)
	if err != nil {
		return nil, err
	}
	bufRecs := mergeBufRecs(sp.opts.BudgetBytes, p, len(runs))
	for len(sp.pages) < p {
		sp.pages = append(sp.pages, [2][]byte{})
	}

	cs := &csrScratch{off: make([]int64, len(ids)+1)}
	workers := make([]mergeWorker, p)
	errs := make([]error, p)
	par.Chunks(p, p, func(w, _, _ int) {
		m := &workers[w]
		*m = mergeWorker{b: b, w: w, ids: ids, index: index, off: cs.off, vcur: bounds[w]}
		errs[w] = m.run(runs, cuts[w], cuts[w+1], bufRecs)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	for _, m := range workers {
		cs.adjPaths = append(cs.adjPaths, m.adjPath)
		cs.wPaths = append(cs.wPaths, m.wPath)
		cs.arcs += m.kept
	}
	for v := 0; v < len(ids); v++ {
		cs.off[v+1] += cs.off[v]
	}
	return cs, nil
}

// mergeWorker merges one key range: its sections' heap, the current
// vertex's arcs and the writers of its scratch files.
type mergeWorker struct {
	b     *Builder
	w     int // worker index: key ranges, scratch files and pages are in this order
	ids   []int64
	index *idTable
	off   []int64 // shared; the worker writes only its vertices' entries
	heap  mergeHeap
	// The current vertex's arcs arrive in seq order, so sorting the words
	// neighbor<<32 | position orders them by (neighbor, seq): the first of
	// equal neighbors is the first occurrence. weights is by position, and
	// tmp is sortByNeighbor's scatter target.
	order    []int64
	tmp      []int64
	weights  []float64
	key      int64 // the current vertex's id
	vcur     int   // the current vertex's index, moving forward only
	adj, wgt pageWriter

	adjPath, wPath string // the scratch files, for fileSection
	kept           int64  // arcs written
}

// run merges the sections [from[r], to[r]) of every run into the worker's
// scratch files.
func (m *mergeWorker) run(runs []runFile, from, to []int64, bufRecs int) error {
	sp := m.b.spill
	adjF, err := os.CreateTemp(sp.dir, "adj-*")
	if err != nil {
		return fmt.Errorf("graph: spill merge: %w", err)
	}
	defer adjF.Close()
	m.adjPath = adjF.Name()
	m.adj = pageWriter{f: adjF, buf: sp.page(m.w, 0)}
	if m.b.weighted {
		wF, err := os.CreateTemp(sp.dir, "wgt-*")
		if err != nil {
			return fmt.Errorf("graph: spill merge: %w", err)
		}
		defer wF.Close()
		m.wPath = wF.Name()
		m.wgt = pageWriter{f: wF, buf: sp.page(m.w, 1)}
	}
	if m.heap, err = newSections(runs, from, to, bufRecs); err != nil {
		return err
	}
	m.order = make([]int64, 0, 1024)
	for len(m.heap) > 0 {
		rec, err := m.heap.pop()
		if err != nil {
			return err
		}
		if err := m.add(rec); err != nil {
			return err
		}
	}
	if err := m.flushVertex(); err != nil {
		return err
	}
	if err := m.adj.flush(); err != nil {
		return fmt.Errorf("graph: spill merge: %w", err)
	}
	if m.b.weighted {
		if err := m.wgt.flush(); err != nil {
			return fmt.Errorf("graph: spill merge: %w", err)
		}
	}
	return nil
}

// add takes the merge's next record: a new key closes the previous
// vertex, and the arc joins the current one.
//
//graphalint:noalloc
func (m *mergeWorker) add(rec arcRec) error {
	if len(m.order) > 0 && rec.key != m.key {
		if err := m.flushVertex(); err != nil {
			return err
		}
	}
	m.key = rec.key
	v, ok := m.index.get(rec.val)
	if !ok {
		return missingArcValue(rec.val)
	}
	m.order = append(m.order, int64(v)<<32|int64(len(m.order)))
	if m.b.weighted {
		m.weights = append(m.weights, rec.w)
	}
	return nil
}

// missingArcValue builds add's error outside add, whose per-record path
// must not box values into an error.
func missingArcValue(val int64) error {
	return fmt.Errorf("graph: spill merge: arc value %d missing from identifier table", val)
}

// flushVertex sorts, deduplicates and writes the current vertex's arcs.
func (m *mergeWorker) flushVertex() error {
	if len(m.order) == 0 {
		return nil
	}
	// Keys arrive ascending, so the vertex cursor only moves forward;
	// every key is an endpoint, hence present in ids.
	for m.ids[m.vcur] != m.key {
		m.vcur++
	}
	kept := int64(0)
	prev := int32(-1)
	for _, o := range sortByNeighbor(m.order, &m.tmp) {
		v := int32(o >> 32)
		if v == prev {
			if !m.b.opts.DedupEdges {
				return m.b.duplicateEdge(m.key, m.ids[v])
			}
			continue
		}
		prev = v
		m.adj.put32(uint32(v))
		if m.b.weighted {
			m.wgt.put64(math.Float64bits(m.weights[uint32(o)]))
		}
		kept++
	}
	m.off[m.vcur+1] = kept
	m.kept += kept
	m.order, m.weights = m.order[:0], m.weights[:0]
	return nil
}

// fileSection adapts scratch files, concatenated in order, into a v2
// section source.
func fileSection(paths []string, size int64) v2SectionSource {
	return v2SectionSource{size: size, emit: func(w io.Writer) error {
		var n int64
		for _, path := range paths {
			c, err := copyFile(w, path)
			n += c
			if err != nil {
				return err
			}
		}
		if n != size {
			return fmt.Errorf("scratch section is %d bytes, want %d", n, size)
		}
		return nil
	}}
}

func copyFile(w io.Writer, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return io.Copy(w, f)
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
	secs[secOutAdj] = fileSection(out.adjPaths, 4*out.arcs)
	if b.weighted {
		secs[secOutW] = fileSection(out.wPaths, 8*out.arcs)
	}
	if b.directed {
		secs[secInOff] = int64Sec(in.off)
		secs[secInAdj] = fileSection(in.adjPaths, 4*in.arcs)
		if b.weighted {
			secs[secInW] = fileSection(in.wPaths, 8*in.arcs)
		}
	}
	return installSnapshot(path, func(f *os.File) error {
		return writeSnapshotV2(f, h, secs)
	})
}
