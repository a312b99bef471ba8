package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"graphalytics/internal/par"
)

// Out-of-core build path. A spill-configured Builder never holds the full
// edge list: AddEdge appends 24-byte arc records to a bounded in-memory
// buffer that is radix-sorted by key (in parallel) and spilled to a temp
// run file whenever it fills. BuildTo then builds the CSR one key range at
// a time: nextRange cuts the identifier table into ranges of vertices
// whose build fits the budget, galloping from the previous range's size;
// each range's slice of every run — found by binary search over the run
// file, which holds fixed-width records sorted by key and so is its own
// index — is read and translated to internal indices, and buildCSR,
// Build's own counting sort, per-vertex sort and first-occurrence dedup,
// turns it into the range's CSR. The ranges' neighbors and weights are
// appended in key order to one scratch file each per direction, which the
// page-aligned v2 snapshot copies. Peak
// memory is O(BudgetBytes + |V|): the identifier table, its lookup table
// and the offset arrays stay in RAM, the arcs never do.
//
// Determinism: arcs enter a buffer in insertion order and the run sort is
// stable, so each run is sorted by (key, insertion order), and the runs
// themselves follow insertion order. A range reads its runs' slices in run
// order, so every vertex's arcs reach buildCSR in insertion order — the
// order Build's counting sort sees them in — and buildCSR does the rest
// as it does for Build. A vertex's arcs all fall in one range, so the cut
// moves no arc between vertices: any budget yields the same CSR, and
// BuildTo output is byte-identical to Build + WriteSnapshotFile, which the
// equivalence tests assert by CRC.

// SpillOptions configure the out-of-core build path; see Builder.SetSpill.
type SpillOptions struct {
	// Dir is where spill runs and section scratch files live. A private
	// subdirectory is created under it (or under the OS temp dir when
	// empty) and removed when BuildTo finishes.
	Dir string
	// BudgetBytes bounds the in-memory arc buffers and the radix-sort
	// scratch together: both are allocated once, at exact capacity, on
	// the first spilled edge, and their sum never exceeds the budget.
	// BuildTo frees them and builds the CSR in key ranges whose working
	// set fits the same budget; a vertex whose arcs alone do not fit is
	// built as a range of its own. <= 0 selects the default
	// (128 MiB); tiny values are clamped to one page of records.
	BudgetBytes int64
}

const (
	arcRecBytes        = 24
	defaultSpillBudget = 128 << 20
	minSpillBudgetRecs = 128
	spillPageBytes     = 1 << 18
)

// arcRec is one directed arc.
type arcRec struct {
	key int64 // grouping vertex (external id)
	val int64 // neighbor (external id)
	w   float64
}

// spool is one arc stream (out-arcs; directed graphs keep a second one
// keyed by destination for the in-CSR).
type spool struct {
	buf  []arcRec
	runs []runFile
}

// runFile is one sorted run. A range build opens it once, and every reader
// reads its slice through the shared *os.File with ReadAt.
type runFile struct {
	path string
	recs int64
	f    *os.File // open while its spool's CSR builds
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
	page    []byte     // runs' encode buffer
	err     error
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
// it), and arcs enter the buffers in edge order.
func (b *Builder) spillAdd(src, dst int64, w float64) {
	sp := b.spill
	if sp.err != nil {
		return
	}
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
		sp.out.buf = append(sp.out.buf, arcRec{key: src, val: dst, w: w})
		sp.in.buf = append(sp.in.buf, arcRec{key: dst, val: src, w: w})
		if len(sp.out.buf) == cap(sp.out.buf) {
			sp.err = sp.flushBoth()
		}
	} else {
		sp.out.buf = append(sp.out.buf, arcRec{key: src, val: dst, w: w},
			arcRec{key: dst, val: src, w: w})
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
	p := par.Workers(n)
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
	if sp.page == nil {
		sp.page = make([]byte, spillPageBytes/arcRecBytes*arcRecBytes)
	}
	err = writeRecs(f, sorted, sp.page)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("graph: spill run: %w", err)
	}
	s.runs = append(s.runs, runFile{path: f.Name(), recs: int64(n)})
	return nil
}

// writeRecs encodes the records little-endian into buf, a whole number of
// records long, and writes each bufferful to f.
//
//graphalint:noalloc
func writeRecs(f *os.File, recs []arcRec, buf []byte) error {
	for len(recs) > 0 {
		n := min(len(recs), len(buf)/arcRecBytes)
		for i, r := range recs[:n] {
			b := buf[i*arcRecBytes : (i+1)*arcRecBytes]
			binary.LittleEndian.PutUint64(b[0:], uint64(r.key))
			binary.LittleEndian.PutUint64(b[8:], uint64(r.val))
			binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.w))
		}
		if _, err := f.Write(buf[:n*arcRecBytes]); err != nil {
			return err
		}
		recs = recs[n:]
	}
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
			return 0, runError(r, err)
		}
		if int64(binary.LittleEndian.Uint64(buf)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// nextRange cuts the key range that starts at vertex lo, whose records
// start at from[r] in every run r: the longest range [lo, hi) for which
// fits(arcs, vertices) holds, or the vertex lo alone when even it does not
// fit. It returns hi and to, where each run's records of the range end:
// the range holds exactly the records keyed by its vertices, since a run
// is sorted by key.
//
// hi is found by a galloping search from lo+guess, guess being the
// previous range's vertex count, since neighbouring ranges are alike: it
// probes ends 1, 2, 4, ... past that start while they fit, or before it
// while they do not, and binary-searches the last step. A range within d
// vertices of its guess takes about 2·log₂ d probes, where a binary search
// over the remaining ids takes log₂ of their count; the first range, with
// guess 0, takes that binary search. Every probe sums the runs' lower
// bounds, each searched within the bracket the earlier probes left. fits
// grows with the range, so the cut is the one any search finds.
func nextRange(ids []int64, runs []runFile, lo, guess int, from []int64, fits func(arcs int64, verts int) bool) (hi int, to []int64, err error) {
	var base, total int64
	ends := make([]int64, len(runs))
	for r := range runs {
		base += from[r]
		total += runs[r].recs
		ends[r] = runs[r].recs
	}
	if fits(total-base, len(ids)-lo) {
		return len(ids), ends, nil
	}
	// The first end past lo that does not fit lies in (l, h]: l is lo or
	// an end that fits, h an end that does not, and lower and upper hold
	// the runs' bounds at l and at h.
	l, h := lo, len(ids)
	lower, upper, probe := slices.Clone(from), ends, make([]int64, len(runs))
	buf := make([]byte, 8)
	step := func(end int) (bool, error) {
		var below int64
		for r := range runs {
			at, err := runs[r].lowerBound(ids[end], lower[r], upper[r], buf)
			if err != nil {
				return false, err
			}
			probe[r], below = at, below+at
		}
		if fits(below-base, end-lo) {
			l, lower, probe = end, probe, lower
			return true, nil
		}
		h, upper, probe = end, probe, upper
		return false, nil
	}
	if start := lo + guess; guess > 0 && start < h {
		up, err := step(start)
		dir := 1
		if !up {
			dir = -1
		}
		for d := 1; err == nil; d *= 2 {
			end := start + dir*d
			if end <= l || end >= h {
				break
			}
			var fit bool
			if fit, err = step(end); fit != up {
				break
			}
		}
		if err != nil {
			return 0, nil, err
		}
	}
	for h-l > 1 {
		if _, err := step(int(uint(l+h) >> 1)); err != nil {
			return 0, nil, err
		}
	}
	if l > lo {
		return l, lower, nil
	}
	return h, upper, nil
}

// rangeBytes is the memory a key range of arcs arcs over verts vertices
// holds while it builds: per arc the decoded key, value and weight,
// buildCSR's neighbor and weight arrays and their duplicate-free copies;
// per vertex buildCSR's offsets, their copy, the duplicate counts and one
// degree count per worker; and the workers' read buffers; plus the
// headroom reuse gives an array that grows. The per-vertex sort's scratch,
// at most one segment per worker, and a few words per run come on top.
func (b *Builder) rangeBytes(arcs int64, verts int) int64 {
	p := par.Workers(int(arcs))
	perArc := int64(4 + 4 + 4 + 4) // key, value, neighbor, its copy
	if b.weighted {
		perArc += 3 * 8 // weight, its CSR place, its copy
	}
	offsets := int64(verts+1) * (8 + 8)
	bytes := arcs*perArc + offsets + int64(verts*(4+4*p)+p*b.spill.readRecs(p)*arcRecBytes)
	return bytes + bytes/reuseHeadroom
}

// rangeFits is nextRange's rule: a range fits when its working set is
// within the budget.
func (b *Builder) rangeFits(arcs int64, verts int) bool {
	return b.rangeBytes(arcs, verts) <= b.spill.opts.BudgetBytes
}

// readRecs is the records each of p range readers buffers: an eighth of
// the budget between them, at least one record and at most a page each.
func (sp *spillState) readRecs(p int) int {
	recs := sp.opts.BudgetBytes / 8 / int64(p) / arcRecBytes
	return int(min(max(recs, 1), spillPageBytes/arcRecBytes))
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

// rangeStore is the storage a streamed build's key ranges share: the
// decoded arcs, the readers' buffers and buildCSR's arrays, each grown to
// the largest range that needs it and reused by every range after.
type rangeStore struct {
	keys, vals []int32
	ws         []float64
	at         []int  // each run's first arc in keys, vals and ws
	buf        []byte // the readers' buffers, one after another
	csr        csrStore
}

// readRange reads the records [from[r], to[r]) of every run r, the arcs of
// the vertices rows, into the store, in run order: keys as indices into
// rows, values as indices into ids through index, and weights when the
// graph is weighted. The runs' slices are read concurrently, each into its
// own place, and the lowest run's error is returned.
func (b *Builder) readRange(rows []int64, index *idTable, runs []runFile, from, to []int64, st *rangeStore) (keys, vals []int32, ws []float64, err error) {
	st.at = reuse(st.at, len(runs)+1, false)
	at := st.at
	at[0] = 0
	for r := range runs {
		at[r+1] = at[r] + int(to[r]-from[r])
	}
	m := at[len(runs)]
	st.keys, st.vals = reuse(st.keys, m, false), reuse(st.vals, m, false)
	keys, vals = st.keys, st.vals
	if b.weighted {
		st.ws = reuse(st.ws, m, false)
		ws = st.ws
	}
	p := par.Workers(m)
	bufBytes := b.spill.readRecs(p) * arcRecBytes
	st.buf = reuse(st.buf, p*bufBytes, false)
	errs := make([]error, p)
	par.Chunks(len(runs), p, func(w, lo, hi int) {
		buf := st.buf[w*bufBytes : (w+1)*bufBytes]
		for r := lo; r < hi && errs[w] == nil; r++ {
			var rws []float64
			if ws != nil {
				rws = ws[at[r]:at[r+1]]
			}
			errs[w] = decodeRun(&runs[r], from[r], buf, rows, index, keys[at[r]:at[r+1]], vals[at[r]:at[r+1]], rws)
		}
	})
	return keys, vals, ws, firstError(errs)
}

// decodeRun reads len(keys) records of the run from record from on,
// through buf, and decodes record i into keys[i], vals[i] and, when ws is
// not nil, ws[i]. The records ascend by key, so a cursor over rows finds
// each key's index.
//
//graphalint:noalloc
func decodeRun(run *runFile, from int64, buf []byte, rows []int64, index *idTable, keys, vals []int32, ws []float64) error {
	cur := 0
	for i := 0; i < len(keys); {
		n := min(len(buf)/arcRecBytes, len(keys)-i)
		chunk := buf[:n*arcRecBytes]
		if _, err := run.f.ReadAt(chunk, (from+int64(i))*arcRecBytes); err != nil {
			return runError(run, err)
		}
		for ; len(chunk) > 0; chunk, i = chunk[arcRecBytes:], i+1 {
			key := int64(binary.LittleEndian.Uint64(chunk))
			for cur < len(rows) && rows[cur] != key {
				cur++
			}
			v, ok := index.get(int64(binary.LittleEndian.Uint64(chunk[8:])))
			if cur == len(rows) || !ok {
				return badRecord(run, key)
			}
			keys[i], vals[i] = int32(cur), v
			if ws != nil {
				ws[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[16:]))
			}
		}
	}
	return nil
}

// runError and badRecord build the errors of a run's reads and records;
// decodeRun's per-record path must not box values into an error itself.
func runError(run *runFile, err error) error {
	return fmt.Errorf("graph: spill run %s: %w", run.path, err)
}

func badRecord(run *runFile, key int64) error {
	return fmt.Errorf("graph: spill run %s: record keyed %d is out of order or names an unknown vertex", run.path, key)
}

// csrScratch is one built adjacency direction: the offsets stay in
// memory, the neighbor and weight payloads are in scratch files (the
// section CRCs are computed when their bytes are copied into the final
// snapshot).
type csrScratch struct {
	off            []int64
	adjPath, wPath string
	arcs           int64
}

// buildSpool builds one spool's CSR a key range at a time (see nextRange):
// each range's arcs are read from the runs, built by buildCSR — so each
// vertex's arcs are sorted by neighbor and deduplicated keeping the first
// occurrence, as Build does — and appended to the direction's scratch
// files. The first range with an error ends the build; ranges ascend by
// key, so a strict-mode error is the lowest vertex's, as in Build.
func (b *Builder) buildSpool(ids []int64, index *idTable, runs []runFile, st *rangeStore) (*csrScratch, error) {
	if err := openSpillRuns(runs); err != nil {
		return nil, err
	}
	defer closeSpillRuns(runs)
	var files [2]*os.File // neighbors, weights (empty when unweighted)
	for i, pattern := range []string{"adj-*", "wgt-*"} {
		f, err := os.CreateTemp(b.spill.dir, pattern)
		if err != nil {
			return nil, fmt.Errorf("graph: spill range: %w", err)
		}
		defer f.Close()
		files[i] = f
	}
	cs := &csrScratch{off: make([]int64, len(ids)+1), adjPath: files[0].Name(), wPath: files[1].Name()}
	from := make([]int64, len(runs))
	for lo, guess := 0, 0; lo < len(ids); {
		hi, to, err := nextRange(ids, runs, lo, guess, from, b.rangeFits)
		if err != nil {
			return nil, err
		}
		rows := ids[lo:hi]
		keys, vals, ws, err := b.readRange(rows, index, runs, from, to, st)
		if err != nil {
			return nil, err
		}
		off, adj, w, err := b.buildCSR(rows, ids, keys, vals, ws, false, &st.csr)
		if err != nil {
			return nil, err
		}
		for v, o := range off[1:] {
			cs.off[lo+v+1] = cs.arcs + o
		}
		cs.arcs += int64(len(adj))
		if err := writeInt32s(files[0], adj); err != nil {
			return nil, err
		}
		if err := writeFloat64s(files[1], w); err != nil {
			return nil, err
		}
		lo, from, guess = hi, to, hi-lo
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("graph: spill range: %w", err)
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
			return fmt.Errorf("scratch section is %d bytes, want %d", n, size)
		}
		return nil
	}}
}

// BuildTo builds the graph directly into a v2 snapshot at path. For a
// spill-configured builder this is the out-of-core path: flush the
// remaining buffers, derive the identifier table from the gathered key
// set, build each spool's CSR range by range into scratch files, and
// compose the final page-aligned snapshot — all without ever materializing
// the arc arrays in memory. The output is byte-identical to Build +
// WriteSnapshotFile. Builders without spill configured simply build in
// memory and write the snapshot.
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
	sp.out.buf, sp.in.buf, sp.scratch, sp.page = nil, nil, nil, nil
	if err := sp.ensureDir(); err != nil { // no edges at all still needs scratch space
		return err
	}

	ids, err := b.spillIDs()
	if err != nil {
		return err
	}
	sp.keys, sp.keysTmp = nil, nil
	index := idIndex(ids)
	st := new(rangeStore)
	out, err := b.buildSpool(ids, index, sp.out.runs, st)
	if err != nil {
		return err
	}
	var in *csrScratch
	if b.directed {
		if in, err = b.buildSpool(ids, index, sp.in.runs, st); err != nil {
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
