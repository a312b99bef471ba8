package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"graphalytics/internal/par"
)

// Build errors reported by Builder.Build for inputs that violate the
// Graphalytics data model.
var (
	// ErrSelfLoop is returned when an edge connects a vertex to itself and
	// the builder is not configured to drop such edges.
	ErrSelfLoop = errors.New("graph: self-loop edge")
	// ErrDuplicateEdge is returned when the same edge occurs twice and the
	// builder is not configured to deduplicate.
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
)

// BuildOptions control how a Builder normalizes its input into a valid
// Graphalytics graph. The zero value is strict: duplicate edges and
// self-loops are build errors, matching the specification's requirement
// that "every edge must be unique and connect two distinct vertices".
type BuildOptions struct {
	// DedupEdges silently drops repeated edges (keeping the first
	// occurrence, including its weight) instead of failing.
	DedupEdges bool
	// DropSelfLoops silently drops edges whose endpoints are equal instead
	// of failing. Synthetic generators such as Graph500 produce both
	// self-loops and duplicates and rely on these options.
	DropSelfLoops bool
}

// Builder accumulates vertices and edges and assembles an immutable Graph.
// Vertices referenced by edges are added implicitly; isolated vertices must
// be added explicitly with AddVertex. A Builder must not be used
// concurrently from multiple goroutines; Build itself fans work out over
// GOMAXPROCS workers internally.
type Builder struct {
	name     string
	directed bool
	weighted bool
	opts     BuildOptions
	vertices []int64
	edges    []Edge

	// spill, when non-nil, switches edge accumulation to the out-of-core
	// path (bounded buffers spilled to sorted runs; see stream.go). Such a
	// builder produces its graph with BuildTo, not Build.
	spill *spillState
}

// NewBuilder returns a Builder for a graph with the given direction and
// weight configuration and strict build options.
func NewBuilder(directed, weighted bool) *Builder {
	return &Builder{directed: directed, weighted: weighted}
}

// SetName sets the name recorded on the built graph.
func (b *Builder) SetName(name string) *Builder { b.name = name; return b }

// SetOptions replaces the build options.
func (b *Builder) SetOptions(opts BuildOptions) *Builder { b.opts = opts; return b }

// Grow pre-allocates capacity for the given number of vertices and edges.
// Spill-configured builders ignore the edge hint: their edge buffer is
// bounded by the spill budget, never by the expected total.
func (b *Builder) Grow(vertices, edges int) {
	if cap(b.vertices)-len(b.vertices) < vertices {
		nv := make([]int64, len(b.vertices), len(b.vertices)+vertices)
		copy(nv, b.vertices)
		b.vertices = nv
	}
	if b.spill != nil {
		return
	}
	if cap(b.edges)-len(b.edges) < edges {
		ne := make([]Edge, len(b.edges), len(b.edges)+edges)
		copy(ne, b.edges)
		b.edges = ne
	}
}

// AddVertex registers a vertex. Adding the same identifier twice is
// harmless.
func (b *Builder) AddVertex(id int64) { b.vertices = append(b.vertices, id) }

// AddEdge adds an unweighted edge.
func (b *Builder) AddEdge(src, dst int64) {
	if b.spill != nil {
		b.spillAdd(src, dst, 0)
		return
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst})
}

// AddWeightedEdge adds an edge with weight w. The weight is ignored when
// the builder was created with weighted=false.
func (b *Builder) AddWeightedEdge(src, dst int64, w float64) {
	if b.spill != nil {
		b.spillAdd(src, dst, w)
		return
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
}

// AddEdges adds the edges in order, as that many AddWeightedEdge calls
// would, in one call: an in-memory builder copies them into its edge list
// at once. The builder keeps no reference to edges.
func (b *Builder) AddEdges(edges []Edge) {
	if b.spill != nil {
		for _, e := range edges {
			b.spillAdd(e.Src, e.Dst, e.Weight)
		}
		return
	}
	b.edges = append(b.edges, edges...)
}

// Build validates and normalizes the accumulated input and returns the
// immutable Graph. The Builder can be reused afterwards, but the built
// graph does not alias builder memory.
//
// Build is parallel: edges go through a stable counting sort into CSR
// partitions sized by GOMAXPROCS instead of a global comparison sort, so
// large graphs build at O(|E|) work with near-linear multi-core speedup.
func (b *Builder) Build() (*Graph, error) {
	if b.spill != nil {
		return nil, errors.New("graph: builder has spill configured; use BuildTo")
	}
	// Translate endpoints to internal indices in parallel chunks, against
	// the declared vertices first: callers such as graph500.Into declare
	// every vertex before the edges, and then the identifiers are those
	// vertices, found without sorting the 2|E| endpoints. An endpoint
	// missing from them sends Build to the union of vertices and
	// endpoints, translated again; both routes yield the same ids.
	m := len(b.edges)
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	var ws []float64
	if b.weighted {
		ws = make([]float64, m)
	}
	var ids []int64
	complete := false
	if len(b.vertices) > 0 {
		b.vertices = slices.Compact(par.SortInt64s(b.vertices))
		ids = slices.Clone(b.vertices)
		if err := checkIndexSpace(len(ids)); err != nil {
			return nil, err
		}
		complete = b.translate(idIndex(ids), srcs, dsts, ws)
	}
	if !complete {
		ids = b.collectIDs()
		if err := checkIndexSpace(len(ids)); err != nil {
			return nil, err
		}
		b.translate(idIndex(ids), srcs, dsts, ws) // ids hold every endpoint
	}
	if err := b.selfLoopError(srcs); err != nil {
		return nil, err
	}

	g := &Graph{name: b.name, directed: b.directed, weighted: b.weighted, ids: ids}
	var err error
	if b.directed {
		if g.outOff, g.outAdj, g.outW, err = b.buildCSR(ids, ids, srcs, dsts, ws, false, nil); err != nil {
			return nil, err
		}
		if g.inOff, g.inAdj, g.inW, err = b.buildCSR(ids, ids, dsts, srcs, ws, false, nil); err != nil {
			return nil, err
		}
		g.numEdges = int64(len(g.outAdj))
	} else {
		if g.outOff, g.outAdj, g.outW, err = b.buildCSR(ids, ids, srcs, dsts, ws, true, nil); err != nil {
			return nil, err
		}
		g.inOff, g.inAdj, g.inW = g.outOff, g.outAdj, g.outW
		g.numEdges = int64(len(g.outAdj)) / 2
	}
	return g, nil
}

// firstError returns the error of the lowest-indexed worker chunk, which
// keeps error reporting deterministic regardless of scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// translate writes edge i's internal endpoints to srcs[i] and dsts[i],
// and its weight to ws[i] when the graph is weighted, over parallel
// chunks. Self-loops become the -1 sentinel the counting sort skips. It
// reports false when some endpoint is not in index; the arrays then hold
// a partial translation.
func (b *Builder) translate(index *idTable, srcs, dsts []int32, ws []float64) bool {
	m := len(b.edges)
	p := par.Workers(m)
	missing := make([]bool, p)
	par.Chunks(m, p, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := b.edges[i]
			s, sok := index.get(e.Src)
			d, dok := index.get(e.Dst)
			switch {
			case !sok || !dok:
				missing[w] = true
				return
			case s == d:
				srcs[i], dsts[i] = -1, -1
				continue
			}
			srcs[i], dsts[i] = s, d
			if ws != nil {
				ws[i] = e.Weight
			}
		}
	})
	return !slices.Contains(missing, true)
}

// selfLoopError is the strict-mode error for the first self-loop edge,
// marked -1 in srcs by translate, or nil.
func (b *Builder) selfLoopError(srcs []int32) error {
	if b.opts.DropSelfLoops {
		return nil
	}
	if i := slices.Index(srcs, -1); i >= 0 {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, b.edges[i].Src)
	}
	return nil
}

// buildCSR constructs the adjacency rows of the vertices rows from
// translated endpoint arrays via a stable parallel counting sort. keys[i]
// is the grouping vertex of arc i, an index into rows, and vals[i] its
// neighbor, an index into ids; negative keys mark dropped edges. With both
// set (undirected graphs, rows == ids), every edge also contributes the
// reverse arc in the same pass. Within each vertex the arcs keep insertion
// order before the per-vertex sort, so deduplication keeps the first
// occurrence — including its weight — exactly like the specification asks.
//
// The arrays come from st. Build passes nil, so each is allocated at its
// size; BuildTo passes one store for all its key ranges, and the CSR
// returned aliases it until the next call.
func (b *Builder) buildCSR(rows, ids []int64, keys, vals []int32, w []float64, both bool, st *csrStore) ([]int64, []int32, []float64, error) {
	if st == nil {
		st = &csrStore{exact: true}
	}
	n := len(rows)
	m := len(keys)
	p := par.Workers(m)

	// Count degrees per worker chunk. Rows are prepared up front because
	// par.Chunks skips workers whose chunk is empty.
	st.counts = reuse(st.counts, p, st.exact)
	counts := st.counts
	for wk := range counts {
		counts[wk] = reuse(counts[wk], n, st.exact)
		clear(counts[wk])
	}
	par.Chunks(m, p, func(wk, lo, hi int) {
		c := counts[wk]
		for i := lo; i < hi; i++ {
			k := keys[i]
			if k < 0 {
				continue
			}
			c[k]++
			if both {
				c[vals[i]]++
			}
		}
	})

	// Exclusive prefix across workers per vertex turns counts into each
	// worker's scatter base; the per-vertex totals become CSR offsets.
	st.off = reuse(st.off, n+1, st.exact)
	off := st.off
	off[0] = 0
	par.Chunks(n, p, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var base int32
			for wk := 0; wk < p; wk++ {
				c := counts[wk][v]
				counts[wk][v] = base
				base += c
			}
			off[v+1] = int64(base)
		}
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	arcs := off[n]

	st.adj = reuse(st.adj, int(arcs), st.exact)
	adj := st.adj
	var ows []float64
	if b.weighted {
		st.w = reuse(st.w, int(arcs), st.exact)
		ows = st.w
	}

	// Stable scatter: each worker walks its chunk in order and places arcs
	// at its pre-computed cursor, so per-vertex insertion order holds
	// globally.
	par.Chunks(m, p, func(wk, lo, hi int) {
		c := counts[wk]
		put := func(k, v int32, wt float64) {
			pos := off[k] + int64(c[k])
			c[k]++
			adj[pos] = v
			if ows != nil {
				ows[pos] = wt
			}
		}
		for i := lo; i < hi; i++ {
			k := keys[i]
			if k < 0 {
				continue
			}
			var wt float64
			if w != nil {
				wt = w[i]
			}
			put(k, vals[i], wt)
			if both {
				put(vals[i], k, wt)
			}
		}
	})

	// Sort each vertex's neighbors (stably, to keep first-occurrence
	// weights) and detect duplicates, partitioned over vertex ranges.
	var dups []int32
	if b.opts.DedupEdges {
		st.dups = reuse(st.dups, n, st.exact)
		dups = st.dups
		clear(dups)
	}
	dupTotals := make([]int64, p)
	serrs := make([]error, p)
	par.Chunks(n, p, func(wk, lo, hi int) {
		var sc adjSortScratch
		for v := lo; v < hi; v++ {
			s, e := off[v], off[v+1]
			seg := adj[s:e]
			if len(seg) < 2 {
				continue
			}
			var ws []float64
			if ows != nil {
				ws = ows[s:e]
			}
			sc.sortStable(seg, ws)
			for i := 1; i < len(seg); i++ {
				if seg[i] != seg[i-1] {
					continue
				}
				if dups == nil {
					if serrs[wk] == nil {
						serrs[wk] = b.duplicateEdge(rows[v], ids[seg[i]])
					}
					break
				}
				dups[v]++
				dupTotals[wk]++
			}
		}
	})
	if err := firstError(serrs); err != nil {
		return nil, nil, nil, err
	}
	var totalDups int64
	for _, d := range dupTotals {
		totalDups += d
	}
	if totalDups == 0 {
		return off, adj, ows, nil
	}

	// Compact duplicate arcs out into the second set of arrays.
	st.noff = reuse(st.noff, n+1, st.exact)
	noff := st.noff
	noff[0] = 0
	for v := 0; v < n; v++ {
		noff[v+1] = noff[v] + (off[v+1] - off[v]) - int64(dups[v])
	}
	st.nadj = reuse(st.nadj, int(noff[n]), st.exact)
	nadj := st.nadj
	var nws []float64
	if ows != nil {
		st.nw = reuse(st.nw, int(noff[n]), st.exact)
		nws = st.nw
	}
	par.Chunks(n, p, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			out := noff[v]
			for i := off[v]; i < off[v+1]; i++ {
				if i > off[v] && adj[i] == adj[i-1] {
					continue
				}
				nadj[out] = adj[i]
				if nws != nil {
					nws[out] = ows[i]
				}
				out++
			}
		}
	})
	return noff, nadj, nws, nil
}

// csrStore holds buildCSR's arrays: the per-worker degree counts, the
// offsets, neighbors and weights, the duplicate counts, and the offsets,
// neighbors and weights with duplicates compacted out.
type csrStore struct {
	counts    [][]int32
	off, noff []int64
	adj, nadj []int32
	w, nw     []float64
	dups      []int32
	exact     bool // allocate each array at its size, for one use
}

// reuse returns s resliced to n, keeping its contents, or a new zeroed
// array when s is shorter: of exactly n, or with 1/reuseHeadroom more
// capacity for a store that key ranges reuse. Their sizes differ by less
// than that, so such a store grows about once.
func reuse[T any](s []T, n int, exact bool) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case exact:
		return make([]T, n)
	}
	return make([]T, n, n+n/reuseHeadroom)
}

const reuseHeadroom = 16

// duplicateEdge is the strict-mode error for a repeated arc between the
// ids a and c, named smaller id first when the graph is undirected. Build
// and BuildTo both report through it, so their messages match.
func (b *Builder) duplicateEdge(a, c int64) error {
	if !b.directed && a > c {
		a, c = c, a
	}
	return fmt.Errorf("%w: (%d, %d)", ErrDuplicateEdge, a, c)
}

// collectIDs gathers the distinct external identifiers from explicit
// vertices and edge endpoints, sorted ascending.
func (b *Builder) collectIDs() []int64 {
	all := make([]int64, 0, len(b.vertices)+2*len(b.edges))
	all = append(all, b.vertices...)
	for _, e := range b.edges {
		all = append(all, e.Src, e.Dst)
	}
	return slices.Clone(slices.Compact(par.SortInt64s(all)))
}

// idTable maps external identifiers to internal indices. A dense set, the
// ids 0..n-1, maps each id to itself, so its table is no table: keys is
// nil and a lookup is one bounds check against dense = n. Every catalog
// dataset and every Graph500 graph is dense. Any other set is hashed: open
// addressing over parallel key and value arrays, a power-of-two size at
// most half full, a multiplicative hash taking the product's top bits, and
// linear probing. Both build paths translate every arc endpoint through
// the table, so a lookup is a hot-path cost: for a hashed set one shift,
// one multiply and, at half load, about 1.3 probes of adjacent memory on
// a hit.
type idTable struct {
	keys  []int64
	vals  []uint32 // internal index + 1; 0 marks an empty slot, so make needs no fill
	shift uint     // 64 - log2(len(keys))
	mask  int
	dense int64 // the ids are 0..dense-1; used when keys is nil
}

// fibMul is 2^64 / φ, the multiplier of Fibonacci hashing, which spreads
// consecutive ids evenly over the product's top bits.
const fibMul = 0x9e3779b97f4a7c15

// idIndex builds the lookup table of the sorted distinct identifiers ids.
// Sorted and distinct, they are exactly 0..n-1 when the first is 0 and the
// last n-1.
func idIndex(ids []int64) *idTable {
	if n := len(ids); n == 0 || ids[0] == 0 && ids[n-1] == int64(n-1) {
		return &idTable{dense: int64(n)}
	}
	size := 2
	for size < 2*len(ids) {
		size <<= 1
	}
	t := &idTable{
		keys:  make([]int64, size),
		vals:  make([]uint32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		mask:  size - 1,
	}
	for i, id := range ids {
		s := t.slot(id)
		for t.vals[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.keys[s], t.vals[s] = id, uint32(i)+1
	}
	return t
}

// slot is id's home slot in a hashed table. The multiply alone maps ids
// spaced by a power of two (multiples of 2^16, say) onto few slots, since
// it only carries bits upward; folding the high bits down first keeps
// every stride from 2^0 to 2^61 under four probes on average, dense or
// signed (TestIDTable pins the sets a weak hash clusters).
func (t *idTable) slot(id int64) int {
	x := uint64(id)
	return int(((x ^ x>>29) * fibMul) >> t.shift)
}

// get returns id's internal index; ok is false when id is not in the table.
//
//graphalint:noalloc
func (t *idTable) get(id int64) (v int32, ok bool) {
	if t.keys == nil {
		if uint64(id) < uint64(t.dense) {
			return int32(id), true
		}
		return -1, false
	}
	for s := t.slot(id); ; s = (s + 1) & t.mask {
		switch {
		case t.vals[s] == 0:
			return -1, false
		case t.keys[s] == id:
			return int32(t.vals[s] - 1), true
		}
	}
}

// checkIndexSpace rejects an identifier table too large for the int32
// internal indices of the CSR arrays. Build and BuildTo both call it, so
// the two paths fail alike.
func checkIndexSpace(vertices int) error {
	if int64(vertices) > math.MaxInt32 {
		return fmt.Errorf("graph: %d vertices exceed int32 index space", vertices)
	}
	return nil
}

// radixSegMin is the segment length from which the per-vertex sort is a
// radix sort over the neighbor digits; shorter segments take a comparison
// sort, which costs less than a radix pass's 256-entry histogram there.
// Chosen by measurement on a 2-vCPU x86-64 host, random neighbors below
// 2^17 (three digit passes): the two cost the same near 48 arcs, and at 64
// the radix sort takes 30–40 % less time, words and unweighted segments
// alike.
const radixSegMin = 48

// adjSortScratch is one worker's reusable storage for sortStable.
type adjSortScratch struct {
	order, tmp []int64
	w          []float64
}

// sortStable sorts an adjacency segment, and its parallel weight segment
// when w is not nil, together by neighbor index, stably. Short segments —
// the overwhelming majority under power-law degree distributions — sort
// in place: weighted ones by insertion sort, unweighted ones with
// slices.Sort. Longer ones sort the words neighbor<<32 | position, built
// in position order, so equal neighbors keep insertion order and the
// first occurrence stays first: below radixSegMin by comparing whole
// words, from it by a radix sort over the neighbor digits only, scattering
// between the scratch's order and tmp; the position bits are never
// compared or moved apart from their word.
//
//graphalint:noalloc
func (sc *adjSortScratch) sortStable(adj []int32, w []float64) {
	switch {
	case w == nil && len(adj) < radixSegMin:
		slices.Sort(adj)
		return
	case len(adj) <= 24:
		for i := 1; i < len(adj); i++ {
			a, x := adj[i], w[i]
			j := i - 1
			for j >= 0 && adj[j] > a {
				adj[j+1], w[j+1] = adj[j], w[j]
				j--
			}
			adj[j+1], w[j+1] = a, x
		}
		return
	}
	sc.order = sc.order[:0]
	for i, a := range adj {
		sc.order = append(sc.order, int64(a)<<32|int64(i))
	}
	sorted := sc.order
	if len(sorted) < radixSegMin {
		slices.Sort(sorted)
	} else {
		sc.tmp = slices.Grow(sc.tmp[:0], len(sorted))
		sorted = par.SortInt64sFrom(sorted, sc.tmp[:len(sorted)], 32)
	}
	for i, o := range sorted {
		adj[i] = int32(o >> 32)
	}
	if w == nil {
		return
	}
	sc.w = append(sc.w[:0], w...)
	for i, o := range sorted {
		w[i] = sc.w[uint32(o)]
	}
}
