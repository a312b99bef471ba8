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

// NumEdgesAdded returns how many edges have been added so far (before any
// normalization).
func (b *Builder) NumEdgesAdded() int {
	if b.spill != nil {
		return int(b.spill.seq)
	}
	return len(b.edges)
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
	ids := b.collectIDs()
	if err := checkIndexSpace(len(ids)); err != nil {
		return nil, err
	}
	index := idIndex(ids)

	// Translate endpoints to internal indices in parallel chunks. Dropped
	// self-loops become a -1 sentinel the counting sort skips.
	m := len(b.edges)
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	var ws []float64
	if b.weighted {
		ws = make([]float64, m)
	}
	p := par.Workers(m)
	terrs := make([]error, p)
	par.Chunks(m, p, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := b.edges[i]
			s, _ := index.get(e.Src) // collectIDs saw every endpoint
			d, _ := index.get(e.Dst)
			if s == d {
				if !b.opts.DropSelfLoops && terrs[w] == nil {
					terrs[w] = fmt.Errorf("%w: vertex %d", ErrSelfLoop, e.Src)
				}
				srcs[i], dsts[i] = -1, -1
				continue
			}
			srcs[i], dsts[i] = s, d
			if b.weighted {
				ws[i] = e.Weight
			}
		}
	})
	if err := firstError(terrs); err != nil {
		return nil, err
	}

	g := &Graph{name: b.name, directed: b.directed, weighted: b.weighted, ids: ids}
	var err error
	if b.directed {
		if g.outOff, g.outAdj, g.outW, err = b.buildCSR(ids, srcs, dsts, ws, false); err != nil {
			return nil, err
		}
		if g.inOff, g.inAdj, g.inW, err = b.buildCSR(ids, dsts, srcs, ws, false); err != nil {
			return nil, err
		}
		g.numEdges = int64(len(g.outAdj))
	} else {
		if g.outOff, g.outAdj, g.outW, err = b.buildCSR(ids, srcs, dsts, ws, true); err != nil {
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

// buildCSR constructs one adjacency direction from translated endpoint
// arrays via a stable parallel counting sort. keys[i] is the grouping
// vertex of arc i and vals[i] its neighbor; negative keys mark dropped
// edges. With both set (undirected graphs), every edge also contributes
// the reverse arc in the same pass. Within each vertex the arcs keep
// insertion order before the per-vertex sort, so deduplication keeps the
// first occurrence — including its weight — exactly like the specification
// asks.
func (b *Builder) buildCSR(ids []int64, keys, vals []int32, w []float64, both bool) ([]int64, []int32, []float64, error) {
	n := len(ids)
	m := len(keys)
	p := par.Workers(m)

	// Count degrees per worker chunk. Rows are allocated up front because
	// par.Chunks skips workers whose chunk is empty.
	counts := make([][]int32, p)
	for wk := range counts {
		counts[wk] = make([]int32, n)
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
	off := make([]int64, n+1)
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

	adj := make([]int32, arcs)
	var ows []float64
	if b.weighted {
		ows = make([]float64, arcs)
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
		dups = make([]int32, n)
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
			if ows != nil {
				sc.sortStable(seg, ows[s:e])
			} else {
				slices.Sort(seg)
			}
			for i := 1; i < len(seg); i++ {
				if seg[i] != seg[i-1] {
					continue
				}
				if dups == nil {
					if serrs[wk] == nil {
						serrs[wk] = b.duplicateEdge(ids[v], ids[seg[i]])
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

	// Rare path: compact duplicate arcs out into fresh arrays.
	noff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		noff[v+1] = noff[v] + (off[v+1] - off[v]) - int64(dups[v])
	}
	nadj := make([]int32, noff[n])
	var nws []float64
	if ows != nil {
		nws = make([]float64, noff[n])
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
	all = par.SortInt64s(all)
	uniq := all[:0]
	for i, id := range all {
		if i == 0 || id != all[i-1] {
			uniq = append(uniq, id)
		}
	}
	ids := make([]int64, len(uniq))
	copy(ids, uniq)
	return ids
}

// idTable maps external identifiers to internal indices: open addressing
// over parallel key and value arrays, a power-of-two size at most half
// full, a multiplicative hash taking the product's top bits, and linear
// probing. Both build paths translate every arc endpoint through it, so a
// lookup is a hot-path cost: one shift, one multiply and, at half load,
// about 1.3 probes of adjacent memory on a hit.
type idTable struct {
	keys  []int64
	vals  []uint32 // internal index + 1; 0 marks an empty slot, so make needs no fill
	shift uint     // 64 - log2(len(keys))
	mask  int
}

// fibMul is 2^64 / φ, the multiplier of Fibonacci hashing, which spreads
// consecutive ids evenly over the product's top bits.
const fibMul = 0x9e3779b97f4a7c15

// idIndex builds the lookup table of the sorted distinct identifiers ids.
func idIndex(ids []int64) *idTable {
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

// slot is id's home slot. The multiply alone maps ids spaced by a power of
// two (multiples of 2^16, say) onto few slots, since it only carries bits
// upward; folding the high bits down first keeps every stride from 2^0 to
// 2^61 under four probes on average, dense or signed (TestIDTable pins
// the sets a weak hash clusters).
func (t *idTable) slot(id int64) int {
	x := uint64(id)
	return int(((x ^ x>>29) * fibMul) >> t.shift)
}

// get returns id's internal index; ok is false when id is not in the table.
//
//graphalint:noalloc
func (t *idTable) get(id int64) (v int32, ok bool) {
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

// adjSortScratch is one worker's reusable storage for sortStable.
type adjSortScratch struct {
	order []uint64
	w     []float64
}

// sortStable sorts an adjacency segment and its parallel weight segment
// together by neighbor index, stably. Small segments — the overwhelming
// majority under power-law degree distributions — use insertion sort.
// Longer ones sort the words neighbor<<32 | position, which orders equal
// neighbors by position: the rule mergeSpool applies to streamed builds,
// so both paths keep the same first occurrence.
//
//graphalint:noalloc
func (sc *adjSortScratch) sortStable(adj []int32, w []float64) {
	if len(adj) <= 24 {
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
		sc.order = append(sc.order, uint64(a)<<32|uint64(i))
	}
	slices.Sort(sc.order)
	sc.w = append(sc.w[:0], w...)
	for i, o := range sc.order {
		adj[i] = int32(o >> 32)
		w[i] = sc.w[uint32(o)]
	}
}
