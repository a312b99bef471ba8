package mplane

// LabelCounts is the dense-domain counterpart of Histogram, sized for the
// CDLP inner loop when labels are internal vertex indices: count a
// vertex's neighbor labels by direct array indexing — no hashing, no
// probing — then take the (highest count, smallest label) argmax. It is
// usable whenever the label domain is [0, n): CDLP labels are always
// vertex identifiers, and because the graph builder assigns internal
// indices in ascending external-ID order, the map between the two is
// monotone — the (count, smallest-index) argmax picks the same vertex as
// the (count, smallest-ID) argmax, so a kernel can run entirely on
// indices and translate once at the end.
//
// The counter is clear-after-use: BestAndReset zeroes exactly the slots
// the fold touched while scanning them for the argmax, restoring the
// all-zero invariant in one pass. Add is then a single load-test-store on
// one array — about half the memory traffic of a generation-stamped
// table. The argmax is order-independent, so the result is identical to
// the map- or histogram-based fold for any insertion order.
type LabelCounts struct {
	cnt     []int32
	touched []int32 // labels counted since the last BestAndReset
}

// EnsureDomain readies the counter for labels in [0, n). Counts are
// all-zero on return (a freshly grown array is zeroed; an existing one is
// kept zero by the clear-after-use discipline).
func (c *LabelCounts) EnsureDomain(n int) {
	if len(c.cnt) < n {
		c.cnt = make([]int32, n)
	}
	c.touched = c.touched[:0]
}

// Add counts one occurrence of label l.
//
//graphalint:noalloc the touched list reuses its capacity across vertices
func (c *LabelCounts) Add(l int32) {
	if c.cnt[l] == 0 {
		c.touched = append(c.touched, l)
	}
	c.cnt[l]++
}

// Len returns the number of distinct labels counted since the last reset.
func (c *LabelCounts) Len() int { return len(c.touched) }

// CacheLinePad, placed after the fields of a per-worker struct, keeps them
// off the cache lines of the struct allocated after it, so workers that
// write their own headers (a LabelCounts' touched slice, a Stage's
// appends) do not slow each other down.
type CacheLinePad struct{ _ [64]byte }

// WorkerCounts is one LabelCounts per worker slot of a parallel region,
// each on its own cache lines: chunks that run concurrently must not
// share a counter, and counters allocated back to back would share a line.
// Size it with Ensure before the region; At is then safe to call from
// every chunk.
type WorkerCounts struct {
	slots []paddedCounts
}

type paddedCounts struct {
	LabelCounts
	_ CacheLinePad
}

// Ensure readies counters for worker slots [0, workers), each for labels
// in [0, n) (see EnsureDomain). Steady-state calls allocate nothing.
func (c *WorkerCounts) Ensure(workers, n int) {
	if len(c.slots) < workers {
		c.slots = append(c.slots, make([]paddedCounts, workers-len(c.slots))...)
	}
	for i := range c.slots[:workers] {
		c.slots[i].EnsureDomain(n)
	}
}

// At returns worker w's counter.
func (c *WorkerCounts) At(w int) *LabelCounts { return &c.slots[w].LabelCounts }

// BestAndReset returns the most frequent label, breaking ties toward the
// smallest — the CDLP argmax on the dense domain — and clears the counts
// in the same pass. With no counts it returns own (a vertex with no
// neighbors keeps its label).
//
//graphalint:noalloc
func (c *LabelCounts) BestAndReset(own int32) int32 {
	best := own
	var bestCount int32
	for _, l := range c.touched {
		if n := c.cnt[l]; n > bestCount || (n == bestCount && l < best) {
			best, bestCount = l, n
		}
		c.cnt[l] = 0
	}
	c.touched = c.touched[:0]
	return best
}
