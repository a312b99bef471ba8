package algorithms

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphalytics/internal/graph500"
	"graphalytics/internal/par"
)

// roundCounter counts the rounds a kernel runs on the runtime it wraps.
type roundCounter struct {
	Runtime
	rounds int
}

func (r *roundCounter) Round(body func()) error {
	r.rounds++
	return r.Runtime.Round(body)
}

// TestSSSPRoundsAreTheOccupiedBuckets pins SSSP's round count to the
// graph: one round for the bucket width Δ plus one per Δ bucket that
// holds a final distance, whatever the worker count and however the
// buckets are split into sub-buckets inside their rounds.
func TestSSSPRoundsAreTheOccupiedBuckets(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g, err := graph500.Generate(graph500.Config{Scale: 12, Seed: 7, Weighted: true, Directed: directed})
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		seq := func(blocks int, fn func(worker, lo, hi int)) { fn(0, 0, blocks) }
		total, _ := par.SumBlocks(n, ssspWeightBlock, seq, nil, func(lo, hi int) float64 { return ssspWeightRange(g, lo, hi) })
		arcs := float64(g.NumEdges())
		if !directed {
			arcs *= 2
		}
		delta := total / arcs
		var source int32
		for v := int32(1); int(v) < n; v++ {
			if g.OutDegree(v) > g.OutDegree(source) {
				source = v
			}
		}
		occupied := make(map[int64]bool)
		for _, d := range RefSSSP(g, source) {
			if !math.IsInf(d, 1) {
				occupied[int64(d/delta)] = true
			}
		}
		want := 1 + len(occupied)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("directed=%v/workers=%d", directed, workers), func(t *testing.T) {
				rt := &roundCounter{Runtime: newParRuntime(g, workers)}
				if _, err := new(Kernels).SSSP(rt, g, source); err != nil {
					t.Fatal(err)
				}
				if rt.rounds != want {
					t.Fatalf("SSSP ran %d rounds, want 1 + %d occupied buckets of width %v", rt.rounds, len(occupied), delta)
				}
			})
		}
	}
}

// TestSSSPKeyIsMonotone checks keyOf on the values where rounding could
// bite: zero, every bucket and sub-bucket edge exactly and one ulp to
// either side, huge distances and +Inf. Its bucket must be the one-level
// bucket, the clamped floor(d/Delta); its sub-bucket must be in range;
// and keys must never decrease as the distance grows.
func TestSSSPKeyIsMonotone(t *testing.T) {
	bucketOf := func(d, delta float64) int64 {
		if q := d / delta; q < float64(ssspMaxBucket) {
			return int64(q)
		}
		return ssspMaxBucket
	}
	for _, delta := range []float64{1, 0.5, 0.3, 1.0 / 3, 7.25, 1e-300, 1e300} {
		b := &ssspBuckets{Delta: delta}
		var ds []float64
		for c := 0.0; c < 4; c++ {
			for f := 0; f <= ssspSubBuckets; f++ {
				edge := (c + float64(f)/ssspSubBuckets) * delta
				ds = append(ds, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
			}
		}
		for _, q := range []float64{1 << 52, 1 << 53, 1 << 60, float64(ssspMaxBucket), 1 << 62} {
			edge := q * delta
			ds = append(ds, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)))
		}
		ds = append(ds, math.MaxFloat64, math.Inf(1))
		slices.Sort(ds)
		prevC, prevF, prevD := int64(-1), 0, math.Inf(-1)
		for _, d := range ds {
			c, f := b.keyOf(math.Float64bits(d))
			if c != bucketOf(d, delta) {
				t.Fatalf("delta=%v d=%v: keyOf bucket %d, one-level bucket %d", delta, d, c, bucketOf(d, delta))
			}
			if f < 0 || f >= ssspSubBuckets {
				t.Fatalf("delta=%v d=%v: sub-bucket %d out of [0, %d)", delta, d, f, ssspSubBuckets)
			}
			if c < prevC || (c == prevC && f < prevF) {
				t.Fatalf("delta=%v: key(%v) = (%d, %d) below key(%v) = (%d, %d)", delta, d, c, f, prevD, prevC, prevF)
			}
			prevC, prevF, prevD = c, f, d
		}
		if c, f := b.keyOf(math.Float64bits(math.Inf(1))); c != ssspMaxBucket || f != 0 {
			t.Fatalf("delta=%v: key(+Inf) = (%d, %d), want the clamp (%d, 0)", delta, c, f, ssspMaxBucket)
		}
		if c, f := b.keyOf(0); c != 0 || f != 0 {
			t.Fatalf("delta=%v: key(0) = (%d, %d), want (0, 0)", delta, c, f)
		}
	}
	// On a dyadic width every sub-bucket edge is exact: it opens its own
	// sub-bucket, and the value one ulp below closes the previous one.
	b := &ssspBuckets{Delta: 0.5}
	for c := int64(0); c < 4; c++ {
		for f := 0; f < ssspSubBuckets; f++ {
			edge := (float64(c) + float64(f)/ssspSubBuckets) * b.Delta
			if gc, gf := b.keyOf(math.Float64bits(edge)); gc != c || gf != f {
				t.Fatalf("key(%v) = (%d, %d), want (%d, %d)", edge, gc, gf, c, f)
			}
			if edge == 0 {
				continue
			}
			wc, wf := c, f-1
			if f == 0 {
				wc, wf = c-1, ssspSubBuckets-1
			}
			below := math.Nextafter(edge, 0)
			if gc, gf := b.keyOf(math.Float64bits(below)); gc != wc || gf != wf {
				t.Fatalf("key(%v) = (%d, %d), want (%d, %d)", below, gc, gf, wc, wf)
			}
		}
	}
}
