package graph500

import (
	"math"
	"testing"

	"graphalytics/internal/xrand"
)

// threshold(p) is the first draw k, as Float64 scales it, for which
// u < p fails: the integer test and the float one agree at and next to
// every threshold, for the initiator's sums, both ends of [0, 1], values
// outside it and NaN.
func TestThresholdIsFloatComparison(t *testing.T) {
	const top = 1 << 53
	ps := []float64{0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.45 + 0.25, 0.65, 0.8, 0.95,
		0, 1, -1, 2, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 1.0 / top, 0.5, 0.5 + 1.0/top, math.Nextafter(1, 0)}
	rng := xrand.New(8)
	for range 200 {
		ps = append(ps, rng.Float64())
	}
	for _, p := range ps {
		th := threshold(p)
		if th > top {
			t.Fatalf("threshold(%v) = %d, above 2^53", p, th)
		}
		for _, k := range []uint64{0, th - 1, th, th + 1, top - 1} {
			if k >= top {
				continue
			}
			if below, u := k < th, float64(k)/top; below != (u < p) {
				t.Fatalf("p=%v k=%d: k < threshold %d is %v, u=%v < p is %v", p, k, th, below, u, u < p)
			}
		}
	}
}

// rmatEdge's integer thresholds pick the quadrants the float comparisons
// pick, draw by draw, and take Scale draws.
func TestRMATEdgeMatchesFloatDescent(t *testing.T) {
	for _, cfg := range []Config{
		{Scale: 17, Seed: 1},
		{Scale: 13, Seed: 5, A: 0.65, B: 0.15, C: 0.15},
		{Scale: 9, Seed: 2, A: 0.45, B: 0.25, C: 0.15},
	} {
		cfg = cfg.withDefaults()
		r, q := *xrand.New(cfg.Seed), quadrantsOf(cfg)
		float := xrand.New(cfg.Seed)
		a, ab, abc := cfg.A, cfg.A+cfg.B, cfg.A+cfg.B+cfg.C
		for range 5000 {
			var src, dst int
			r, src, dst = rmatEdge(r, cfg.Scale, q)
			wantSrc, wantDst := 0, 0
			for level := 0; level < cfg.Scale; level++ {
				switch u := float.Float64(); {
				case u < a:
				case u < ab:
					wantDst |= 1 << level
				case u < abc:
					wantSrc |= 1 << level
				default:
					wantSrc |= 1 << level
					wantDst |= 1 << level
				}
			}
			if src != wantSrc || dst != wantDst {
				t.Fatalf("%+v: edge (%d, %d), float descent (%d, %d)", cfg, src, dst, wantSrc, wantDst)
			}
		}
		if _, u := r.Next(); u != float.Uint64() {
			t.Fatalf("%+v: rmatEdge took a different number of draws", cfg)
		}
	}
}
