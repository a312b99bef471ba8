package graph

import "testing"

// Hooks for the external test package.

// RadixSegMin is the segment length from which the per-vertex sort is a
// radix sort.
const RadixSegMin = radixSegMin

// Input returns the builder's declared vertices and, when it does not
// spill, its edges in insertion order.
func (b *Builder) Input() ([]int64, []Edge) { return b.vertices, b.edges }

// RefUniform and RefSkewed are TestBuildMatchesReferenceLarge's edge
// streams.
var RefUniform, RefSkewed = refUniform, refSkewed

// SpillRangeArcs flushes the builder's buffers, as BuildTo does, and
// returns the arcs of each key range BuildTo builds its out-spool in.
func (b *Builder) SpillRangeArcs(t testing.TB) []int64 {
	_, runs, _, cuts := spillRanges(t, b)
	arcs := make([]int64, len(cuts)-1)
	for k := range arcs {
		for r := range runs {
			arcs[k] += cuts[k+1][r] - cuts[k][r]
		}
	}
	return arcs
}
