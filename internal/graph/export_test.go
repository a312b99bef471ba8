package graph

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
