package cluster

import "graphalytics/internal/graph"

// VertexPartition assigns every vertex of a graph to a machine (an
// edge-cut). Distributed engines with vertex-centric or matrix models use
// it to split state and route messages.
type VertexPartition struct {
	Machines int
	// Owner[v] is the machine owning internal vertex v.
	Owner []int32
	// Verts[m] lists the internal vertices owned by machine m, ascending.
	Verts [][]int32
}

// PartitionVerticesRange splits vertices into contiguous ranges balanced by
// out-degree (edge-balanced 1-D partitioning, as used by matrix engines).
func PartitionVerticesRange(g *graph.Graph, machines int) *VertexPartition {
	n := g.NumVertices()
	p := &VertexPartition{
		Machines: machines,
		Owner:    make([]int32, n),
		Verts:    make([][]int32, machines),
	}
	var totalWork int64
	for v := int32(0); v < int32(n); v++ {
		totalWork += int64(g.OutDegree(v)) + 1
	}
	target := totalWork / int64(machines)
	m := int32(0)
	var acc int64
	for v := int32(0); v < int32(n); v++ {
		if acc >= target && int(m) < machines-1 {
			m++
			acc = 0
		}
		p.Owner[v] = m
		p.Verts[m] = append(p.Verts[m], v)
		acc += int64(g.OutDegree(v)) + 1
	}
	return p
}

// Range returns the vertex range [lo, hi) machine m owns in a partition
// of contiguous ranges (PartitionVerticesRange); it is (0, 0) when m owns
// no vertices, as happens when there are more machines than vertices.
func (p *VertexPartition) Range(m int) (lo, hi int) {
	verts := p.Verts[m]
	if len(verts) == 0 {
		return 0, 0
	}
	return int(verts[0]), int(verts[0]) + len(verts)
}

// PartitionVerticesHash assigns vertices to machines by hashing the
// internal index (modulo), the classic Pregel placement.
func PartitionVerticesHash(n, machines int) *VertexPartition {
	p := &VertexPartition{
		Machines: machines,
		Owner:    make([]int32, n),
		Verts:    make([][]int32, machines),
	}
	for v := 0; v < n; v++ {
		m := int32(v % machines)
		p.Owner[v] = m
		p.Verts[m] = append(p.Verts[m], int32(v))
	}
	return p
}

// EdgePartition assigns every directed arc of a graph to a machine (a
// vertex-cut, as used by the gather-apply-scatter model). Each vertex has a
// master machine and mirror replicas on every other machine that holds at
// least one of its arcs.
type EdgePartition struct {
	Machines int
	// Local[m] is machine m's share of the arcs: a graph over all the
	// vertices (graph.Split) holding the arcs placed on m.
	Local []*graph.Graph
	// Master[v] is the machine holding vertex v's master replica.
	Master []int32
	// Replicas[v] lists, ascending, the machines holding v: its master and
	// every machine with a local arc of v.
	Replicas [][]int32
}

// PartitionEdges builds a vertex-cut: arcs are placed by a deterministic
// hash of the edge, masters by vertex hash. For undirected graphs each
// edge contributes both arc directions to the same machine.
func PartitionEdges(g *graph.Graph, machines int) *EdgePartition {
	n := g.NumVertices()
	p := &EdgePartition{
		Machines: machines,
		Local:    g.Split(machines, func(src, dst int32) int { return edgeMachine(src, dst, machines) }),
		Master:   make([]int32, n),
		Replicas: make([][]int32, n),
	}
	for v := int32(0); v < int32(n); v++ {
		p.Master[v] = int32(int(v) % machines)
		for m, lg := range p.Local {
			if int32(m) == p.Master[v] || lg.OutDegree(v) > 0 || lg.InDegree(v) > 0 {
				p.Replicas[v] = append(p.Replicas[v], int32(m))
			}
		}
	}
	return p
}

// edgeMachine deterministically places an arc on a machine.
func edgeMachine(src, dst int32, machines int) int {
	h := uint64(uint32(src))*0x9e3779b97f4a7c15 ^ uint64(uint32(dst))*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(machines))
}

// ReplicationFactor returns the average number of replicas per vertex, the
// vertex-cut quality metric from the PowerGraph paper.
func (p *EdgePartition) ReplicationFactor() float64 {
	if len(p.Replicas) == 0 {
		return 0
	}
	var total int
	for _, r := range p.Replicas {
		total += len(r)
	}
	return float64(total) / float64(len(p.Replicas))
}
