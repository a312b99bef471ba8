package graph_test

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphalytics/internal/graph"
)

// fuzzMaxEdges caps a decoded edge list. At the one-page spill budget
// every BuildTo writes a run file per 42 to 64 arcs, so an input costs
// file operations in proportion to its edges; short inputs keep the
// fuzzer's executions and its minimizer fast.
const fuzzMaxEdges = 64

// fuzzInput is one decoded input of FuzzBuildMatchesBuildTo: edge i
// weighs i, so a kept weight shows which occurrence survived.
type fuzzInput struct {
	directed, weighted, strict bool
	vertices                   []int64 // declared, in order
	edges                      [][2]int64
}

// Declaration modes: bits 4–5 of the flags byte.
const (
	declareNone  = iota // only the isolated vertices
	declarePart         // and every other endpoint
	declareAll          // and every endpoint
	declareTwice        // and every endpoint twice, shuffled
)

// decodeFuzzInput reads
//
//   - byte 0, flags: bit 0 directed, bit 1 weighted, bit 2 strict (no
//     dedup, self-loops fail), bit 3 wide ids (each id times an odd
//     64-bit constant), bits 4–5 the declaration mode;
//   - byte 1, the hub: RadixSegMin − 8 + (byte & 15) arcs, so its
//     segment lands on either side of the radix cutoff, out of the hub
//     or, with bit 4, into it; to a third as many leaves, so its segment
//     holds repeated neighbors, or, with bit 5, to distinct ones;
//   - zigzag varints: a count k of isolated vertices (at most 8), their
//     k ids, then (src, dst) pairs, at most fuzzMaxEdges.
//
// The hub's arcs are interleaved with the others.
func decodeFuzzInput(data []byte) fuzzInput {
	if len(data) < 2 {
		return fuzzInput{}
	}
	flags, hub := data[0], data[1]
	in := fuzzInput{directed: flags&1 != 0, weighted: flags&2 != 0, strict: flags&4 != 0}
	id := func(x int64) int64 {
		if flags&8 != 0 {
			return int64(uint64(x) * 0x9e3779b97f4a7c15)
		}
		return x
	}
	r := bytes.NewReader(data[2:])
	k, _ := binary.ReadVarint(r) // whatever it reads is clamped to [0, 8]
	var isolated []int64
	for range min(max(k, 0), 8) {
		v, err := binary.ReadVarint(r)
		if err != nil {
			break
		}
		isolated = append(isolated, id(v))
	}
	var plain [][2]int64
	for len(plain) < fuzzMaxEdges {
		s, err1 := binary.ReadVarint(r)
		d, err2 := binary.ReadVarint(r)
		if err1 != nil || err2 != nil {
			break
		}
		plain = append(plain, [2]int64{id(s), id(d)})
	}
	deg := graph.RadixSegMin - 8 + int(hub&15)
	center := id(1 << 33)
	for i := range max(deg, len(plain)) {
		if i < len(plain) {
			in.edges = append(in.edges, plain[i])
		}
		if i < deg {
			leaf := id(1<<33 + 1 + int64(i))
			if hub&32 == 0 {
				leaf = id(1<<33 + 1 + int64(i%(deg/3+1)))
			}
			if hub&16 != 0 {
				in.edges = append(in.edges, [2]int64{leaf, center})
			} else {
				in.edges = append(in.edges, [2]int64{center, leaf})
			}
		}
	}

	in.vertices = isolated
	var ends []int64
	seen := make(map[int64]bool)
	for _, e := range in.edges {
		for _, v := range e {
			if !seen[v] {
				seen[v] = true
				ends = append(ends, v)
			}
		}
	}
	switch (flags >> 4) & 3 {
	case declarePart:
		for i := 0; i < len(ends); i += 2 {
			in.vertices = append(in.vertices, ends[i])
		}
	case declareAll:
		in.vertices = append(in.vertices, ends...)
	case declareTwice:
		twice := append(slices.Clone(ends), ends...)
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		rng.Shuffle(len(twice), func(i, j int) { twice[i], twice[j] = twice[j], twice[i] })
		in.vertices = append(in.vertices, twice...)
	}
	return in
}

// encodeFuzzInput is decodeFuzzInput's inverse for seeds: flags, hub,
// the isolated vertices and the first fuzzMaxEdges edges.
func encodeFuzzInput(flags, hub byte, isolated []int64, edges [][2]int64) []byte {
	data := []byte{flags, hub}
	data = binary.AppendVarint(data, int64(len(isolated)))
	for _, v := range isolated {
		data = binary.AppendVarint(data, v)
	}
	for _, e := range edges[:min(len(edges), fuzzMaxEdges)] {
		data = binary.AppendVarint(data, e[0])
		data = binary.AppendVarint(data, e[1])
	}
	return data
}

// feed adds the input to b, declared vertices first.
func (in fuzzInput) feed(b *graph.Builder) {
	if !in.strict {
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	}
	for _, v := range in.vertices {
		b.AddVertex(v)
	}
	for i, e := range in.edges {
		b.AddWeightedEdge(e[0], e[1], float64(i))
	}
}

// refArc is one arc of the naive construction, by external ids.
type refArc struct {
	to int64
	w  float64
}

// naiveBuild is the map-based construction Build must equal: the sorted
// distinct declared vertices and endpoints, self-loops dropped, the first
// occurrence of each edge kept with its weight, and every vertex's arcs
// by neighbor id. In strict mode it returns the sentinel Build must fail
// with: a self-loop anywhere before a repeated edge.
func naiveBuild(in fuzzInput) (ids []int64, out, inArcs map[int64][]refArc, edges int, err error) {
	set := make(map[int64]bool)
	for _, v := range in.vertices {
		set[v] = true
	}
	out, inArcs = make(map[int64][]refArc), make(map[int64][]refArc)
	kept := make(map[[2]int64]bool)
	var loop, dup bool
	for i, e := range in.edges {
		s, d, w := e[0], e[1], float64(i)
		set[s], set[d] = true, true
		if s == d {
			loop = true
			continue
		}
		key := e
		if !in.directed && s > d {
			key = [2]int64{d, s}
		}
		if kept[key] {
			dup = true
			continue
		}
		kept[key] = true
		edges++
		out[s] = append(out[s], refArc{d, w})
		if in.directed {
			inArcs[d] = append(inArcs[d], refArc{s, w})
		} else {
			out[d] = append(out[d], refArc{s, w})
		}
	}
	switch {
	case in.strict && loop:
		return nil, nil, nil, 0, graph.ErrSelfLoop
	case in.strict && dup:
		return nil, nil, nil, 0, graph.ErrDuplicateEdge
	}
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	byNeighbor := func(a, b refArc) int { return cmp.Compare(a.to, b.to) }
	for _, arcs := range out {
		slices.SortFunc(arcs, byNeighbor)
	}
	for _, arcs := range inArcs {
		slices.SortFunc(arcs, byNeighbor)
	}
	return ids, out, inArcs, edges, nil
}

// FuzzBuildMatchesBuildTo holds Build to a naive map-based construction,
// and BuildTo at spill budgets of one page, four pages and 1 MiB (many key
// ranges, a few, one) to Build, byte for byte, or to Build's error in strict mode. Inputs are
// small edge lists, directed or not, weighted or not, with duplicates,
// self-loops and sparse or negative ids, their vertices declared in full,
// in part or not at all, and one hub whose segment lands on either side
// of the radix per-vertex sort's cutoff (see decodeFuzzInput). The seeds
// are the edge streams of TestBuildToMatchesInMemoryBuild and
// TestBuildMatchesReferenceLarge, cut to fuzzMaxEdges.
func FuzzBuildMatchesBuildTo(f *testing.F) {
	for i, fx := range streamFixtures {
		b := graph.NewBuilder(false, true)
		fx.feed(b, true)
		isolated, es := b.Input()
		pairs := make([][2]int64, len(es))
		for j, e := range es {
			pairs[j] = [2]int64{e.Src, e.Dst}
		}
		// Flags cycle through the directed × weighted matrix, the four
		// declaration modes and wide ids; the hub alternates between
		// cutoff − 1 and the cutoff, and its direction with them. Strict
		// seeds fail on the hub's repeated leaves, or pass with distinct
		// ones.
		f.Add(encodeFuzzInput(byte(i&3|(i&4)<<1|(i&3)<<4), byte(7+i%2+i%4/2*16), isolated, pairs))
		switch fx.name {
		case "random":
			f.Add(encodeFuzzInput(byte(i&3|4), 8, isolated, pairs))
		case "one-edge":
			f.Add(encodeFuzzInput(byte(i&3|4), 8|32, isolated, pairs))
		}
	}
	for i, gen := range []func(*rand.Rand) [][2]int64{graph.RefUniform, graph.RefSkewed} {
		edges := gen(rand.New(rand.NewSource(7)))
		f.Add(encodeFuzzInput(byte(3-i|(2+i)<<4), byte(7+i), []int64{1 << 40}, edges))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFuzzInput(data)
		ids, out, inArcs, edges, wantErr := naiveBuild(in)
		b := graph.NewBuilder(in.directed, in.weighted)
		in.feed(b)
		g, err := b.Build()
		if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
			t.Fatalf("Build: err = %v, want %v", err, wantErr)
		}
		var want []byte
		if err == nil {
			checkNaive(t, g, in, ids, out, inArcs, edges)
			want = snapshotBytes(t, g)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "g.snap")
		for _, budget := range []int64{1 << 12, 1 << 14, 1 << 20} {
			sb := graph.NewBuilder(in.directed, in.weighted)
			sb.SetSpill(graph.SpillOptions{Dir: dir, BudgetBytes: budget})
			in.feed(sb)
			serr := sb.BuildTo(path)
			if err != nil {
				if serr == nil || serr.Error() != err.Error() {
					t.Fatalf("budget=%d: BuildTo err = %v, want Build's %q", budget, serr, err)
				}
				continue
			}
			if serr != nil {
				t.Fatalf("budget=%d: BuildTo: %v", budget, serr)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("budget=%d: BuildTo snapshot (%d bytes) differs from Build's (%d bytes)", budget, len(got), len(want))
			}
		}
	})
}

// checkNaive compares g with naiveBuild's result.
func checkNaive(t *testing.T, g *graph.Graph, in fuzzInput, ids []int64, out, inArcs map[int64][]refArc, edges int) {
	t.Helper()
	if !slices.Equal(g.IDs(), ids) {
		t.Fatalf("ids = %v, want %v", g.IDs(), ids)
	}
	if g.NumEdges() != int64(edges) {
		t.Fatalf("|E| = %d, want %d", g.NumEdges(), edges)
	}
	check := func(dir string, id int64, adj []int32, ws []float64, want []refArc) {
		if len(adj) != len(want) {
			t.Fatalf("vertex %d: %s-degree %d, want %d", id, dir, len(adj), len(want))
		}
		for i, a := range want {
			if g.VertexID(adj[i]) != a.to || in.weighted && ws[i] != a.w {
				t.Fatalf("vertex %d: %s-arc %d is (%d, %v), want (%d, %v)", id, dir, i, g.VertexID(adj[i]), ws, a.to, a.w)
			}
		}
	}
	for v, id := range ids {
		check("out", id, g.OutNeighbors(int32(v)), g.OutWeights(int32(v)), out[id])
		if in.directed {
			check("in", id, g.InNeighbors(int32(v)), g.InWeights(int32(v)), inArcs[id])
		}
	}
}
