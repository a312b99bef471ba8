package algorithms_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
)

func TestOutputRoundTripInt(t *testing.T) {
	ids := []int64{10, 20, 30}
	out := &algorithms.Output{Algorithm: algorithms.BFS, Int: []int64{0, algorithms.Unreachable, 2}}
	var buf bytes.Buffer
	if err := algorithms.WriteOutput(&buf, ids, out); err != nil {
		t.Fatal(err)
	}
	gotIDs, got, err := algorithms.ReadOutput(&buf, algorithms.BFS)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] || got.Int[i] != out.Int[i] {
			t.Fatalf("row %d: got (%d,%d), want (%d,%d)", i, gotIDs[i], got.Int[i], ids[i], out.Int[i])
		}
	}
}

func TestOutputRoundTripFloatWithInfinity(t *testing.T) {
	ids := []int64{1, 2}
	out := &algorithms.Output{Algorithm: algorithms.SSSP, Float: []float64{2.5, math.Inf(1)}}
	var buf bytes.Buffer
	if err := algorithms.WriteOutput(&buf, ids, out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "infinity") {
		t.Fatalf("SSSP unreachable must serialize as 'infinity':\n%s", buf.String())
	}
	_, got, err := algorithms.ReadOutput(&buf, algorithms.SSSP)
	if err != nil {
		t.Fatal(err)
	}
	if got.Float[0] != 2.5 || !math.IsInf(got.Float[1], 1) {
		t.Fatalf("round trip: %v", got.Float)
	}
}

func TestWriteOutputLengthMismatch(t *testing.T) {
	out := &algorithms.Output{Algorithm: algorithms.BFS, Int: []int64{1}}
	if err := algorithms.WriteOutput(&bytes.Buffer{}, []int64{1, 2}, out); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestReadOutputErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		alg  algorithms.Algorithm
	}{
		{"wrong field count", "1 2 3\n", algorithms.BFS},
		{"bad id", "x 2\n", algorithms.BFS},
		{"bad int value", "1 x\n", algorithms.BFS},
		{"bad float value", "1 x\n", algorithms.PR},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := algorithms.ReadOutput(strings.NewReader(tc.in), tc.alg); err == nil {
				t.Fatal("expected parse error")
			}
		})
	}
}

// TestReadOutputUnknownAlgorithm: a name outside algorithms.All, such as
// a lower-case "sssp", must not be read as integer output.
func TestReadOutputUnknownAlgorithm(t *testing.T) {
	for _, a := range []algorithms.Algorithm{"sssp", "", "PageRank"} {
		_, _, err := algorithms.ReadOutput(strings.NewReader("1 0.25\n"), a)
		if !errors.Is(err, algorithms.ErrUnknownAlgorithm) {
			t.Errorf("ReadOutput(%q) err = %v, want ErrUnknownAlgorithm", a, err)
		}
	}
}

func TestReadOutputSkipsComments(t *testing.T) {
	ids, out, err := algorithms.ReadOutput(strings.NewReader("# header\n\n5 7\n"), algorithms.WCC)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 5 || out.Int[0] != 7 {
		t.Fatalf("parsed %v %v", ids, out.Int)
	}
}

// TestOutputRoundTripAllAlgorithms is the write→read property test: for
// every core algorithm, real reference output on a random graph — with
// unreachable markers forced into the BFS and SSSP outputs via a vertex
// the source cannot reach — must round-trip through the interchange
// format bit for bit.
func TestOutputRoundTripAllAlgorithms(t *testing.T) {
	b := graph.NewBuilder(true, true)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.AddVertex(4096) // unreachable from the source
	rng := rand.New(rand.NewSource(31))
	const n = 64
	for i := 0; i < n; i++ {
		b.AddVertex(int64(i))
	}
	for i := 0; i < 4*n; i++ {
		b.AddWeightedEdge(int64(rng.Intn(n)), int64(rng.Intn(n)), rng.Float64()+0.01)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algorithms.All {
		out, err := algorithms.RunReference(g, a, algorithms.Params{Source: 0, Iterations: 5})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		var buf bytes.Buffer
		if err := algorithms.WriteOutput(&buf, g.IDs(), out); err != nil {
			t.Fatalf("%s: write: %v", a, err)
		}
		gotIDs, got, err := algorithms.ReadOutput(&buf, a)
		if err != nil {
			t.Fatalf("%s: read: %v", a, err)
		}
		if !slices.Equal(gotIDs, g.IDs()) {
			t.Fatalf("%s: ids did not round-trip", a)
		}
		if !slices.Equal(got.Int, out.Int) || !slices.Equal(got.Float, out.Float) {
			t.Fatalf("%s: values did not round-trip bit-for-bit", a)
		}
	}
}

// TestOutputRejectsNonFinite pins the hardening against the write/read
// asymmetry: NaN and -Inf have no representation in the format, so both
// directions must fail with a diagnostic instead of silently writing a
// token the reader cannot parse back.
func TestOutputRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		out := &algorithms.Output{Algorithm: algorithms.SSSP, Float: []float64{1.5, bad}}
		err := algorithms.WriteOutput(&bytes.Buffer{}, []int64{1, 2}, out)
		if err == nil || !strings.Contains(err.Error(), "vertex 2") {
			t.Fatalf("WriteOutput(%v) err = %v, want vertex-2 diagnostic", bad, err)
		}
	}
	for _, in := range []string{"1 NaN\n", "1 nan\n", "1 -inf\n", "1 -infinity\n"} {
		if _, _, err := algorithms.ReadOutput(strings.NewReader(in), algorithms.SSSP); err == nil {
			t.Fatalf("ReadOutput(%q) must reject non-finite values", in)
		}
	}
	// The canonical +Inf spellings stay readable.
	for _, in := range []string{"1 infinity\n", "1 inf\n"} {
		_, got, err := algorithms.ReadOutput(strings.NewReader(in), algorithms.SSSP)
		if err != nil || !math.IsInf(got.Float[0], 1) {
			t.Fatalf("ReadOutput(%q) = %v, %v; want +Inf", in, got, err)
		}
	}
}

// FuzzReadOutput holds the output reader to two properties: no input and
// no algorithm name makes it panic, and an input it accepts survives
// WriteOutput → ReadOutput with the same identifiers and the same value
// bits. The seed corpus in testdata/fuzz/FuzzReadOutput holds an integer
// and a float file, infinity with comments and blank lines, a three-field
// line, nan, -inf, and an unknown algorithm.
func FuzzReadOutput(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, alg string) {
		a := algorithms.Algorithm(alg)
		ids, out, err := algorithms.ReadOutput(bytes.NewReader(data), a)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := algorithms.WriteOutput(&buf, ids, out); err != nil {
			t.Fatalf("accepted output does not write: %v", err)
		}
		backIDs, back, err := algorithms.ReadOutput(&buf, a)
		if err != nil {
			t.Fatalf("written output does not read: %v", err)
		}
		if !slices.Equal(backIDs, ids) || !slices.Equal(back.Int, out.Int) || !slices.Equal(valueBits(back.Float), valueBits(out.Float)) {
			t.Fatalf("round trip changed the output:\n%v %v %v\n%v %v %v", ids, out.Int, out.Float, backIDs, back.Int, back.Float)
		}
	})
}

func valueBits(fs []float64) []uint64 {
	bits := make([]uint64, len(fs))
	for i, f := range fs {
		bits[i] = math.Float64bits(f)
	}
	return bits
}
