package algorithms

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The Graphalytics output interchange format stores per-vertex results as
// one line per vertex — "<vertexID> <value>" — ordered by vertex
// identifier. Unreachable BFS vertices carry MaxInt64 and unreachable
// SSSP vertices the literal "infinity", following the reference drivers.
//
// +Inf is the only non-finite value with a representation: no algorithm
// legitimately produces NaN or -Inf, and strconv would serialize them to
// tokens ReadOutput does not round-trip, so both WriteOutput and
// ReadOutput reject them with a clear error instead of letting a
// corrupted value slip through the write→read cycle asymmetrically.

// infinityToken is the SSSP unreachable marker in output files.
const infinityToken = "infinity"

// WriteOutput serializes per-vertex results; ids maps internal vertex
// indices to external identifiers (graph.IDs()).
func WriteOutput(w io.Writer, ids []int64, out *Output) error {
	if out.Len() != len(ids) {
		return fmt.Errorf("algorithms: output has %d values for %d vertices", out.Len(), len(ids))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	for v, id := range ids {
		var value string
		if out.Int != nil {
			value = strconv.FormatInt(out.Int[v], 10)
		} else if math.IsInf(out.Float[v], 1) {
			value = infinityToken
		} else if f := out.Float[v]; math.IsNaN(f) || math.IsInf(f, -1) {
			return fmt.Errorf("algorithms: vertex %d: value %v has no output representation (only +Inf is serializable as %q)", id, f, infinityToken)
		} else {
			value = strconv.FormatFloat(out.Float[v], 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(bw, "%d %s\n", id, value); err != nil {
			return fmt.Errorf("algorithms: write output: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("algorithms: flush output: %w", err)
	}
	return nil
}

// ReadOutput parses an output file for the given algorithm, returning the
// vertex identifiers in file order and the parsed values. A name outside
// All fails with ErrUnknownAlgorithm: the name decides whether values
// parse as integers or floats.
func ReadOutput(r io.Reader, a Algorithm) ([]int64, *Output, error) {
	if !slices.Contains(All, a) {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, a)
	}
	isFloat := a == PR || a == LCC || a == SSSP
	out := &Output{Algorithm: a}
	var ids []int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("algorithms: output line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		id, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("algorithms: output line %d: %w", lineNo, err)
		}
		ids = append(ids, id)
		if isFloat {
			var f float64
			if fields[1] == infinityToken {
				f = math.Inf(1)
			} else {
				f, err = strconv.ParseFloat(fields[1], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("algorithms: output line %d: %w", lineNo, err)
				}
				if math.IsNaN(f) || math.IsInf(f, -1) {
					return nil, nil, fmt.Errorf("algorithms: output line %d: non-finite value %q (only %q is a valid non-finite marker)", lineNo, fields[1], infinityToken)
				}
			}
			out.Float = append(out.Float, f)
		} else {
			i, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("algorithms: output line %d: %w", lineNo, err)
			}
			out.Int = append(out.Int, i)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("algorithms: scan output: %w", err)
	}
	return ids, out, nil
}
