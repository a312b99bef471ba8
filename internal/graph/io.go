package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The Graphalytics text interchange format stores a graph as two files: a
// vertex file (conventionally ".v") with one vertex identifier per line,
// and an edge file (".e") with one edge per line as "src dst" or
// "src dst weight" for weighted graphs, where a weight is a finite
// non-negative number. Lines starting with '#' and blank lines are
// ignored.

// maxLineBytes bounds a single input line; graph lines are tiny, but the
// scanner needs headroom for comments.
const maxLineBytes = 1 << 20

// ReadVE reads a graph from vertex and edge streams in the Graphalytics
// text format.
func ReadVE(vr, er io.Reader, name string, directed, weighted bool, opts BuildOptions) (*Graph, error) {
	b := NewBuilder(directed, weighted)
	b.SetName(name)
	b.SetOptions(opts)

	if err := scanLines(vr, func(lineNo int, fields []string) error {
		if len(fields) < 1 {
			return fmt.Errorf("vertex line %d: empty", lineNo)
		}
		id, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("vertex line %d: %w", lineNo, err)
		}
		b.AddVertex(id)
		return nil
	}); err != nil {
		return nil, err
	}

	if err := scanLines(er, func(lineNo int, fields []string) error {
		if len(fields) < 2 {
			return fmt.Errorf("edge line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("edge line %d: %w", lineNo, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("edge line %d: %w", lineNo, err)
		}
		if weighted {
			if len(fields) < 3 {
				return fmt.Errorf("edge line %d: weighted graph but no weight field", lineNo)
			}
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return fmt.Errorf("edge line %d: %w", lineNo, err)
			}
			// The kernels assume non-negative weights: on a negative
			// cycle shortest paths never settle.
			if !(w >= 0) || math.IsInf(w, 1) {
				return fmt.Errorf("edge line %d: weight %s is not a finite non-negative number", lineNo, fields[2])
			}
			b.AddWeightedEdge(src, dst, w)
		} else {
			b.AddEdge(src, dst)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return b.Build()
}

// LoadVE reads a graph from vertex and edge files in the Graphalytics text
// format. The graph name is derived from the vertex file path.
func LoadVE(vPath, ePath string, directed, weighted bool, opts BuildOptions) (*Graph, error) {
	vf, err := os.Open(vPath)
	if err != nil {
		return nil, fmt.Errorf("graph: open vertex file: %w", err)
	}
	defer vf.Close()
	ef, err := os.Open(ePath)
	if err != nil {
		return nil, fmt.Errorf("graph: open edge file: %w", err)
	}
	defer ef.Close()
	name := strings.TrimSuffix(vPath, ".v")
	return ReadVE(bufio.NewReaderSize(vf, 1<<16), bufio.NewReaderSize(ef, 1<<16), name, directed, weighted, opts)
}

// WriteVE writes the graph to vertex and edge streams in the Graphalytics
// text format. Undirected edges are written once with the smaller endpoint
// first.
func WriteVE(g *Graph, vw, ew io.Writer) error {
	bv := bufio.NewWriterSize(vw, 1<<16)
	for _, id := range g.IDs() {
		if _, err := fmt.Fprintf(bv, "%d\n", id); err != nil {
			return fmt.Errorf("graph: write vertex: %w", err)
		}
	}
	if err := bv.Flush(); err != nil {
		return fmt.Errorf("graph: flush vertices: %w", err)
	}
	be := bufio.NewWriterSize(ew, 1<<16)
	for _, e := range g.Edges() {
		var err error
		if g.Weighted() {
			_, err = fmt.Fprintf(be, "%d %d %s\n", e.Src, e.Dst, strconv.FormatFloat(e.Weight, 'g', -1, 64))
		} else {
			_, err = fmt.Fprintf(be, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return fmt.Errorf("graph: write edge: %w", err)
		}
	}
	if err := be.Flush(); err != nil {
		return fmt.Errorf("graph: flush edges: %w", err)
	}
	return nil
}

// SaveVE writes the graph to vPath and ePath in the Graphalytics text
// format.
func SaveVE(g *Graph, vPath, ePath string) error {
	vf, err := os.Create(vPath)
	if err != nil {
		return fmt.Errorf("graph: create vertex file: %w", err)
	}
	defer vf.Close()
	ef, err := os.Create(ePath)
	if err != nil {
		return fmt.Errorf("graph: create edge file: %w", err)
	}
	defer ef.Close()
	if err := WriteVE(g, vf, ef); err != nil {
		return err
	}
	if err := vf.Close(); err != nil {
		return fmt.Errorf("graph: close vertex file: %w", err)
	}
	if err := ef.Close(); err != nil {
		return fmt.Errorf("graph: close edge file: %w", err)
	}
	return nil
}

// FromEdges builds a graph directly from an edge slice, adding endpoint
// vertices implicitly. Generators use this as a convenience.
func FromEdges(name string, directed, weighted bool, edges []Edge, opts BuildOptions) (*Graph, error) {
	b := NewBuilder(directed, weighted)
	b.SetName(name)
	b.SetOptions(opts)
	b.AddEdges(edges)
	return b.Build()
}

// scanLines feeds whitespace-split fields of every non-comment, non-blank
// line to fn along with its 1-based line number.
func scanLines(r io.Reader, fn func(lineNo int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(lineNo, strings.Fields(line)); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: scan input: %w", err)
	}
	return nil
}
