package main

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// around a public function, or synthesised from what the layer already
// reports (core.Observer events, JobResult durations, SSE record times).
// Name is "<layer>.<op>"; spans of one round, pass or daemon run share Op.
// A span with Parent 0 is a root: one traced end-to-end operation.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Op       int     `json:"op"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// layer is the module a span is charged to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code calls it unconditionally.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// add records a finished span and returns its ID (0 when not tracing).
func (t *tracer) add(parent int, name string, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds(),
	})
	return id
}

// begin opens a span now; end closes it.
func (t *tracer) begin(parent int, name string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, name, op, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// unattributed is the breakdown row for root time no child span covers.
const unattributed = "unattributed"

// selfTimes charges every instant of every root span to a layer and
// returns seconds per layer plus the total root wall; the rows sum to
// that wall exactly. An instant belongs to the spans active at it that
// have no active child: a span's self time is its duration minus the part
// its children cover. Where several such spans run at once (jobs on
// parallel workers), they share the instant equally, so concurrency
// never counts wall time twice. A root's own self time is "unattributed".
// Children are clipped to their parent, because synthesised spans are
// placed from reported durations and may stick out by clock skew.
func selfTimes(spans []span) (rows map[string]float64, wall float64) {
	rows = make(map[string]float64)
	byID := make(map[int]*span, len(spans))
	kids := make(map[int][]int)
	clipped := slices.Clone(spans)
	for i := range clipped {
		byID[clipped[i].ID] = &clipped[i]
		kids[clipped[i].Parent] = append(kids[clipped[i].Parent], clipped[i].ID)
	}
	type edge struct {
		at   float64
		id   int
		open bool
	}
	for _, root := range kids[0] {
		// Walk the subtree top-down, clipping as we go.
		var edges []edge
		stack := []int{root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := byID[id]
			if p, ok := byID[s.Parent]; ok {
				s.Start = min(max(s.Start, p.Start), p.End)
				s.End = min(max(s.End, s.Start), p.End)
			}
			if s.End > s.Start {
				edges = append(edges, edge{s.Start, id, true}, edge{s.End, id, false})
			}
			stack = append(stack, kids[id]...)
		}
		wall += byID[root].End - byID[root].Start
		// Closes sort before opens at the same instant, so back-to-back
		// siblings never overlap for a zero-length interval.
		slices.SortFunc(edges, func(a, b edge) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if a.open != b.open {
				if a.open {
					return 1
				}
				return -1
			}
			return cmp.Compare(a.id, b.id)
		})
		active := make(map[int]int) // span ID -> active children
		prev := 0.0
		for _, e := range edges {
			if dt := e.at - prev; dt > 0 && len(active) > 0 {
				leaves := 0
				for _, n := range active {
					if n == 0 {
						leaves++
					}
				}
				for id, n := range active {
					if n != 0 {
						continue
					}
					l := unattributed
					if id != root {
						l = byID[id].layer()
					}
					rows[l] += dt / float64(leaves)
				}
			}
			prev = e.at
			parent := byID[e.id].Parent
			if e.open {
				active[e.id] = 0
				if _, ok := active[parent]; ok {
					active[parent]++
				}
			} else {
				delete(active, e.id)
				if _, ok := active[parent]; ok {
					active[parent]--
				}
			}
		}
	}
	return rows, wall
}
