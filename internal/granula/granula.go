// Package granula reimplements Granula, the fine-grained performance
// evaluation framework of Graphalytics (Section 2.5.2 of the paper). It has
// three modules:
//
//   - the modeler, which lets platform experts define the phase structure
//     of a job once (phases defined recursively as collections of smaller
//     phases) so evaluation is automated;
//   - the archiver, which captures a performance archive for each job —
//     complete (all observed and derived results), descriptive (readable by
//     non-experts) and examinable (every result traceable to a source);
//   - the visualizer, which renders an archive for human consumption.
//
// Engines record phases through a Tracker while a job runs; the harness
// derives the benchmark's fine-grained metrics (such as processing time)
// from the resulting archive.
package granula

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"graphalytics/internal/clock"
)

// Standard phase names used by all platform performance models. Platforms
// may nest arbitrary sub-phases below these.
const (
	PhaseSetup   = "Setup"        // resource allocation, engine start-up
	PhaseLoad    = "LoadGraph"    // moving the uploaded graph into the engine
	PhaseProcess = "ProcessGraph" // the algorithm itself; its duration is Tproc
	PhaseOffload = "Offload"      // collecting output from the engine
)

// Operation is one node of a performance archive: a named phase with a
// measured wall-clock interval, optional modeled duration, free-form
// attributes, and sub-phases.
type Operation struct {
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`
	Info  map[string]string `json:"info,omitempty"`
	// Modeled, when non-zero, replaces the measured duration when the
	// phase's cost is computed by a model rather than a stopwatch (the
	// cluster simulator uses this for distributed processing time, which
	// combines measured compute with modeled network transfers).
	Modeled  time.Duration `json:"modeled,omitempty"`
	Children []*Operation  `json:"children,omitempty"`
}

// Measured returns the wall-clock duration of the phase.
func (o *Operation) Measured() time.Duration { return o.End.Sub(o.Start) }

// Duration returns the effective duration: Modeled when set, otherwise the
// measured wall-clock interval.
func (o *Operation) Duration() time.Duration {
	if o.Modeled != 0 {
		return o.Modeled
	}
	return o.Measured()
}

// Child returns the first direct sub-phase with the given name, or nil.
func (o *Operation) Child(name string) *Operation {
	for _, c := range o.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Find descends through the archive along the given path of phase names.
func (o *Operation) Find(path ...string) *Operation {
	cur := o
	for _, name := range path {
		cur = cur.Child(name)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// SetInfo attaches a key/value attribute to the phase.
func (o *Operation) SetInfo(key, value string) {
	if o.Info == nil {
		o.Info = make(map[string]string)
	}
	o.Info[key] = value
}

// Archive is the performance archive of a single job.
type Archive struct {
	Job      string     `json:"job"`
	Platform string     `json:"platform"`
	Root     *Operation `json:"root"`
}

// ProcessingTime returns the duration of the ProcessGraph phase (Tproc),
// the benchmark's primary performance indicator, or zero when the phase is
// absent.
func (a *Archive) ProcessingTime() time.Duration {
	if a.Root == nil {
		return 0
	}
	if p := a.Root.Find(PhaseProcess); p != nil {
		return p.Duration()
	}
	return 0
}

// Makespan returns the duration of the whole job operation.
func (a *Archive) Makespan() time.Duration {
	if a.Root == nil {
		return 0
	}
	return a.Root.Duration()
}

// WriteJSON serializes the archive.
func (a *Archive) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("granula: encode archive: %w", err)
	}
	return nil
}

// ReadArchive deserializes an archive produced by WriteJSON.
func ReadArchive(r io.Reader) (*Archive, error) {
	var a Archive
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("granula: decode archive: %w", err)
	}
	return &a, nil
}

// Tracker builds an archive while a job runs. It is used by a single
// orchestrating goroutine and is not safe for concurrent use.
type Tracker struct {
	archive *Archive
	stack   []*Operation
}

// NewTracker starts tracking a job on a platform; the root operation opens
// immediately.
func NewTracker(job, platform string) *Tracker {
	root := &Operation{Name: job, Start: clock.Now()}
	return &Tracker{archive: &Archive{Job: job, Platform: platform, Root: root}, stack: []*Operation{root}}
}

// Begin opens a sub-phase under the current phase.
func (t *Tracker) Begin(name string) {
	op := &Operation{Name: name, Start: clock.Now()}
	cur := t.stack[len(t.stack)-1]
	cur.Children = append(cur.Children, op)
	t.stack = append(t.stack, op)
}

// End closes the innermost open phase. Ending the root is an error kept
// silent until Finish; extra Ends are ignored.
func (t *Tracker) End() {
	if len(t.stack) <= 1 {
		return
	}
	op := t.stack[len(t.stack)-1]
	op.End = clock.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

// Phase runs fn inside a sub-phase named name.
func (t *Tracker) Phase(name string, fn func()) {
	t.Begin(name)
	defer t.End()
	fn()
}

// Current returns the innermost open operation, so callers can attach
// attributes or a modeled duration.
func (t *Tracker) Current() *Operation { return t.stack[len(t.stack)-1] }

// Annotate adds an attribute to the innermost open phase.
func (t *Tracker) Annotate(key, value string) { t.Current().SetInfo(key, value) }

// Finish closes all open phases and returns the completed archive. All
// timestamps are normalized to wall-clock time (Go's monotonic reading is
// stripped), so durations computed from a serialized archive match the
// live ones — a requirement for examinable, traceable archives.
func (t *Tracker) Finish() *Archive {
	end := clock.Now()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].End.IsZero() {
			t.stack[i].End = end
		}
	}
	t.stack = t.stack[:1]
	normalize(t.archive.Root)
	return t.archive
}

// normalize strips monotonic clock readings from the tree.
func normalize(op *Operation) {
	op.Start = op.Start.Round(0)
	op.End = op.End.Round(0)
	for _, c := range op.Children {
		normalize(c)
	}
}

// Render writes a human-readable tree view of the archive: every phase with
// its duration, its share of the parent phase, and its attributes. This is
// the text-mode counterpart of the Granula visualizer's web interface.
func Render(w io.Writer, a *Archive) error {
	if _, err := fmt.Fprintf(w, "job %q on platform %q — makespan %v\n", a.Job, a.Platform, a.Makespan().Round(time.Microsecond)); err != nil {
		return err
	}
	if a.Root == nil {
		return nil
	}
	return renderOp(w, a.Root, "", a.Root.Duration())
}

func renderOp(w io.Writer, op *Operation, indent string, parent time.Duration) error {
	share := ""
	if parent > 0 && indent != "" {
		share = fmt.Sprintf(" (%4.1f%%)", 100*float64(op.Duration())/float64(parent))
	}
	modeled := ""
	if op.Modeled != 0 {
		modeled = fmt.Sprintf(" [modeled; measured %v]", op.Measured().Round(time.Microsecond))
	}
	if _, err := fmt.Fprintf(w, "%s%-24s %12v%s%s\n", indent, op.Name, op.Duration().Round(time.Microsecond), share, modeled); err != nil {
		return err
	}
	keys := make([]string, 0, len(op.Info))
	for k := range op.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s  · %s = %s\n", indent, k, op.Info[k]); err != nil {
			return err
		}
	}
	for _, c := range op.Children {
		if err := renderOp(w, c, indent+"  ", op.Duration()); err != nil {
			return err
		}
	}
	return nil
}
