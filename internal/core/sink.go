package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ErrSink marks sink-delivery failures in returned errors: the jobs
// themselves completed and are in the returned results; only a sink
// rejected the result. errors.Is(err, ErrSink) lets callers keep
// sweeping past delivery problems while still treating real harness
// errors (unknown platform or dataset) as fatal — the experiment suites
// do exactly that.
var ErrSink = errors.New("core: sink error")

// SinkOnly reports whether err consists solely of sink-delivery failures
// (every leaf of the joined tree is marked ErrSink): the run's jobs all
// completed and the artifact built from them is intact, only delivery
// failed. The experiment suites and the CLI use this to return a finished
// report *and* the sink error, instead of discarding completed work.
func SinkOnly(err error) bool {
	if err == nil {
		return false
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		kids := joined.Unwrap()
		// The marker pattern fmt.Errorf("%w: ...: %w", ErrSink, cause)
		// unwraps to [ErrSink, cause]: such a node is one marked sink
		// failure as a whole — its cause chain must not be re-judged, or
		// every marked failure would be rejected for the cause leaf.
		for _, e := range kids {
			if e == ErrSink {
				return true
			}
		}
		for _, e := range kids {
			if !SinkOnly(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, ErrSink)
}

// Sink is the pluggable result-consumption surface of the harness: every
// finished job a session records — via RunJob, RunAll or RunPlan — is
// delivered to each configured sink (WithSink) in commit order, which for
// batches is spec/plan order regardless of completion order. The session
// serializes Consume calls, so implementations need no internal locking.
// A sink error does not stop the run; it is joined into the batch's
// returned error. Sinks are the only place results go besides the slice
// the run returns: NewJSONLSink streams them as they arrive, ArchiveSink
// seals them; reports are rendered from the returned slice afterwards.
type Sink interface {
	Consume(JobResult) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(JobResult) error

// Consume calls f(r).
func (f SinkFunc) Consume(r JobResult) error { return f(r) }

// MultiSink fans results out to every sink in order, joining their
// errors. Each sink's error is wrapped with its registration position and
// type, so a fan-out failure names which sink rejected the result.
func MultiSink(sinks ...Sink) Sink {
	return SinkFunc(func(r JobResult) error {
		var errs []error
		for i, k := range sinks {
			if err := k.Consume(r); err != nil {
				errs = append(errs, fmt.Errorf("sink %d (%T): %w", i+1, k, err))
			}
		}
		return errors.Join(errs...)
	})
}

// NewJSONLSink returns a sink streaming each result to w as one JSON
// object per line, incrementally while the run progresses, so an
// interrupted run keeps every result it finished. Callers owning a
// buffered writer flush it after the run.
func NewJSONLSink(w io.Writer) Sink {
	enc := json.NewEncoder(w)
	return SinkFunc(func(r JobResult) error {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("core: jsonl sink: %w", err)
		}
		return nil
	})
}
