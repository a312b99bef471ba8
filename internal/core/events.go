package core

import "time"

// EventType names a progress event emitted by a Session.
type EventType string

// The event stream: per-job start/finish events, per-experiment phase
// markers bracketing the jobs of one paper artifact, dataset
// materialization events from the graph store, and upload events.
const (
	EventJobStarted         EventType = "job-started"
	EventJobFinished        EventType = "job-finished"
	EventExperimentStarted  EventType = "experiment-started"
	EventExperimentFinished EventType = "experiment-finished"
	// EventDatasetMaterialized fires every time the session resolves a
	// dataset graph, with Source saying whether it was a cache hit
	// ("memory"), a binary snapshot load ("snapshot") or a cold
	// generation ("built") — the observable difference between a warmed
	// harness and one regenerating everything.
	EventDatasetMaterialized EventType = "dataset-materialized"
	// EventDeploymentUploaded fires when an upload completes — once per
	// deployment group of a RunPlan, once per job of a RunAll or RunJob
	// (each job being a deployment of its own): Spec is the job that
	// performed it and Elapsed the upload wall time. Counting these
	// events counts real uploads.
	EventDeploymentUploaded EventType = "deployment-uploaded"
)

// Event is one progress notification. Job events carry the spec and — on
// finish — the result; experiment events carry the artifact ID (e.g.
// "fig4"). Index and Total locate a job inside a RunAll batch; Total is
// zero for standalone RunJob calls.
type Event struct {
	Type EventType

	// Seq is the monotonic per-session sequence number, stamped by the
	// session at delivery: the first event a session emits has Seq 1 and
	// consecutive events have consecutive numbers, with no gaps, in
	// delivery order. Batches derived from one session (RunAll/RunPlan
	// per-call options) share the session's counter, so Seq totally
	// orders the whole session's stream — which is what lets a streaming
	// consumer (e.g. the daemon's SSE stream) resume after a disconnect and
	// attribute durations between events.
	Seq uint64
	// Time is the delivery timestamp, stamped by the session from the
	// clock seam (internal/clock).
	Time time.Time

	// Job events.
	Spec   JobSpec
	Result *JobResult // always non-nil on EventJobFinished; nil on other event types
	Err    error      // harness-level error, if the job could not be attempted
	Index  int        // zero-based position in the batch
	Total  int        // batch size; zero outside RunAll

	// Experiment events: the report ID of the artifact being generated.
	Experiment string

	// Dataset materialization events.
	Dataset string        // dataset ID, e.g. "D300"
	Source  string        // "memory", "snapshot" or "built"
	Elapsed time.Duration // materialization wall time for this load
	Bytes   int64         // graph memory footprint (graph.SizeBytes)
	// MappedBytes is the portion of Bytes backed by an mmap'd snapshot
	// (0 for heap-resident graphs): reclaimable by the OS under memory
	// pressure, unlike heap bytes.
	MappedBytes int64
}

// Observer receives the session's event stream.
//
// Delivery contract: the session delivers events synchronously from the
// goroutine that produced them and serializes Observe calls, so
// implementations need no internal locking and always see Seq in
// increasing order. The flip side of synchronous delivery is that a slow
// observer backpressures job completion — observers should return
// quickly. A consumer that cannot keep up (a network writer, a UI)
// appends the event to a log of its own and serves it from there, at
// its own pace: the daemon's per-run event log is that shape, and no
// event is lost to a slow reader. A panicking observer does not kill
// the run: the session recovers panics at the delivery site and keeps
// going (the event is lost for that observer).
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(e).
func (f ObserverFunc) Observe(e Event) { f(e) }

// MultiObserver fans one event stream out to several observers, in
// order. Each delivery is individually panic-recovered, so one faulty
// observer cannot prevent the others from seeing the event.
func MultiObserver(obs ...Observer) Observer {
	return ObserverFunc(func(e Event) {
		for _, o := range obs {
			safeObserve(o, e)
		}
	})
}

// safeObserve delivers one event, swallowing an observer panic: the
// observer contract says a panicking observer loses the event, not the
// run.
func safeObserve(o Observer, e Event) {
	defer func() { _ = recover() }()
	o.Observe(e)
}
