package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"graphalytics/internal/core"
)

// This file is the SSE side of the service: encoding a run's event log
// as a text/event-stream response with resumable ids.
//
// The stream contract: every record is written as
//
//	id: <per-run event id>
//	event: <type>
//	data: <EventRecord JSON>
//
// with ids 1-based, gap-free and strictly increasing. A client that
// reconnects with `Last-Event-ID: n` (or ?last_event_id=n) receives
// exactly the records after n — no gaps, no duplicates — because the
// stream is served from the run's append-only event log, not from a
// live tap. The stream ends after the terminal "run-finished" record.

// writeTimeout bounds how long one batch of a stream may take to reach
// its client. A client that stops reading fills the socket buffers and
// blocks the handler's next write; the deadline fails that write, so the
// handler returns instead of holding its goroutine, its connection and
// its place on the run's log forever. A variable so the package's tests
// can shorten it.
var writeTimeout = 30 * time.Second

// sendBatch writes one batch of a stream under a fresh write deadline and
// flushes it. It reports false once the client can take no more: it left,
// or it stopped reading and the deadline expired.
func sendBatch(rc *http.ResponseController, write func() error) bool {
	// A writer that cannot take deadlines streams without one.
	_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := write(); err != nil {
		return false
	}
	err := rc.Flush()
	return err == nil || errors.Is(err, http.ErrNotSupported)
}

// writeSSE encodes one record in SSE framing.
func writeSSE(w io.Writer, rec EventRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", rec.ID, rec.Type, data)
	return err
}

// lastEventID extracts the resume position from the standard
// Last-Event-ID header, falling back to the last_event_id query
// parameter (handy for curl). Absent or malformed values resume from
// the beginning.
func lastEventID(r *http.Request) int {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// streamEvents serves a run's event log as SSE from position `after`,
// following live appends until the log closes or the client leaves.
func streamEvents(w http.ResponseWriter, r *http.Request, run *Run, after int) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Ask reconnecting EventSource clients to back off a moment.
	if !sendBatch(http.NewResponseController(w), func() error {
		_, err := fmt.Fprint(w, "retry: 1000\n\n")
		return err
	}) {
		return
	}
	follow(w, r, run.events, after, func(rec EventRecord) error { return writeSSE(w, rec) })
}

// streamResults serves a run's results as JSON Lines from the per-run
// buffering sink, following live appends until the run is terminal. The
// encoding is byte-identical to core.NewJSONLSink writing the same
// results — a daemon run and a local `run -spec -out` produce the same
// JSONL for the same outcomes.
func streamResults(w http.ResponseWriter, r *http.Request, run *Run) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	follow(w, r, run.results, 0, func(res core.JobResult) error { return enc.Encode(res) })
}

// follow writes the items of log after index `after` with write, one
// sendBatch per wakeup, and waits for more until the log closes or the
// client leaves. wait reads the items and the closed flag under one
// lock and a closed log takes no appends, so the batch read with closed
// set is the log's last.
func follow[T any](w http.ResponseWriter, r *http.Request, log *streamLog[T], after int, write func(T) error) {
	rc := http.NewResponseController(w)
	for {
		items, closed, updated := log.wait(after)
		if len(items) > 0 && !sendBatch(rc, func() error {
			for _, it := range items {
				if err := write(it); err != nil {
					return err
				}
			}
			return nil
		}) {
			return
		}
		if closed {
			return
		}
		after += len(items)
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}
