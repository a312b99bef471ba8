package main

// The client side of the service daemon: `graphalytics submit` posts a
// spec to a running graphalyticsd and (optionally) follows it, `watch`
// attaches to an existing run. Both speak the plain /v1 HTTP API with a
// minimal SSE reader that reconnects with Last-Event-ID, so a dropped
// connection resumes mid-run with no gaps and no duplicates.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// serviceClient is a thin handle on one graphalyticsd endpoint.
type serviceClient struct {
	server string // base URL, no trailing slash
	key    string // API key; empty for anonymous tenants
	http   *http.Client
}

func newServiceClient(server, key string) *serviceClient {
	return &serviceClient{
		server: strings.TrimRight(server, "/"),
		key:    key,
		// No overall timeout: event streams are long-lived by design.
		http: &http.Client{},
	}
}

func (c *serviceClient) do(req *http.Request) (*http.Response, error) {
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	return c.http.Do(req)
}

// apiErrorOf turns a non-2xx response into an error using the service's
// JSON error envelope when present.
func apiErrorOf(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// submitRun posts the spec body and returns the accepted run record.
func (c *serviceClient) submitRun(ctx context.Context, spec io.Reader) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", c.server+"/v1/runs", spec)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, apiErrorOf(resp)
	}
	defer resp.Body.Close()
	var rec map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id   string
	typ  string
	data string
}

// readSSE parses a text/event-stream body, calling emit per event. It
// implements the subset of the SSE grammar the service emits: `id:`,
// `event:`, `data:` and `retry:` fields, blank-line dispatch, and
// comment lines (":").
func readSSE(r io.Reader, emit func(sseEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseEvent
	var hasData bool
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if hasData {
				if err := emit(ev); err != nil {
					return err
				}
			}
			ev = sseEvent{}
			hasData = false
		case strings.HasPrefix(line, ":"):
			// comment / keep-alive
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "id":
				ev.id = value
			case "event":
				ev.typ = value
			case "data":
				if hasData {
					ev.data += "\n"
				}
				ev.data += value
				hasData = true
			}
		}
	}
	return sc.Err()
}

// followEvents streams a run's events from the daemon, rendering each as
// a progress line, reconnecting with Last-Event-ID on connection errors
// until the terminal run-finished event arrives. Returns the final run
// state.
func (c *serviceClient) followEvents(ctx context.Context, runID string, w io.Writer) (string, error) {
	lastID := ""
	finalState := ""
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, "GET", c.server+"/v1/runs/"+runID+"/events", nil)
		if err != nil {
			return "", err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := c.do(req)
		if err != nil {
			if ctx.Err() != nil {
				return "", ctx.Err()
			}
			// Transient connection failure: back off briefly and resume
			// from the last event we saw.
			select {
			case <-time.After(time.Second):
				continue
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		if resp.StatusCode != http.StatusOK {
			return "", apiErrorOf(resp)
		}
		err = readSSE(resp.Body, func(ev sseEvent) error {
			if ev.id != "" {
				lastID = ev.id
			}
			state, rerr := renderEventRecord(w, ev)
			if state != "" {
				finalState = state
			}
			return rerr
		})
		resp.Body.Close()
		if finalState != "" {
			return finalState, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
			// Parse errors other than a truncated stream are fatal; a
			// truncated stream reconnects like a dropped connection.
			return "", err
		}
		select { // stream ended without run-finished: reconnect
		case <-time.After(time.Second):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// eventRecord mirrors the service's EventRecord wire form (the fields
// the progress renderer uses).
type eventRecord struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"`
	Run   string    `json:"run"`
	State string    `json:"state"`
	// ArchiveRoot is the archive commit ID sealing a completed run's
	// results, carried on the final run-finished event.
	ArchiveRoot string `json:"archive_root"`
	Index       int    `json:"index"`
	Total       int    `json:"total"`
	Platform    string `json:"platform"`
	Dataset     string `json:"dataset"`
	Algorithm   string `json:"algorithm"`
	Status      string `json:"status"`
	Error       string `json:"error"`
	Elapsed     int64  `json:"elapsed"`
	Source      string `json:"source"`
}

// renderEventRecord prints one SSE event as a progress line in the same
// shape as the local -progress observer. It returns the run's terminal
// state when the event is run-finished, "" otherwise.
func renderEventRecord(w io.Writer, ev sseEvent) (string, error) {
	var rec eventRecord
	if err := json.Unmarshal([]byte(ev.data), &rec); err != nil {
		return "", fmt.Errorf("submit: bad event payload: %w", err)
	}
	stamp := fmt.Sprintf("#%-4d %s", rec.Seq, rec.Time.Format("15:04:05.000"))
	switch rec.Type {
	case "run-queued":
		fmt.Fprintf(w, "%s >> run %s queued\n", stamp, rec.Run)
	case "run-started":
		fmt.Fprintf(w, "%s >> run %s started\n", stamp, rec.Run)
	case "run-finished":
		fmt.Fprintf(w, "%s >> run %s %s\n", stamp, rec.Run, rec.State)
		if rec.ArchiveRoot != "" {
			// The daemon sealed the run: print the commit ID so the
			// watcher can verify the published results offline
			// (GET /v1/archive/{root}, `graphalytics archive verify`).
			fmt.Fprintf(w, "%s >> archived: commit %s\n", stamp, rec.ArchiveRoot)
		}
		return rec.State, nil
	case "dataset-materialized":
		if rec.Source == "snapshot" || rec.Source == "built" {
			fmt.Fprintf(w, "%s    dataset %-6s %s\n", stamp, rec.Dataset, rec.Source)
		}
	case "job-finished":
		pos := ""
		if rec.Total > 0 {
			pos = fmt.Sprintf("[%d/%d] ", rec.Index+1, rec.Total)
		}
		if rec.Error != "" && rec.Status == "" {
			fmt.Fprintf(w, "%s    %s%s/%s/%s: harness error: %s\n",
				stamp, pos, rec.Platform, rec.Dataset, rec.Algorithm, rec.Error)
			return "", nil
		}
		fmt.Fprintf(w, "%s    %s%-9s %-6s %-5s %s\n",
			stamp, pos, rec.Platform, rec.Dataset, rec.Algorithm, rec.Status)
	}
	return "", nil
}

// fetchResults downloads the run's JSONL results into w (byte-identical
// to a local run's -out file for the same outcomes).
func (c *serviceClient) fetchResults(ctx context.Context, runID string, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.server+"/v1/runs/"+runID+"/results", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, apiErrorOf(resp)
	}
	return io.Copy(w, resp.Body)
}

// cmdSubmit posts a spec file to a graphalyticsd daemon, prints the run
// handle, and with -watch follows the event stream to completion and
// optionally saves the results.
func cmdSubmit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8077", "graphalyticsd base URL")
	specPath := fs.String("spec", "", "benchmark spec JSON file (required)")
	key := fs.String("key", "", "API key (tenant credential); empty for open daemons")
	watch := fs.Bool("watch", false, "follow the run's event stream until it finishes")
	out := fs.String("out", "", "with -watch: save the run's JSONL results to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("submit: -spec is required")
	}
	f, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	defer f.Close()
	c := newServiceClient(*server, *key)
	rec, err := c.submitRun(ctx, f)
	if err != nil {
		return err
	}
	runID, _ := rec["id"].(string)
	fmt.Printf("run %s accepted: %v jobs in %v deployments (state %v)\n",
		runID, rec["jobs"], rec["deployments"], rec["state"])
	if !*watch {
		fmt.Printf("follow with: graphalytics watch -server %s -run %s\n", *server, runID)
		return nil
	}
	return watchRun(ctx, c, runID, *out)
}

// cmdWatch attaches to an existing run on a daemon: streams its events
// (resuming across reconnects) and optionally saves its results.
func cmdWatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8077", "graphalyticsd base URL")
	runID := fs.String("run", "", "run id to follow (required)")
	key := fs.String("key", "", "API key (tenant credential); empty for open daemons")
	out := fs.String("out", "", "save the run's JSONL results to this path when it finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runID == "" {
		return fmt.Errorf("watch: -run is required")
	}
	return watchRun(ctx, newServiceClient(*server, *key), *runID, *out)
}

// watchRun follows a run's events to a terminal state, then downloads
// the results if asked, and reflects a failed/canceled run in the exit
// status.
func watchRun(ctx context.Context, c *serviceClient, runID, out string) error {
	state, err := c.followEvents(ctx, runID, os.Stderr)
	if err != nil {
		return err
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		n, err := c.fetchResults(ctx, runID, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("%d result bytes saved to %s\n", n, out)
	}
	if state != "done" {
		return fmt.Errorf("run %s finished %s", runID, state)
	}
	return nil
}
