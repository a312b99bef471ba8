package service

// HTTP-level and end-to-end tests: the service is mounted on an
// httptest server and exercised through its public API — submission and
// quota responses, SSE streaming with Last-Event-ID reconnection,
// mid-run cancellation through the real RunPlan path, and a full real
// benchmark run whose streamed JSONL must match what the local pipeline
// writes for the same results.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/core"
)

// testSpecJSON is a small real spec: 2 jobs on the native engine,
// sharing one deployment, validated against the reference kernels.
const testSpecJSON = `{
  "name": "service-e2e",
  "platforms": ["native"],
  "datasets": {"ids": ["R1"]},
  "algorithms": ["BFS", "WCC"],
  "configs": [{"threads": 2, "machines": 1}],
  "sla": "1m",
  "validation": "reference"
}`

// sseTestEvent is one parsed SSE frame.
type sseTestEvent struct {
	id   int
	typ  string
	data string
}

// collectSSE parses a text/event-stream body, calling f per event until
// f returns false or the stream ends.
func collectSSE(r io.Reader, f func(sseTestEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseTestEvent
	has := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if has && !f(ev) {
				return nil
			}
			ev, has = sseTestEvent{}, false
			continue
		}
		field, val, _ := strings.Cut(line, ": ")
		switch field {
		case "id":
			ev.id, _ = strconv.Atoi(val)
		case "event":
			ev.typ = val
		case "data":
			ev.data = val
			has = true
		}
	}
	return sc.Err()
}

// doJSON issues a request with an optional API key and decodes the JSON
// response into out (when non-nil), returning the response.
func doJSON(t *testing.T, client *http.Client, method, url, key string, body io.Reader, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp
}

// submitSpec posts a spec and fails the test unless it is accepted.
func submitSpec(t *testing.T, client *http.Client, base, key, spec string) RunRecord {
	t.Helper()
	var rec RunRecord
	resp := doJSON(t, client, "POST", base+"/v1/runs", key, strings.NewReader(spec), &rec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	if rec.ID == "" || rec.State != RunQueued && rec.State != RunRunning {
		t.Fatalf("submit: bad record %+v", rec)
	}
	return rec
}

// TestHTTPAdmission covers the admission surface end to end: tenant
// authentication, strict decoding and spec validation answering 400
// (unbounded resources among them), queue quotas answering 429 +
// Retry-After, and the unauthenticated health probe.
func TestHTTPAdmission(t *testing.T) {
	fake := newBlockingExec()
	s := newTestService(t, Config{
		Tenants: []Tenant{{Name: "a", Key: "ka", MaxQueued: 1}},
		Slots:   1,
	})
	s.exec = fake.exec
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	if resp := doJSON(t, client, "POST", srv.URL+"/v1/runs", "wrong", strings.NewReader(testSpecJSON), nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: status %d, want 401", resp.StatusCode)
	}
	if resp := doJSON(t, client, "POST", srv.URL+"/v1/runs", "ka", strings.NewReader(`{"name":"x","unknown_field":1}`), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("strict decoding: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, client, "POST", srv.URL+"/v1/runs", "ka", strings.NewReader(testSpecJSON+`{"platforms":["pregel"]}`), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec followed by a second object: status %d, want 400", resp.StatusCode)
	}
	for _, threads := range []string{"-3", "1073741824"} {
		body := strings.Replace(testSpecJSON, `"threads": 2`, `"threads": `+threads, 1)
		if resp := doJSON(t, client, "POST", srv.URL+"/v1/runs", "ka", strings.NewReader(body), nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("threads %s: status %d, want 400", threads, resp.StatusCode)
		}
	}

	r1 := submitSpec(t, client, srv.URL, "ka", testSpecJSON) // occupies the slot
	r2 := submitSpec(t, client, srv.URL, "ka", testSpecJSON) // queued (quota 1)
	resp := doJSON(t, client, "POST", srv.URL+"/v1/runs", "ka", strings.NewReader(testSpecJSON), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}

	var h Health
	if resp := doJSON(t, client, "GET", srv.URL+"/v1/healthz", "", nil, &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Running != 1 || h.Queued != 1 {
		t.Fatalf("healthz = %+v, want ok with 1 running and 1 queued", h)
	}

	fake.releaseRun(r1.ID)
	waitStarted(t, fake) // r1
	waitStarted(t, fake) // r2
	fake.releaseRun(r2.ID)
	s.mu.Lock()
	run2 := s.runs[r2.ID]
	s.mu.Unlock()
	if state := waitTerminal(t, s, run2); state != RunDone {
		t.Fatalf("queued run finished %s, want %s", state, RunDone)
	}
}

// TestSSEReconnect drops an SSE consumer mid-stream and reconnects with
// Last-Event-ID: the concatenation of both reads must be the complete
// event log — gap-free, duplicate-free ids from 1 through the terminal
// run-finished record.
func TestSSEReconnect(t *testing.T) {
	emit := make(chan int)
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1})
	s.exec = func(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error {
		for n := range emit {
			for i := 0; i < n; i++ {
				obs.Observe(core.Event{Type: core.EventJobFinished, Index: i, Total: 10})
			}
		}
		return nil
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	rec := submitSpec(t, srv.Client(), srv.URL, "", testSpecJSON)
	emit <- 5 // first half of the stream

	// First connection: read until we have seen 7 events (run-queued,
	// run-started, 5 job events), then drop the connection.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/runs/"+rec.ID+"/events", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	_ = collectSSE(resp.Body, func(ev sseTestEvent) bool {
		ids = append(ids, ev.id)
		return len(ids) < 7
	})
	cancel()
	resp.Body.Close()
	if len(ids) != 7 {
		t.Fatalf("first connection saw %d events, want 7", len(ids))
	}

	emit <- 5 // second half, emitted while no consumer is connected
	close(emit)

	// Reconnect with Last-Event-ID and read to the end of the stream.
	req, _ = http.NewRequest("GET", srv.URL+"/v1/runs/"+rec.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(ids[len(ids)-1]))
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	last := ""
	if err := collectSSE(resp.Body, func(ev sseTestEvent) bool {
		ids = append(ids, ev.id)
		last = ev.typ
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// 13 records total: run-queued, run-started, 10 job events,
	// run-finished — ids strictly 1..13 across both connections.
	if len(ids) != 13 {
		t.Fatalf("saw %d events across both connections, want 13 (ids %v)", len(ids), ids)
	}
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("event ids have a gap or duplicate: %v", ids)
		}
	}
	if last != eventRunFinished {
		t.Fatalf("stream ended with %q, want %q", last, eventRunFinished)
	}
}

// TestMidRunCancel drives DELETE through the real RunPlan path: the
// run's context is canceled before the plan executes, so every job must
// surface as StatusCanceled in the streamed results and the run must
// finalize as canceled.
func TestMidRunCancel(t *testing.T) {
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1})
	started := make(chan struct{})
	gate := make(chan struct{})
	realExec := s.exec
	s.exec = func(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error {
		close(started)
		<-gate // hold the run here until the test has issued DELETE
		return realExec(ctx, run, obs, sink)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	rec := submitSpec(t, client, srv.URL, "", testSpecJSON)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not start")
	}
	if resp := doJSON(t, client, "DELETE", srv.URL+"/v1/runs/"+rec.ID, "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	close(gate) // RunPlan now runs with an already-canceled context

	s.mu.Lock()
	run := s.runs[rec.ID]
	s.mu.Unlock()
	if state := waitTerminal(t, s, run); state != RunCanceled {
		t.Fatalf("run finished %s, want %s", state, RunCanceled)
	}
	results := run.Results()
	if len(results) == 0 {
		t.Fatal("canceled run streamed no results")
	}
	for _, res := range results {
		if res.Status != core.StatusCanceled {
			t.Fatalf("job %s/%s finished %s, want %s",
				res.Spec.Dataset, res.Spec.Algorithm, res.Status, core.StatusCanceled)
		}
	}
	var got RunRecord
	doJSON(t, client, "GET", srv.URL+"/v1/runs/"+rec.ID, "", nil, &got)
	if got.State != RunCanceled || got.Statuses[string(core.StatusCanceled)] != len(results) {
		t.Fatalf("run record = %+v, want canceled with %d canceled jobs", got, len(results))
	}
}

// TestEndToEndSpecRun is the acceptance path: a real spec submitted over
// HTTP runs to completion on the real engine; the SSE stream is
// complete and ends with run-finished; and the streamed JSONL results
// are byte-identical to core.NewJSONLSink writing the same results —
// and semantically identical (specs, statuses, shape) to a local
// RunPlan of the same spec.
func TestEndToEndSpecRun(t *testing.T) {
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a", Key: "ka"}}})
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	rec := submitSpec(t, client, srv.URL, "ka", testSpecJSON)

	// Follow the SSE stream to the terminal record, checking id
	// continuity as we go.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/runs/"+rec.ID+"/events", nil)
	req.Header.Set("Authorization", "Bearer ka")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nextID, finalState := 1, ""
	err = collectSSE(resp.Body, func(ev sseTestEvent) bool {
		if ev.id != nextID {
			t.Fatalf("event id %d, want %d (gap or duplicate)", ev.id, nextID)
		}
		nextID++
		if ev.typ == eventRunFinished {
			var fin EventRecord
			if err := json.Unmarshal([]byte(ev.data), &fin); err != nil {
				t.Fatalf("bad run-finished payload: %v", err)
			}
			finalState = string(fin.State)
			return false
		}
		return true
	})
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if finalState != string(RunDone) {
		t.Fatalf("run finished %q, want %q", finalState, RunDone)
	}

	// The streamed JSONL body must be byte-identical to the canonical
	// sink encoding of the run's results.
	var body bytes.Buffer
	req, _ = http.NewRequest("GET", srv.URL+"/v1/runs/"+rec.ID+"/results", nil)
	req.Header.Set("Authorization", "Bearer ka")
	gresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&body, gresp.Body); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()

	s.mu.Lock()
	run := s.runs[rec.ID]
	s.mu.Unlock()
	results := run.Results()
	var want bytes.Buffer
	sink := core.NewJSONLSink(&want)
	for _, res := range results {
		if err := sink.Consume(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(body.Bytes(), want.Bytes()) {
		t.Fatalf("streamed JSONL differs from canonical sink encoding:\ngot:\n%s\nwant:\n%s", body.String(), want.String())
	}

	// And the daemon run must be semantically equivalent to running the
	// same spec through a local session: same jobs, same statuses.
	sp, err := core.DecodeSpec(strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	local := core.NewSession()
	plan, err := local.Compile(*sp)
	if err != nil {
		t.Fatal(err)
	}
	localResults, err := local.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(localResults) {
		t.Fatalf("daemon run produced %d results, local run %d", len(results), len(localResults))
	}
	for i := range results {
		if results[i].Spec != localResults[i].Spec {
			t.Fatalf("job %d spec differs: daemon %+v, local %+v", i, results[i].Spec, localResults[i].Spec)
		}
		if results[i].Status != localResults[i].Status {
			t.Fatalf("job %d status differs: daemon %s, local %s", i, results[i].Status, localResults[i].Status)
		}
		if results[i].Status != core.StatusOK {
			t.Fatalf("job %d finished %s, want %s", i, results[i].Status, core.StatusOK)
		}
	}
}

// TestTwoTenantsConcurrent is the no-starvation acceptance check: two
// tenants submit real runs at the same time and both complete. Run with
// -race this also exercises the shared-session paths under concurrency.
func TestTwoTenantsConcurrent(t *testing.T) {
	s := newTestService(t, Config{
		Tenants: []Tenant{{Name: "x", Key: "kx"}, {Name: "y", Key: "ky"}},
		Slots:   2,
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	states := make([]RunState, 2)
	for i, key := range []string{"kx", "ky"} {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			spec := strings.Replace(testSpecJSON, "service-e2e", fmt.Sprintf("tenant-%d", i), 1)
			rec := submitSpec(t, srv.Client(), srv.URL, key, spec)
			s.mu.Lock()
			run := s.runs[rec.ID]
			s.mu.Unlock()
			states[i] = waitTerminal(t, s, run)
		}(i, key)
	}
	wg.Wait()
	for i, state := range states {
		if state != RunDone {
			t.Fatalf("tenant %d run finished %s, want %s", i, state, RunDone)
		}
	}
}

// smallBuffers shrinks the send buffer of every accepted connection, so a
// client that stops reading stalls the server's writes after a few
// kilobytes rather than after whatever the host's autotuning allows.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4096)
	}
	return c, err
}

// TestStalledClientCannotWedgeStreams connects one client that requests a
// run's event stream and never reads it while the log holds far more than
// the socket buffers take: its handler must return once a batch misses
// the write deadline, the run must still complete, and a second client
// streaming at the same time must still read the whole log — every
// event and the three lifecycle records, ids 1 to events+3.
//
// The deadline covers a whole batch, here the log's 2003 records through
// a 4 KiB send buffer, and it binds the healthy client too: it must be
// one that client meets under the race detector on a loaded host (100 ms
// was not, on 2 vCPUs), and short enough for the stalled handler to
// return well within the test's 10 s wait.
func TestStalledClientCannotWedgeStreams(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = time.Second

	const events = 2000
	emitted, finish := make(chan struct{}), make(chan struct{})
	s := newTestService(t, Config{Tenants: []Tenant{{Name: "a"}}, Slots: 1})
	s.exec = func(ctx context.Context, run *Run, obs core.Observer, sink core.Sink) error {
		for i := range events {
			obs.Observe(core.Event{Type: core.EventJobFinished, Index: i, Total: events})
		}
		close(emitted)
		<-finish
		return nil
	}
	stalledReturned := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeHTTP(w, r)
		if r.Header.Get("X-Stalled") != "" {
			close(stalledReturned)
		}
	}))
	srv.Listener = smallBuffers{srv.Listener}
	srv.Start()
	defer srv.Close()
	// Let the run end before the server closes, also on a failure, or the
	// second client's live stream would keep Close waiting.
	finishRun := sync.OnceFunc(func() { close(finish) })
	defer finishRun()

	rec := submitSpec(t, srv.Client(), srv.URL, "", testSpecJSON)
	select {
	case <-emitted:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not emit its events")
	}

	// The stalled client: a raw connection with a small receive buffer that
	// sends its request and never reads a byte.
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4096)
	fmt.Fprintf(conn, "GET /v1/runs/%s/events HTTP/1.1\r\nHost: test\r\nX-Stalled: 1\r\n\r\n", rec.ID)

	// The second client follows the same stream live.
	type streamed struct {
		ids  []int
		last string
		err  error
	}
	second := make(chan streamed, 1)
	go func() {
		var got streamed
		resp, err := srv.Client().Get(srv.URL + "/v1/runs/" + rec.ID + "/events")
		if err != nil {
			got.err = err
			second <- got
			return
		}
		defer resp.Body.Close()
		got.err = collectSSE(resp.Body, func(ev sseTestEvent) bool {
			got.ids = append(got.ids, ev.id)
			got.last = ev.typ
			return ev.typ != eventRunFinished
		})
		second <- got
	}()

	select {
	case <-stalledReturned:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler of a client that stopped reading did not return")
	}
	finishRun()
	s.mu.Lock()
	run := s.runs[rec.ID]
	s.mu.Unlock()
	if state := waitTerminal(t, s, run); state != RunDone {
		t.Fatalf("run finished %s, want %s", state, RunDone)
	}
	var got streamed
	select {
	case got = <-second:
	case <-time.After(10 * time.Second):
		t.Fatal("the second client's stream did not end")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.last != eventRunFinished {
		t.Fatalf("second stream ended with %q after %d events, want %q", got.last, len(got.ids), eventRunFinished)
	}
	if len(got.ids) != events+3 {
		t.Fatalf("second stream read %d records, want %d (every event and the three lifecycle records)", len(got.ids), events+3)
	}
	for i, id := range got.ids {
		if id != i+1 {
			t.Fatalf("second stream's event ids have a gap or duplicate at %d: %d", i, id)
		}
	}
}
