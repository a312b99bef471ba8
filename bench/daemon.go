package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"graphalytics/internal/archive"
	"graphalytics/internal/core"
	"graphalytics/internal/service"
)

//go:embed testdata/daemon.spec.json
var daemonSpecJSON []byte

// daemon is one booted service behind an httptest server.
type daemon struct {
	svc        *service.Service
	srv        *httptest.Server
	archiveDir string
}

// tenantKeys are the API keys of the two tenants; client i uses key i.
var tenantKeys = []string{"bench-key-a", "bench-key-b"}

func (r *run) bootDaemon() (*daemon, error) {
	cacheDir, err := os.MkdirTemp(r.dir, "cache-")
	if err != nil {
		return nil, err
	}
	archiveDir, err := os.MkdirTemp(r.dir, "archive-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		Tenants: []service.Tenant{
			{Name: "a", Key: tenantKeys[0]},
			{Name: "b", Key: tenantKeys[1]},
		},
		Slots:          2,
		ArchiveDir:     archiveDir,
		SessionOptions: []core.Option{core.WithCacheDir(cacheDir), core.WithParallelism(1)},
	})
	if err != nil {
		return nil, err
	}
	return &daemon{svc: svc, srv: httptest.NewServer(svc.Handler()), archiveDir: archiveDir}, nil
}

func (d *daemon) stop() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.svc.Shutdown(ctx)
}

// sseRecord is the part of a service.EventRecord the client reads.
type sseRecord struct {
	Time        time.Time `json:"time"`
	Dropped     uint64    `json:"dropped"`
	ArchiveRoot string    `json:"archive_root"`
}

// daemonRun is what one closed-loop iteration observed.
type daemonRun struct {
	latency  time.Duration // submit sent to run-finished received
	finished time.Time
	ok       bool
	rejected bool   // the submit was answered 429
	dropped  uint64 // events the SSE bridge dropped, from the final record
}

// client is one closed-loop user: it owns a tenant and sends its next
// run only after the previous one is sealed and fetched.
type client struct {
	r    *run
	http *http.Client
	base string
	key  string
	// runs counts iterations, traced and untraced apart, so both kinds
	// fetch the report equally often.
	runs map[bool]int
}

func (c *client) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	return c.http.Do(req)
}

// once runs one iteration: POST the spec, follow the SSE stream to
// run-finished, fetch the results, and every reportEvery-th time the
// archived report. On a traced iteration it also reads the lifecycle
// records' server-side times and records spans and per-layer samples.
func (c *client) once(tr *tracer, op int) daemonRun {
	r := c.r
	c.runs[tr != nil]++
	var out daemonRun
	t0 := time.Now()
	root := tr.begin(0, "daemon.run", op)
	defer tr.end(root)

	resp, err := c.do("POST", "/v1/runs", bytes.NewReader(daemonSpecJSON))
	if !r.must(err, "daemon: submit") {
		return out
	}
	var rec service.RunRecord
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	t1 := time.Now()
	out.rejected = resp.StatusCode == http.StatusTooManyRequests
	r.check(resp.StatusCode == http.StatusAccepted && err == nil, "daemon: submit answered %d (%v), want 202", resp.StatusCode, err)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return out
	}

	// Follow the event stream. Only the records the client needs are
	// decoded, so the load generator stays cheap next to the daemon.
	resp, err = c.do("GET", "/v1/runs/"+rec.ID+"/events", nil)
	if !r.must(err, "daemon: events") {
		return out
	}
	var first, done time.Time
	var queued, started, lastJob, finished sseRecord
	var lastJobData []byte
	events := 0
	typ := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if t, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			typ = string(t)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		events++
		if events == 1 {
			first = time.Now()
		}
		switch typ {
		case "run-finished":
			done = time.Now()
			r.must(json.Unmarshal(data, &finished), "daemon: decode run-finished")
		case "run-queued":
			if tr != nil {
				r.must(json.Unmarshal(data, &queued), "daemon: decode run-queued")
			}
		case "run-started":
			if tr != nil {
				r.must(json.Unmarshal(data, &started), "daemon: decode run-started")
			}
		case "job-finished":
			if tr != nil {
				lastJobData = append(lastJobData[:0], data...)
			}
		}
	}
	resp.Body.Close()
	r.check(!done.IsZero() && finished.ArchiveRoot != "", "daemon: run %s ended without a run-finished record carrying archive_root", rec.ID)
	if done.IsZero() {
		return out
	}
	out.latency, out.finished, out.ok, out.dropped = done.Sub(t0), done, true, finished.Dropped

	t2 := time.Now()
	resp, err = c.do("GET", "/v1/runs/"+rec.ID+"/results", nil)
	if !r.must(err, "daemon: results") {
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t3 := time.Now()
	lines := bytes.Count(body, []byte("\n"))
	r.check(err == nil && resp.StatusCode == http.StatusOK && lines == rec.Jobs, "daemon: results answered %d with %d lines (%v), want %d", resp.StatusCode, lines, err, rec.Jobs)

	var t4 time.Time
	if c.runs[tr != nil]%r.sz.reportEvery == 0 && finished.ArchiveRoot != "" {
		resp, err = c.do("GET", "/v1/archive/"+finished.ArchiveRoot+"/report", nil)
		if !r.must(err, "daemon: archive report") {
			return out
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t4 = time.Now()
		r.check(err == nil && resp.StatusCode == http.StatusOK, "daemon: archive report answered %d (%v)", resp.StatusCode, err)
	}

	if tr == nil {
		return out
	}
	r.must(json.Unmarshal(lastJobData, &lastJob), "daemon: decode job-finished")
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	r.rec.add("service.submit_ms", ms(t1.Sub(t0)))
	r.rec.add("service.first_event_ms", ms(first.Sub(t0)))
	r.rec.add("service.queue_wait_ms", ms(started.Time.Sub(queued.Time)))
	r.rec.add("service.execute_ms", ms(lastJob.Time.Sub(started.Time)))
	r.rec.add("service.seal_ms", ms(finished.Time.Sub(lastJob.Time)))
	r.rec.add("service.sse_lag_us", done.Sub(finished.Time).Seconds()*1e6)
	r.rec.add("service.results_stream_ms", ms(t3.Sub(t2)))
	r.rec.add("service.events_per_run", float64(events))
	tr.add(root, "service.submit", op, t0, t1)
	tr.add(root, "service.queue", op, queued.Time, started.Time)
	tr.add(root, "core.runplan", op, started.Time, lastJob.Time)
	tr.add(root, "archive.seal", op, lastJob.Time, finished.Time)
	tr.add(root, "service.sse", op, finished.Time, done)
	tr.add(root, "service.results", op, t2, t3)
	if !t4.IsZero() {
		r.rec.add("service.archive_get_ms", ms(t4.Sub(t3)))
		tr.add(root, "archive.get", op, t3, t4)
	}
	return out
}

// runDaemon is the service workload: a closed loop of min(P, 2) clients,
// one per tenant, each submitting the same small spec run after run.
// Kernels are a few milliseconds of each run; HTTP, scheduling, the SSE
// bridge and the per-run seal are the rest.
func runDaemon(r *run) {
	clients := min(r.p, 2)
	var d *daemon
	var users []*client
	if !r.setUp(func() bool {
		if d != nil {
			r.must(d.stop(), "daemon: shutdown")
		}
		var err error
		d, err = r.bootDaemon()
		if !r.must(err, "daemon set-up: boot") {
			return false
		}
		users = users[:0]
		for k := 0; k < clients; k++ {
			users = append(users, &client{r: r, http: d.srv.Client(), base: d.srv.URL, key: tenantKeys[k], runs: make(map[bool]int)})
		}
		// Warm-up: datasets, reference outputs and connections.
		for _, u := range users {
			for k := 0; k < r.sz.daemonWarmup; k++ {
				u.once(nil, 0)
			}
		}
		return true
	}) {
		return
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()

	// The closed loop. Clients alternate traced and untraced iterations
	// on a traced run, like rounds do.
	var mu sync.Mutex
	var all []daemonRun
	var wg sync.WaitGroup
	start := time.Now()
	for k, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < r.sz.minRuns || time.Since(start).Seconds() < r.seconds; i++ {
				res := u.once(r.roundTracer(i), i*clients+k)
				mu.Lock()
				all = append(all, res)
				if res.ok {
					r.roundWall[r.tracing(i)] = append(r.roundWall[r.tracing(i)], res.latency.Seconds())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)

	completed, rejected, dropped := 0, 0.0, 0.0
	for _, res := range all {
		if res.rejected {
			rejected++
		}
		dropped += float64(res.dropped)
		if res.ok {
			completed++
			r.rec.add("run_p50_ms", res.latency.Seconds()*1e3)
			r.rec.add("op_p50_ms", res.latency.Seconds()*1e3)
		}
	}
	if completed == 0 {
		r.must(d.stop(), "daemon: shutdown")
		return
	}
	r.rec.add("runs_per_s", float64(completed)/window.Seconds())
	// work_per_s: completions per second in equal slices of the window,
	// so the throughput has a sample count and a spread like any other.
	buckets := max(int(math.Ceil(window.Seconds())), r.sz.minSamples)
	width := window.Seconds() / float64(buckets)
	counts := make([]float64, buckets)
	for _, res := range all {
		if res.ok {
			counts[min(int(res.finished.Sub(start).Seconds()/width), buckets-1)]++
		}
	}
	for _, n := range counts {
		r.rec.add("work_per_s", n/width)
	}
	latencies := slices.Clone(r.rec.get("run_p50_ms"))
	slices.Sort(latencies)
	r.rec.add("service.run_p95_ms", quantile(latencies, 0.95))
	r.rec.add("service.run_p99_ms", quantile(latencies, 0.99))

	d.srv.Client().CloseIdleConnections()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.rec.add("service.heap_kb_per_run", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/1024/float64(len(all)))
	r.rec.add("service.goroutines_delta", float64(runtime.NumGoroutine()-goroutines))
	r.rec.add("service.rejected_429", rejected)
	r.rec.add("service.events_dropped", dropped)

	// Offline verification of everything the daemon sealed.
	r.must(d.stop(), "daemon: shutdown")
	arch, err := archive.Open(d.archiveDir)
	if !r.must(err, "daemon: open archive") {
		return
	}
	t := time.Now()
	rep, err := arch.Verify()
	r.rec.add("archive.verify_ms", time.Since(t).Seconds()*1e3)
	if r.must(err, "daemon: archive verify") {
		r.check(rep.OK(), "daemon: archive verify found %d problems", len(rep.Problems))
		want := len(all) + clients*r.sz.daemonWarmup
		r.check(rep.Commits == want, "daemon: archive holds %d commits, want %d", rep.Commits, want)
	}
	fmt.Printf("daemon: %d clients, %d runs in %.2f s\n", clients, completed, window.Seconds())
}
