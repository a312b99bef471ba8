package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/core"
)

// TestEventSequenceStamping checks the emit contract: every event a
// session delivers carries a wall-clock timestamp and a gap-free,
// monotonically increasing sequence number starting at 1, in delivery
// order — including across a parallel RunAll batch, whose batch session
// shares the parent's counter.
func TestEventSequenceStamping(t *testing.T) {
	var mu sync.Mutex
	var seqs []uint64
	var times []time.Time
	obs := core.ObserverFunc(func(e core.Event) {
		mu.Lock()
		defer mu.Unlock()
		seqs = append(seqs, e.Seq)
		times = append(times, e.Time)
	})
	s := core.NewSession(core.WithObserver(obs), core.WithValidation(false), core.WithParallelism(4))
	specs := []core.JobSpec{
		{Platform: "native", Dataset: "R1", Algorithm: "BFS", Threads: 2, Machines: 1},
		{Platform: "native", Dataset: "R1", Algorithm: "WCC", Threads: 2, Machines: 1},
		{Platform: "native", Dataset: "R1", Algorithm: "PR", Threads: 2, Machines: 1},
	}
	if _, err := s.RunAll(context.Background(), specs); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) == 0 {
		t.Fatal("no events delivered")
	}
	for i, seq := range seqs {
		if want := uint64(i + 1); seq != want {
			t.Fatalf("event %d: Seq = %d, want %d (gap-free delivery order)", i, seq, want)
		}
		if times[i].IsZero() {
			t.Fatalf("event %d: zero timestamp", i)
		}
		if i > 0 && times[i].Before(times[i-1]) {
			t.Fatalf("event %d: timestamp %v before predecessor %v", i, times[i], times[i-1])
		}
	}
}

// TestObserverPanicRecovered checks that a panicking observer loses
// events but not the run: the batch completes and later events still
// reach a healthy co-observer via MultiObserver.
func TestObserverPanicRecovered(t *testing.T) {
	var mu sync.Mutex
	var healthy int
	bad := core.ObserverFunc(func(core.Event) { panic("observer bug") })
	good := core.ObserverFunc(func(core.Event) {
		mu.Lock()
		healthy++
		mu.Unlock()
	})
	s := core.NewSession(
		core.WithObserver(core.MultiObserver(bad, good)),
		core.WithValidation(false),
	)
	res, err := s.RunJob(context.Background(), core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: "BFS", Threads: 2, Machines: 1,
	})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if res.Status != core.StatusOK {
		t.Fatalf("status = %s, want ok", res.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if healthy == 0 {
		t.Fatal("healthy co-observer received no events despite panicking sibling")
	}
}
