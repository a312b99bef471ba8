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
// order — including across a parallel run of jobs that each upload on
// their own, whose batch session shares the parent's counter.
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
	if _, err := s.RunPlan(context.Background(), perJobPlan(specs)); err != nil {
		t.Fatalf("RunPlan: %v", err)
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
// events but not the run: the job completes and the events after the
// panic still reach the observer.
func TestObserverPanicRecovered(t *testing.T) {
	var mu sync.Mutex
	var healthy int
	obs := core.ObserverFunc(func(e core.Event) {
		if e.Type == core.EventJobStarted {
			panic("observer bug")
		}
		mu.Lock()
		healthy++
		mu.Unlock()
	})
	s := core.NewSession(
		core.WithObserver(obs),
		core.WithValidation(false),
	)
	res, err := runJob(context.Background(), s, core.JobSpec{
		Platform: "native", Dataset: "R1", Algorithm: "BFS", Threads: 2, Machines: 1,
	})
	if err != nil {
		t.Fatalf("RunPlan: %v", err)
	}
	if res.Status != core.StatusOK {
		t.Fatalf("status = %s, want ok", res.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if healthy == 0 {
		t.Fatal("observer received no events after its panic")
	}
}
