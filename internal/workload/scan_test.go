package workload_test

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/metrics"
	"graphalytics/internal/workload"
)

// scanLoader records the class scan's loads: which started, how many ran
// at once, and whether any started after the scan returned. Loads come
// from the default store, so the catalog is built once per test binary.
type scanLoader struct {
	t *testing.T
	// hold keeps each of the first hold loads running until hold loads
	// are in flight together (or a timeout fails the test).
	hold int
	// fail maps a catalog index to the error its load returns. When
	// delay is one of them, that load returns only after the other
	// failing load has.
	fail     map[int]error
	delay    int
	released chan struct{}

	mu       sync.Mutex
	inFlight int
	peak     int
	started  []int
	full     chan struct{}
	returned bool
}

func newScanLoader(t *testing.T, hold int) *scanLoader {
	return &scanLoader{t: t, hold: hold, full: make(chan struct{}), delay: -1, released: make(chan struct{})}
}

// index is d's position in Catalog().
func index(d workload.Dataset) int {
	return slices.IndexFunc(workload.Catalog(), func(c workload.Dataset) bool { return c.ID == d.ID })
}

func (l *scanLoader) load(d workload.Dataset) (*graph.Graph, error) {
	i := index(d)
	l.mu.Lock()
	if l.returned {
		l.t.Errorf("load of %s started after the scan returned", d.ID)
	}
	l.inFlight++
	l.peak = max(l.peak, l.inFlight)
	l.started = append(l.started, i)
	first := len(l.started) <= l.hold
	if l.inFlight == l.hold && first {
		close(l.full)
	}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.inFlight--
		l.mu.Unlock()
	}()
	if first && l.hold > 1 {
		select {
		case <-l.full:
		case <-time.After(10 * time.Second):
			l.t.Errorf("load of %s: %d loads never ran at once", d.ID, l.hold)
		}
	}
	if err, ok := l.fail[i]; ok {
		switch {
		case i == l.delay:
			select {
			case <-l.released:
			case <-time.After(10 * time.Second):
				l.t.Errorf("load of %s: the other failure never happened", d.ID)
			}
		case l.delay >= 0:
			close(l.released)
		}
		return nil, err
	}
	return workload.Load(d.ID)
}

// scan runs UpToClassWith through l and checks that no load is still
// running when it returns.
func (l *scanLoader) scan(max metrics.Class, workers int) ([]workload.Dataset, error) {
	out, err := workload.UpToClassWith(l.load, max, workers)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.returned = true
	if l.inFlight != 0 {
		l.t.Errorf("%d loads still running when the scan returned", l.inFlight)
	}
	return out, err
}

// sequentialUpToClass is the reference scan: every catalog dataset in
// turn, then a stable sort by scale.
func sequentialUpToClass(t *testing.T, max metrics.Class) []string {
	t.Helper()
	type scored struct {
		id string
		s  float64
	}
	var keep []scored
	for _, d := range workload.Catalog() {
		g, err := workload.Load(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		if metrics.ClassOrder(workload.Class(g)) <= metrics.ClassOrder(max) {
			keep = append(keep, scored{d.ID, workload.Scale(g)})
		}
	}
	slices.SortStableFunc(keep, func(a, b scored) int { return cmp.Compare(a.s, b.s) })
	ids := make([]string, len(keep))
	for i, k := range keep {
		ids[i] = k.id
	}
	return ids
}

func ids(ds []workload.Dataset) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	return out
}

// TestUpToClassScanLoadsConcurrently checks the scan's bound: with
// workers < 1 it runs min(GOMAXPROCS, catalog) loads at once, so at
// GOMAXPROCS ≥ 2 at least two are in flight together.
func TestUpToClassScanLoadsConcurrently(t *testing.T) {
	want := min(runtime.GOMAXPROCS(0), len(workload.Catalog()))
	l := newScanLoader(t, want)
	if _, err := l.scan(metrics.ClassL, 0); err != nil {
		t.Fatal(err)
	}
	if l.peak != want {
		t.Errorf("%d loads ran at once, want %d (GOMAXPROCS %d)", l.peak, want, runtime.GOMAXPROCS(0))
	}
	if len(l.started) != len(workload.Catalog()) {
		t.Errorf("scan loaded %d datasets, want the whole catalog (%d)", len(l.started), len(workload.Catalog()))
	}
}

// TestUpToClassScanMatchesSequential checks that the concurrent scan
// selects the datasets of a sequential scan, in its order, for every
// class and worker count.
func TestUpToClassScanMatchesSequential(t *testing.T) {
	classes := []metrics.Class{metrics.Class2XS, metrics.ClassXS, metrics.ClassS, metrics.ClassM,
		metrics.ClassL, metrics.ClassXL, metrics.Class2XL}
	for _, c := range classes {
		want := sequentialUpToClass(t, c)
		for _, workers := range []int{1, 2, 4, 0} {
			got, err := newScanLoader(t, 0).scan(c, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids(got), want) {
				t.Errorf("class %s, %d workers: scan selected %v, want %v", c, workers, ids(got), want)
			}
		}
	}
}

// TestUpToClassScanReturnsEarliestFailure fails loads at two catalog
// positions, the later one first: the scan must return the earlier
// one's error, as a sequential scan would, after every dataset before it
// has loaded.
func TestUpToClassScanReturnsEarliestFailure(t *testing.T) {
	early, late := 3, 9
	errEarly, errLate := errors.New("early load failed"), errors.New("late load failed")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			l := newScanLoader(t, 0)
			l.fail = map[int]error{early: errEarly, late: errLate}
			if workers > 1 {
				l.delay = early
			}
			_, err := l.scan(metrics.Class2XL, workers)
			if !errors.Is(err, errEarly) {
				t.Fatalf("scan returned %v, want the earlier failure %v", err, errEarly)
			}
			for i := range early {
				if !slices.Contains(l.started, i) {
					t.Errorf("dataset %d, before the failure, never loaded", i)
				}
			}
			if workers == 1 && len(l.started) != early+1 {
				t.Errorf("one worker started %d loads, want %d: none after the failure", len(l.started), early+1)
			}
		})
	}
}

// TestUpToClassScanStartsNothingAfterReturn fails the first load once a
// load of every catalog dataset is in flight: the scan must wait for all
// of them before it returns its error, and no load may start afterwards
// (the loader reports one that does, also after the test has ended).
func TestUpToClassScanStartsNothingAfterReturn(t *testing.T) {
	n := len(workload.Catalog())
	l := newScanLoader(t, n)
	l.fail = map[int]error{0: errors.New("first load failed")}
	if _, err := l.scan(metrics.Class2XL, n); err == nil {
		t.Fatal("scan with a failing load returned no error")
	}
	if len(l.started) != n {
		t.Errorf("%d loads started, want %d", len(l.started), n)
	}
}
