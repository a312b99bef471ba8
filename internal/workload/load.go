package workload

import (
	"context"
	"fmt"
	"sync"

	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
)

// Dataset materialization goes through a graphstore.Store: per-fingerprint
// single-flight (concurrent jobs on different datasets generate in
// parallel — the old package cache held one mutex across generation and
// serialized them), an in-memory resident set, and optional on-disk CSR
// snapshots when the store is configured with a directory.

// defaultStore memoizes every generated graph in memory with no byte
// budget and no snapshot directory — the behavior the package always had,
// now concurrency-friendly.
var (
	defaultStoreOnce sync.Once
	defaultStoreVal  *graphstore.Store
)

// DefaultStore returns the process-wide store behind Load.
func DefaultStore() *graphstore.Store {
	defaultStoreOnce.Do(func() {
		defaultStoreVal = graphstore.New(graphstore.Options{})
	})
	return defaultStoreVal
}

// Load generates (or returns the cached) graph for a dataset ID using the
// default store.
func Load(id string) (*graph.Graph, error) {
	return LoadFrom(DefaultStore(), id)
}

// LoadFrom materializes a dataset through the given store, keyed by the
// dataset's fingerprint.
func LoadFrom(s *graphstore.Store, id string) (*graph.Graph, error) {
	r, err := GetFrom(s, id)
	return r.Graph, err
}

// GetFrom is LoadFrom returning the store's materialization details
// (source, elapsed time, footprint). Datasets with a Stream feed and a
// snapshot-backed store materialize out-of-core: edges spill to bounded
// disk runs and merge straight into the on-disk snapshot (Builder.BuildTo),
// so the full edge list never exists on the heap. Everything else goes
// through the in-memory generator.
func GetFrom(s *graphstore.Store, id string) (graphstore.Result, error) {
	d, err := ByID(id)
	if err != nil {
		return graphstore.Result{}, err
	}
	if d.Stream != nil && s.Dir() != "" {
		return s.GetStreamed(d.Fingerprint(), func(path string) error {
			b := graph.NewBuilder(d.Directed, d.Weighted)
			b.SetSpill(graph.SpillOptions{})
			if err := d.Stream(b); err != nil {
				return fmt.Errorf("workload: stream %s: %w", d.ID, err)
			}
			return b.BuildTo(path)
		})
	}
	return s.Get(d.Fingerprint(), func() (*graph.Graph, error) {
		g, err := d.Generate()
		if err != nil {
			return nil, fmt.Errorf("workload: generate %s: %w", d.ID, err)
		}
		return g, nil
	})
}

// Warm materializes every catalog dataset through the store on a bounded
// worker pool, reporting each outcome to onEach (which may be nil; calls
// are serialized). A canceled context stops scheduling new datasets;
// in-flight materializations finish, since other loads may join them.
// After the pool drains, the error of the earliest failing dataset in
// catalog order is returned, or else any context error.
func Warm(ctx context.Context, s *graphstore.Store, parallel int, onEach func(id string, r graphstore.Result, err error)) error {
	ids := make([]string, 0, len(Catalog()))
	for _, d := range Catalog() {
		ids = append(ids, d.ID)
	}
	return WarmIDs(ctx, s, parallel, ids, onEach)
}

// WarmIDs is Warm over an explicit dataset list — the only way to warm
// out-of-core XL datasets, which Catalog (and therefore Warm) excludes.
// Each dataset's error keeps its list slot, so the error returned is the
// earliest failing dataset's in list order, whatever order the workers
// finished in.
func WarmIDs(ctx context.Context, s *graphstore.Store, parallel int, datasets []string, onEach func(id string, r graphstore.Result, err error)) error {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(datasets) {
		parallel = len(datasets)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes onEach
		errs = make([]error, len(datasets))
	)
	next := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				id := datasets[i]
				r, err := GetFrom(s, id)
				if err != nil {
					errs[i] = fmt.Errorf("workload: warm %s: %w", id, err)
				}
				if onEach != nil {
					mu.Lock()
					onEach(id, r, err)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range datasets {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
