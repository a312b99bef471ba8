// Package graphstore is the harness's dataset store: the one place every
// graph consumer goes through to materialize a dataset. It layers three
// mechanisms the reference Graphalytics harness also relies on (converted
// graphs cached on disk per format; see the benchmark's architecture):
//
//   - per-key single-flight, so concurrent jobs on the same dataset share
//     one materialization while jobs on different datasets proceed in
//     parallel;
//   - an in-memory LRU bounded by a byte budget (graph MemoryFootprint),
//     so long sweeps over large catalogs do not accumulate every graph;
//   - an optional on-disk snapshot directory keyed by dataset fingerprint,
//     so a process restart loads binary CSR snapshots instead of
//     re-running generators. Corrupt or stale snapshots are treated as
//     cache misses: the store regenerates and rewrites them.
package graphstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"graphalytics/internal/graph"
)

// Source says where a Load found its graph.
type Source string

const (
	// SourceMemory: the graph was already resident (or another in-flight
	// load materialized it while we waited).
	SourceMemory Source = "memory"
	// SourceSnapshot: decoded from an on-disk binary snapshot.
	SourceSnapshot Source = "snapshot"
	// SourceBuilt: produced by running the materializer (generator or
	// file parse) — a cold build.
	SourceBuilt Source = "built"
)

// EventType names a store event.
type EventType string

const (
	// EventEvict: an entry left the in-memory LRU to respect the budget.
	EventEvict EventType = "evict"
	// EventSnapshotWrite: a fresh build was persisted to the snapshot dir.
	EventSnapshotWrite EventType = "snapshot-write"
	// EventSnapshotCorrupt: an on-disk snapshot failed to read or decode
	// and will be rebuilt from scratch.
	EventSnapshotCorrupt EventType = "snapshot-corrupt"
	// EventSnapshotWriteFailed: persisting a fresh build failed (full or
	// read-only disk); the graph is still served, but the next process
	// will regenerate it.
	EventSnapshotWriteFailed EventType = "snapshot-write-failed"
)

// Event is one store-side notification (evictions and snapshot traffic).
// Per-load outcomes are returned synchronously as Result instead.
type Event struct {
	Type  EventType
	Key   string
	Bytes int64
	Err   error // the decode or write error on corrupt/write-failed events
}

// Options configure a Store.
type Options struct {
	// MemoryBudget bounds the resident set in bytes (graph
	// MemoryFootprint); zero or negative means unbounded. The budget is
	// soft by one entry: the graph being returned is never evicted by its
	// own arrival.
	MemoryBudget int64
	// Dir, when non-empty, enables on-disk snapshots under this
	// directory (created on demand).
	Dir string
	// MapSnapshots serves v2 snapshots as mmap-backed graphs
	// (graph.MapSnapshotFile) instead of reading them onto the heap: open
	// cost is O(header) and resident cost is page-cache pages the OS can
	// reclaim. Where a snapshot cannot be mapped (platforms without
	// mmap) MapSnapshotFile itself serves the verified heap read. Snapshot
	// files in Dir are written by this store with fsync+rename, which is
	// why the mmap fast path may skip payload checksums.
	MapSnapshots bool
	// MappedBudget bounds the mapped resident set in bytes, accounted
	// separately from MemoryBudget: mapped pages are reclaimable by the
	// OS under pressure, heap bytes are not. Zero or negative means
	// unbounded.
	MappedBudget int64
	// OnEvent, when non-nil, receives eviction and snapshot events. It
	// may be called from any goroutine and must not call back into the
	// store.
	OnEvent func(Event)
}

// Result reports how a Load materialized its graph.
type Result struct {
	Graph *graph.Graph
	// Source is where the graph came from for this call; waiters that
	// joined an in-flight materialization report SourceMemory, so every
	// build or snapshot load is attributed to exactly one Result.
	Source Source
	// Elapsed is this call's wall time, including any wait on an
	// in-flight materialization.
	Elapsed time.Duration
	// Bytes is the graph's real CSR footprint (graph.SizeBytes).
	Bytes int64
	// MappedBytes is the size of the mmap region backing the graph, 0 for
	// heap-resident graphs. Mapped graphs cost page cache, not heap.
	MappedBytes int64
}

// Materializer produces a graph on a cache miss.
type Materializer func() (*graph.Graph, error)

// Store caches materialized graphs. It is safe for concurrent use; the
// zero value is not usable, construct with New.
type Store struct {
	opts Options

	mu         sync.Mutex
	entries    map[string]*entry
	lru        *list.List // front = most recently used; holds *entry, done only
	usedHeap   int64
	usedMapped int64
}

// entry is one key's slot: at most one exists per key, and whoever creates
// it runs the materialization while everyone else waits on ready.
type entry struct {
	key    string
	ready  chan struct{}
	g      *graph.Graph
	err    error
	source Source
	bytes  int64 // graph.SizeBytes: the real CSR footprint
	// heapBytes/mappedBytes split bytes by residency: exactly one is
	// non-zero. release drops the store's reference on a mapped graph's
	// mmap region at eviction; the munmap happens once every engine
	// holding the *Graph is done with it too.
	heapBytes   int64
	mappedBytes int64
	release     func()
	elem        *list.Element // non-nil while resident in the LRU
}

// New returns an empty store.
func New(opts Options) *Store {
	return &Store{
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
}

// Load returns the graph for key, materializing it at most once per
// concurrent flight: callers for the same key share one build, callers for
// different keys run independently. See Get for the detailed result.
func (s *Store) Load(key string, build Materializer) (*graph.Graph, error) {
	r, err := s.Get(key, build)
	return r.Graph, err
}

// Get is Load returning the materialization details. On a miss it tries
// the snapshot directory first, then runs build; fresh builds are written
// back as snapshots. A failed materialization is not cached — the next Get
// retries.
func (s *Store) Get(key string, build Materializer) (Result, error) {
	return s.getWith(key, func() (*graph.Graph, Source, error) {
		return s.materialize(key, build)
	})
}

// GetStreamed is Get for out-of-core datasets: on a cold miss, buildTo
// streams the graph directly into the snapshot file at the given path
// (e.g. graph.Builder.BuildTo) and the store then opens that file —
// mmap-backed when MapSnapshots is set — so the full graph never has to
// exist on the heap. Requires a snapshot directory.
func (s *Store) GetStreamed(key string, buildTo func(path string) error) (Result, error) {
	return s.getWith(key, func() (*graph.Graph, Source, error) {
		return s.materializeStreamed(key, buildTo)
	})
}

func (s *Store) getWith(key string, mat func() (*graph.Graph, Source, error)) (Result, error) {
	start := time.Now()
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		select {
		case <-e.ready:
			// Done: either resident or (if errored concurrently with our
			// lookup) already removed from the map; e still carries the
			// outcome.
			if e.err == nil {
				s.touchLocked(e)
			}
			s.mu.Unlock()
			if e.err != nil {
				return Result{Elapsed: time.Since(start)}, e.err
			}
			return Result{Graph: e.g, Source: SourceMemory, Elapsed: time.Since(start), Bytes: e.bytes}, nil
		default:
			// In flight: wait outside the lock. Waiters report
			// SourceMemory — the materialization work belongs to the one
			// flight that did it, not to the N-1 loads that joined it —
			// with Elapsed covering the wait.
			s.mu.Unlock()
			<-e.ready
			if e.err != nil {
				return Result{Elapsed: time.Since(start)}, e.err
			}
			return Result{Graph: e.g, Source: SourceMemory, Elapsed: time.Since(start), Bytes: e.bytes, MappedBytes: e.mappedBytes}, nil
		}
	}
	e := &entry{key: key, ready: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	e.g, e.source, e.err = mat()
	if e.err == nil {
		e.bytes = e.g.SizeBytes()
		if e.g.Mapped() {
			// Charge the mapping, not the heap, and pin it so eviction
			// can never unmap memory an engine still reaches through the
			// returned *Graph.
			e.mappedBytes = e.g.MappedBytes()
			e.release = e.g.Retain()
		} else {
			e.heapBytes = e.bytes
		}
	}

	s.mu.Lock()
	if e.err != nil {
		delete(s.entries, key) // do not cache failures
	} else {
		s.usedHeap += e.heapBytes
		s.usedMapped += e.mappedBytes
		e.elem = s.lru.PushFront(e)
		s.evictLocked(e)
	}
	s.mu.Unlock()
	close(e.ready)

	if e.err != nil {
		return Result{Elapsed: time.Since(start)}, e.err
	}
	return Result{Graph: e.g, Source: e.source, Elapsed: time.Since(start), Bytes: e.bytes, MappedBytes: e.mappedBytes}, nil
}

// materialize resolves a miss: snapshot first (when configured), then the
// builder, writing the snapshot back after a cold build.
func (s *Store) materialize(key string, build Materializer) (*graph.Graph, Source, error) {
	if s.opts.Dir != "" {
		path := s.snapshotPath(key)
		g, err := s.openSnapshot(path)
		switch {
		case err == nil:
			return g, SourceSnapshot, nil
		case errors.Is(err, fs.ErrNotExist):
			// Cold: fall through to the builder.
		default:
			// Corrupt, truncated, stale or unreadable snapshot:
			// regenerate and rewrite below.
			s.emit(Event{Type: EventSnapshotCorrupt, Key: key, Err: err})
		}
	}
	g, err := build()
	if err != nil {
		return nil, "", fmt.Errorf("graphstore: materialize %s: %w", key, err)
	}
	if s.opts.Dir != "" {
		if err := s.writeSnapshot(key, g); err != nil {
			// Snapshot persistence is best-effort: the graph is valid, so
			// a full disk or read-only dir must not fail the load.
			s.emit(Event{Type: EventSnapshotWriteFailed, Key: key, Err: err})
		} else {
			s.emit(Event{Type: EventSnapshotWrite, Key: key, Bytes: g.SizeBytes()})
		}
	}
	return g, SourceBuilt, nil
}

// materializeStreamed resolves a miss for an out-of-core dataset: the
// builder writes the snapshot file itself (never holding the graph in
// memory) and the store opens the result.
func (s *Store) materializeStreamed(key string, buildTo func(path string) error) (*graph.Graph, Source, error) {
	if s.opts.Dir == "" {
		return nil, "", fmt.Errorf("graphstore: streamed materialization of %s requires a snapshot directory", key)
	}
	path := s.snapshotPath(key)
	g, err := s.openSnapshot(path)
	switch {
	case err == nil:
		return g, SourceSnapshot, nil
	case errors.Is(err, fs.ErrNotExist):
		// Cold: stream-build below.
	default:
		s.emit(Event{Type: EventSnapshotCorrupt, Key: key, Err: err})
	}
	if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("graphstore: materialize %s: %w", key, err)
	}
	if err := buildTo(path); err != nil {
		return nil, "", fmt.Errorf("graphstore: materialize %s: %w", key, err)
	}
	if g, err = s.openSnapshot(path); err != nil {
		return nil, "", fmt.Errorf("graphstore: reopen streamed snapshot %s: %w", key, err)
	}
	s.emit(Event{Type: EventSnapshotWrite, Key: key, Bytes: g.SizeBytes()})
	return g, SourceBuilt, nil
}

// openSnapshot opens a snapshot file, mmap-backed when configured. Both
// readers run the same parser, so their verdict is final: ErrBadSnapshot
// for corruption or an outdated format version, which the caller answers
// by regenerating.
func (s *Store) openSnapshot(path string) (*graph.Graph, error) {
	if s.opts.MapSnapshots {
		return graph.MapSnapshotFile(path)
	}
	return graph.ReadSnapshotFile(path)
}

func (s *Store) writeSnapshot(key string, g *graph.Graph) error {
	if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return err
	}
	return graph.WriteSnapshotFile(s.snapshotPath(key), g)
}

// touchLocked marks e most recently used.
func (s *Store) touchLocked(e *entry) {
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
}

// evictLocked drops least-recently-used entries until the resident set
// fits both budgets — heap and mapped bytes are accounted (and bounded)
// separately — never evicting keep (the entry being returned).
func (s *Store) evictLocked(keep *entry) {
	over := func() bool {
		if s.opts.MemoryBudget > 0 && s.usedHeap > s.opts.MemoryBudget {
			return true
		}
		return s.opts.MappedBudget > 0 && s.usedMapped > s.opts.MappedBudget
	}
	for over() && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*entry)
		if victim == keep {
			// keep is the oldest resident entry; nothing else to shed.
			return
		}
		s.dropLocked(victim)
		s.emit(Event{Type: EventEvict, Key: victim.key, Bytes: victim.bytes})
	}
}

// dropLocked removes a resident entry and releases the store's reference
// on its mapping (the munmap itself waits for every engine still holding
// the *Graph).
func (s *Store) dropLocked(victim *entry) {
	s.lru.Remove(victim.elem)
	victim.elem = nil
	delete(s.entries, victim.key)
	s.usedHeap -= victim.heapBytes
	s.usedMapped -= victim.mappedBytes
	if victim.release != nil {
		victim.release()
		victim.release = nil
	}
}

// Evict removes key from the in-memory cache (snapshots stay on disk).
// It reports whether a resident entry was dropped; an in-flight key is
// left alone.
func (s *Store) Evict(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.elem == nil {
		return false
	}
	select {
	case <-e.ready:
	default:
		return false
	}
	s.dropLocked(e)
	return true
}

// Len returns the number of resident graphs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes returns the resident set size in graph-footprint bytes, heap and
// mapped combined.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedHeap + s.usedMapped
}

// HeapBytes returns the heap-resident portion of the set.
func (s *Store) HeapBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedHeap
}

// MappedBytes returns the mmap-resident portion of the set: bytes the OS
// can reclaim under pressure, unlike heap bytes.
func (s *Store) MappedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedMapped
}

// Dir returns the snapshot directory ("" when snapshots are disabled).
func (s *Store) Dir() string { return s.opts.Dir }

// SnapshotPath returns where key's snapshot lives on disk, or "" when
// snapshots are disabled.
func (s *Store) SnapshotPath(key string) string {
	if s.opts.Dir == "" {
		return ""
	}
	return s.snapshotPath(key)
}

func (s *Store) snapshotPath(key string) string {
	return filepath.Join(s.opts.Dir, sanitizeKey(key)+".gsnap")
}

func (s *Store) emit(e Event) {
	if s.opts.OnEvent != nil {
		s.opts.OnEvent(e)
	}
}

// sanitizeKey maps an arbitrary fingerprint to a stable, readable, unique
// file stem: safe characters pass through, the rest are replaced, and a
// short content hash disambiguates keys that sanitize identically.
func sanitizeKey(key string) string {
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	sum := sha256.Sum256([]byte(key))
	return b.String() + "-" + hex.EncodeToString(sum[:4])
}
