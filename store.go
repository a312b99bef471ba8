package graphalytics

import (
	"context"

	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/workload"
)

// The graph store is the harness's dataset materialization layer: per-key
// single-flight, an in-memory LRU bounded by a byte budget, and optional
// on-disk binary CSR snapshots keyed by dataset fingerprint, so warmed
// runs (and later processes) skip generator work entirely. Sessions use
// the process-wide store by default; WithCacheDir routes them through a
// snapshot-backed one.

// GraphStore caches materialized graphs; construct with NewGraphStore.
type GraphStore = graphstore.Store

// GraphStoreOptions configure a GraphStore: memory budget, snapshot
// directory, event sink.
type GraphStoreOptions = graphstore.Options

// GraphStoreEvent is a store-side notification (evictions, snapshot
// writes, corrupt snapshots).
type GraphStoreEvent = graphstore.Event

// GraphStoreResult reports how a store load materialized its graph.
type GraphStoreResult = graphstore.Result

// DatasetSource says where a dataset load found its graph.
type DatasetSource = graphstore.Source

// The dataset sources, as reported by EventDatasetMaterialized events and
// store results.
const (
	SourceMemory   = graphstore.SourceMemory
	SourceSnapshot = graphstore.SourceSnapshot
	SourceBuilt    = graphstore.SourceBuilt
)

// NewGraphStore returns an empty graph store.
func NewGraphStore(opts GraphStoreOptions) *GraphStore { return graphstore.New(opts) }

// WithCacheDir gives a session a dedicated store persisting binary CSR
// snapshots under dir, so repeated runs — including separate processes —
// load snapshots instead of re-generating datasets.
func WithCacheDir(dir string) Option { return core.WithCacheDir(dir) }

// WithMappedSnapshots makes the WithCacheDir store serve warm v2
// snapshots as mmap-backed graphs: open cost is O(header) and pages stay
// reclaimable by the OS, so sessions can run graphs larger than RAM.
// Engine outputs are identical to heap-resident runs.
func WithMappedSnapshots(on bool) Option { return core.WithMappedSnapshots(on) }

// LoadDatasetFrom materializes a catalog dataset through the given store.
func LoadDatasetFrom(s *GraphStore, id string) (*Graph, error) {
	return workload.LoadFrom(s, id)
}

// WarmCatalog materializes every catalog dataset through the store on a
// bounded worker pool — the programmatic face of the CLI's warm
// subcommand. onEach (optional) receives each dataset's outcome.
func WarmCatalog(ctx context.Context, s *GraphStore, parallel int, onEach func(id string, r GraphStoreResult, err error)) error {
	return workload.Warm(ctx, s, parallel, onEach)
}

// WarmDatasets is WarmCatalog over an explicit dataset-ID list. It is
// the way to materialize out-of-core XL datasets (e.g. "XL22"), which
// the catalog sweep skips: with a snapshot directory they stream through
// the spill-to-disk builder and never hold their edge list in memory.
func WarmDatasets(ctx context.Context, s *GraphStore, parallel int, ids []string, onEach func(id string, r GraphStoreResult, err error)) error {
	return workload.WarmIDs(ctx, s, parallel, ids, onEach)
}

// ErrBadSnapshot wraps every snapshot decode failure caused by the bytes
// themselves; stores treat it as a cache miss.
var ErrBadSnapshot = graph.ErrBadSnapshot

// SaveGraphSnapshot writes g to path in the versioned binary CSR snapshot
// format (atomically: temp file + rename).
func SaveGraphSnapshot(path string, g *Graph) error { return graph.WriteSnapshotFile(path, g) }

// LoadGraphSnapshot reads a graph written by SaveGraphSnapshot.
func LoadGraphSnapshot(path string) (*Graph, error) { return graph.ReadSnapshotFile(path) }

// MapGraphSnapshot opens a snapshot as an mmap-backed graph: the
// header is validated eagerly, the CSR arrays are served zero-copy from
// the page cache, and open cost is O(header) regardless of graph size.
// Release the graph with Close when done. Where the file cannot be
// mapped (off Linux/macOS), it is read onto the heap as by
// LoadGraphSnapshot.
func MapGraphSnapshot(path string) (*Graph, error) { return graph.MapSnapshotFile(path) }
