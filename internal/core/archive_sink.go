package core

import (
	"fmt"
	"sync"
)

// ResultsArchiver seals a completed batch of results into a durable,
// content-addressed commit and returns its identity (the commit ID —
// the hash sealing the batch's Merkle root into the archive chain).
// internal/archive implements it; core stays free of the archive's
// storage details.
type ResultsArchiver interface {
	ArchiveResults(name string, spec *BenchSpec, results []JobResult) (root string, err error)
}

// ArchiveSink buffers a run's results in commit order and seals them
// into the archive as one batch when the run finishes.
//
// Consume only buffers; nothing is written until Commit, which callers
// make once the run has returned, so the delivery order among sinks
// cannot be observed in the archive, and a canceled or crashed run
// leaves no partial commit behind.
type ArchiveSink struct {
	archiver ResultsArchiver
	name     string
	spec     *BenchSpec

	mu      sync.Mutex
	results []JobResult
	root    string
}

// NewArchiveSink returns a sink that seals results into archiver under
// the given batch name; spec (may be nil) is archived alongside them.
func NewArchiveSink(archiver ResultsArchiver, name string, spec *BenchSpec) *ArchiveSink {
	return &ArchiveSink{archiver: archiver, name: name, spec: spec}
}

// Consume implements Sink by buffering the result.
func (k *ArchiveSink) Consume(r JobResult) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.results = append(k.results, r)
	return nil
}

// Len returns the number of buffered results.
func (k *ArchiveSink) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.results)
}

// Commit seals the buffered results into the archive and returns the
// commit ID. Call it once, after the run completes; an empty run seals
// an empty (but still verifiable) batch.
func (k *ArchiveSink) Commit() (string, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.root != "" {
		return k.root, nil
	}
	root, err := k.archiver.ArchiveResults(k.name, k.spec, k.results)
	if err != nil {
		return "", fmt.Errorf("core: archive sink: %w", err)
	}
	k.root = root
	return root, nil
}

// Root returns the commit ID from a previous Commit ("" before).
func (k *ArchiveSink) Root() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.root
}
