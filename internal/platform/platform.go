// Package platform defines the driver API through which the Graphalytics
// harness talks to a graph-analysis platform (component 10 of the
// architecture in Figure 1 of the paper).
//
// A driver is instructed by the harness to upload graphs to the system
// under test (including any pre-processing into a platform-specific
// format), to execute an algorithm with a specific set of parameters on an
// uploaded graph, and to return the output for validation. Every platform
// also produces a Granula performance archive per job, from which the
// harness derives fine-grained metrics such as processing time.
package platform

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
)

// RunConfig selects the resources for a job: the system under test.
type RunConfig struct {
	// Threads is the number of worker threads per machine; zero means 1.
	Threads int
	// Machines is the number of simulated machines; zero means 1.
	// Non-distributed platforms reject Machines > 1.
	Machines int
	// MemoryPerMachine is the per-machine memory budget in bytes for the
	// engine's data structures; zero means unlimited.
	MemoryPerMachine int64
	// Net is the interconnect model for distributed runs.
	Net cluster.NetworkModel
}

// ClusterConfig converts the run configuration into a simulated deployment
// configuration.
func (c RunConfig) ClusterConfig() cluster.Config {
	return cluster.Config{
		Machines:         c.Machines,
		Threads:          c.Threads,
		MemoryPerMachine: c.MemoryPerMachine,
		Net:              c.Net,
	}.Normalize()
}

// Result is what a platform returns for one executed job.
type Result struct {
	// Output holds the per-vertex algorithm results for validation.
	Output *algorithms.Output
	// Archive is the Granula performance archive of the job.
	Archive *granula.Archive
	// ProcessingTime is Tproc: the time required to execute the actual
	// algorithm, excluding platform overhead such as resource allocation
	// or graph loading. For distributed runs it is the simulated parallel
	// time (measured compute plus modeled network).
	ProcessingTime time.Duration
	// Makespan is the duration of the whole Execute call.
	Makespan time.Duration
	// NetworkTime is the modeled network component of ProcessingTime.
	NetworkTime time.Duration
	// Rounds is the number of synchronization rounds (supersteps,
	// iterations) the engine ran.
	Rounds int
	// PeakMemory is the highest per-machine engine memory registration.
	PeakMemory int64
}

// Uploaded is a graph that has been converted into a platform's internal
// format, ready for repeated algorithm executions.
type Uploaded interface {
	// Graph returns the original uploaded graph.
	Graph() *graph.Graph
	// Cluster returns the simulated deployment holding the graph.
	Cluster() *cluster.Cluster
	// Free releases the platform's resources for this graph.
	Free()
}

// Platform is the driver interface implemented by every graph-analysis
// engine in this repository.
type Platform interface {
	// Name returns the unique platform name, e.g. "pregel".
	Name() string
	// Description is a one-line description shown in reports.
	Description() string
	// Distributed reports whether the platform can use more than one
	// machine.
	Distributed() bool
	// Supports reports whether the platform implements the algorithm
	// (mirroring the paper: e.g. the push-pull engine has no LCC).
	Supports(a algorithms.Algorithm) bool
	// UploadContext pre-processes the graph into the platform's format.
	// It is gated by ctx, which carries the job's SLA deadline: once ctx
	// ends it returns a wrapped context error, without leaking resources.
	UploadContext(ctx context.Context, g *graph.Graph, cfg RunConfig) (Uploaded, error)
	// Upload is UploadContext under a context that never ends.
	Upload(g *graph.Graph, cfg RunConfig) (Uploaded, error)
	// Execute runs one algorithm job on an uploaded graph. The context
	// carries the SLA deadline; engines must abandon work once it is
	// cancelled.
	Execute(ctx context.Context, up Uploaded, a algorithms.Algorithm, p algorithms.Params) (*Result, error)
}

// ErrNotDistributed is returned when a single-machine platform is asked to
// run on multiple machines.
var ErrNotDistributed = fmt.Errorf("platform: not a distributed platform")

// ErrUnsupported is returned when a platform does not implement the
// requested algorithm.
var ErrUnsupported = fmt.Errorf("platform: algorithm not supported")

// BaseUpload is the embedding every Uploaded implementation shares: the
// graph, its simulated deployment, the per-machine bytes registered
// against the deployment for the life of the upload, and the engine's
// scratch pool its jobs check their arenas out of. Engines driven by New
// leave its fields to the driver.
type BaseUpload struct {
	G  *graph.Graph
	Cl *cluster.Cluster
	// bytes[m] is what Free releases on machine m.
	bytes []int64
	// pool is the engine's, shared by all of its uploads; nil (an upload
	// built without a driver) pools nothing.
	pool *mplane.Pool
}

func (b *BaseUpload) base() *BaseUpload { return b }

// Graph returns the uploaded graph.
func (b *BaseUpload) Graph() *graph.Graph { return b.G }

// Cluster returns the simulated deployment.
func (b *BaseUpload) Cluster() *cluster.Cluster { return b.Cl }

// Scratch returns the engine's scratch pool. It outlives the upload, so
// what a job puts back must hold no reference to the upload, its graph
// or its cluster.
func (b *BaseUpload) Scratch() *mplane.Pool { return b.pool }

// Register charges bytes to a machine's budget until Free: the upload's
// layout, or a structure a later job adds to it.
func (b *BaseUpload) Register(machine int, bytes int64) error {
	if err := b.Cl.Alloc(machine, bytes); err != nil {
		return err
	}
	if b.bytes == nil {
		b.bytes = make([]int64, b.Cl.Machines())
	}
	b.bytes[machine] += bytes
	return nil
}

// Free releases everything Register charged.
func (b *BaseUpload) Free() {
	for m, n := range b.bytes {
		b.Cl.Free(m, n)
		b.bytes[m] = 0
	}
}

// NewResult assembles a Result from a finished tracker, the job's cluster,
// and the algorithm output. It sets ProcessingTime from the archive's
// ProcessGraph phase and pulls network/round/memory statistics from the
// cluster.
func NewResult(t *granula.Tracker, cl *cluster.Cluster, out *algorithms.Output) *Result {
	a := t.Finish()
	return &Result{
		Output:         out,
		Archive:        a,
		ProcessingTime: a.ProcessingTime(),
		Makespan:       a.Makespan(),
		NetworkTime:    cl.NetworkTime(),
		Rounds:         cl.Rounds(),
		PeakMemory:     cl.PeakMemory(),
	}
}

// registry of available platforms, keyed by name.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Platform)
)

// Register adds a platform to the global registry; registering a duplicate
// name panics, as it indicates a programming error at start-up.
func Register(p Platform) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name()]; dup {
		panic(fmt.Sprintf("platform: duplicate registration of %q", p.Name()))
	}
	registry[p.Name()] = p
}

// Get looks up a registered platform by name.
func Get(name string) (Platform, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("platform: unknown platform %q (have %v)", name, namesLocked())
	}
	return p, nil
}

// Names returns the registered platform names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	return slices.Sorted(maps.Keys(registry))
}

// All returns the registered platforms sorted by name.
func All() []Platform {
	names := Names()
	out := make([]Platform, 0, len(names))
	for _, n := range names {
		p, _ := Get(n)
		out = append(out, p)
	}
	return out
}

// CheckContext returns the context error, wrapped so engines can surface
// SLA cancellation uniformly.
func CheckContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("platform: job cancelled: %w", err)
	}
	return nil
}
