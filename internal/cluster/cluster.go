// Package cluster simulates the deployment substrate of the benchmark: a
// set of machines with a thread budget, a per-machine memory budget, and a
// network connecting them.
//
// The paper runs platforms on the DAS-5 cluster; this repository runs all
// engines in one process and substitutes a deterministic deployment model:
//
//   - Machines execute rounds (supersteps) of real computation; the package
//     measures each machine's compute time.
//   - Engines account every byte they ship between machines; a network
//     model (latency per barrier plus bytes over bandwidth) converts the
//     recorded traffic into network time.
//   - The simulated processing time of a distributed run is the sum over
//     rounds of the slowest machine's measured compute plus the modeled
//     network time of that round.
//   - Engines register their data-structure allocations against the
//     per-machine memory budget; exceeding it fails the job with an
//     out-of-memory error, which is what the benchmark's stress test
//     probes.
//
// This preserves the *shape* of horizontal scaling (less compute per
// machine, more communication) without requiring real hardware.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"graphalytics/internal/clock"
)

// NetworkModel converts recorded traffic into modeled transfer time.
type NetworkModel struct {
	// Latency is charged once per machine pair synchronization round
	// (barrier), covering message setup and the barrier itself.
	Latency time.Duration
	// BandwidthBytesPerSec is the per-machine NIC bandwidth; the slowest
	// machine's egress volume bounds a round.
	BandwidthBytesPerSec float64
}

// DefaultNetwork approximates the paper's testbed baseline interconnect
// (1 Gbit/s Ethernet): 125 MB/s with a 100 microsecond barrier cost.
func DefaultNetwork() NetworkModel {
	return NetworkModel{Latency: 100 * time.Microsecond, BandwidthBytesPerSec: 125e6}
}

// RoundTime models the network cost of one synchronization round in which
// the busiest machine sent maxEgressBytes to other machines.
func (m NetworkModel) RoundTime(maxEgressBytes int64) time.Duration {
	if maxEgressBytes <= 0 {
		return m.Latency
	}
	if m.BandwidthBytesPerSec <= 0 {
		return m.Latency
	}
	transfer := time.Duration(float64(maxEgressBytes) / m.BandwidthBytesPerSec * float64(time.Second))
	return m.Latency + transfer
}

// Config describes a simulated deployment.
type Config struct {
	// Machines is the number of simulated machines (horizontal resources).
	Machines int
	// Threads is the number of worker threads per machine (vertical
	// resources).
	Threads int
	// MemoryPerMachine is the per-machine memory budget in bytes; zero
	// means unlimited.
	MemoryPerMachine int64
	// Net is the interconnect model; the zero value disables network cost.
	Net NetworkModel
	// HostWorkers caps how many host goroutines one parallel region of a
	// machine's simulated threads may run on (see Threads); 0 or 1 runs
	// the chunks one after another on the calling goroutine. The engine
	// driver sets it from the uploaded graph's size.
	HostWorkers int
}

// Normalize returns cfg with zero fields replaced by minimal defaults
// (one machine, one thread).
func (cfg Config) Normalize() Config {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	return cfg
}

// ErrOutOfMemory is wrapped by allocation failures against the per-machine
// memory budget.
var ErrOutOfMemory = errors.New("cluster: machine out of memory")

// OOMError reports which machine exceeded its budget and by how much.
type OOMError struct {
	Machine   int
	Requested int64
	InUse     int64
	Budget    int64
}

// Error implements the error interface.
func (e *OOMError) Error() string {
	return fmt.Sprintf("cluster: machine %d out of memory: %d bytes requested, %d in use, budget %d",
		e.Machine, e.Requested, e.InUse, e.Budget)
}

// Unwrap makes errors.Is(err, ErrOutOfMemory) succeed.
func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// Cluster is one simulated deployment. Engines share a Cluster per job; it
// tracks memory, traffic and simulated time.
type Cluster struct {
	cfg Config

	mu       sync.Mutex
	memInUse []int64
	memPeak  []int64
	egress   []int64 // bytes sent by each machine in the current round
	rounds   int
	netTime  time.Duration
	simTime  time.Duration
	traffic  int64

	// threads is the pool handle every round hands its machines. Rounds
	// of one cluster never overlap, so one handle, reset per machine,
	// keeps a round free of allocation.
	threads Threads
}

// New creates a cluster with the given configuration.
func New(cfg Config) *Cluster {
	cfg = cfg.Normalize()
	return &Cluster{
		cfg:      cfg,
		memInUse: make([]int64, cfg.Machines),
		memPeak:  make([]int64, cfg.Machines),
		egress:   make([]int64, cfg.Machines),
	}
}

// Machines returns the number of simulated machines.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// Threads returns the per-machine thread budget.
func (c *Cluster) Threads() int { return c.cfg.Threads }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Alloc registers bytes of engine data-structure memory on a machine,
// failing with an OOMError when the budget would be exceeded.
func (c *Cluster) Alloc(machine int, bytes int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.memInUse[machine] + bytes
	if c.cfg.MemoryPerMachine > 0 && next > c.cfg.MemoryPerMachine {
		return &OOMError{Machine: machine, Requested: bytes, InUse: c.memInUse[machine], Budget: c.cfg.MemoryPerMachine}
	}
	c.memInUse[machine] = next
	if next > c.memPeak[machine] {
		c.memPeak[machine] = next
	}
	return nil
}

// Free releases previously registered memory.
func (c *Cluster) Free(machine int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memInUse[machine] -= bytes
	if c.memInUse[machine] < 0 {
		c.memInUse[machine] = 0
	}
}

// ResetPeak restarts every machine's peak from its current registration,
// so PeakMemory reports one job's high-water mark instead of that of every
// job the deployment has run.
func (c *Cluster) ResetPeak() {
	c.mu.Lock()
	defer c.mu.Unlock()
	copy(c.memPeak, c.memInUse)
}

// PeakMemory returns the highest per-machine memory registration observed
// since the cluster was created or ResetPeak was last called.
func (c *Cluster) PeakMemory() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var peak int64
	for _, p := range c.memPeak {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// Send records that machine from shipped bytes to machine to during the
// current round. Intra-machine transfers are free.
func (c *Cluster) Send(from, to int, bytes int64) {
	if from == to || bytes <= 0 {
		return
	}
	c.mu.Lock()
	c.egress[from] += bytes
	c.traffic += bytes
	c.mu.Unlock()
}

// Broadcast records that machine from shipped bytesPerPeer to every other
// machine in the current round (the allgather pattern used by dense vector
// exchanges).
func (c *Cluster) Broadcast(from int, bytesPerPeer int64) {
	if bytesPerPeer <= 0 || c.cfg.Machines <= 1 {
		return
	}
	total := bytesPerPeer * int64(c.cfg.Machines-1)
	c.mu.Lock()
	c.egress[from] += total
	c.traffic += total
	c.mu.Unlock()
}

// RunRound executes fn for every machine, measures per-machine compute
// time, closes the round's traffic, and charges the round to simulated
// time as max(compute) + network. Machines run sequentially so that one
// machine's timing is not distorted by another's; fn receives the
// machine's simulated thread pool, whose parallel regions are discounted
// from the measured wall time (see Threads).
//
// The first machine error aborts the round and is returned.
func (c *Cluster) RunRound(fn func(machine int, th *Threads) error) error {
	var maxCompute time.Duration
	th := &c.threads
	for m := 0; m < c.cfg.Machines; m++ {
		// Reset the budget and the discount only: the handle's region
		// buffers are reused by every round.
		th.count, th.hostWorkers, th.discount = c.cfg.Threads, c.cfg.HostWorkers, 0
		start := clock.Now()
		if err := fn(m, th); err != nil {
			return fmt.Errorf("cluster: machine %d: %w", m, err)
		}
		d := clock.Now().Sub(start) - th.discount
		if d < 0 {
			d = 0
		}
		if d > maxCompute {
			maxCompute = d
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var maxEgress int64
	for m := range c.egress {
		if c.egress[m] > maxEgress {
			maxEgress = c.egress[m]
		}
		c.egress[m] = 0
	}
	c.rounds++
	var net time.Duration
	if c.cfg.Machines > 1 {
		net = c.cfg.Net.RoundTime(maxEgress)
	}
	c.netTime += net
	c.simTime += maxCompute + net
	return nil
}

// RunBarrier executes fn — cross-machine barrier work such as delivering
// staged messages into the next round's inboxes — and charges its
// measured duration to simulated time as sequential barrier cost. It
// closes no round and models no network: engines account the shuffled
// bytes via Send from within the producing round. This keeps work that
// structurally belongs between rounds (a global scatter cannot run
// inside any one machine's slice of a round) inside the measured
// processing time, where the equivalent per-machine delivery work of an
// append-based inbox would have been.
func (c *Cluster) RunBarrier(fn func()) {
	start := clock.Now()
	fn()
	d := clock.Now().Sub(start)
	c.mu.Lock()
	c.simTime += d
	c.mu.Unlock()
}

// SimulatedTime returns the accumulated processing time of all rounds:
// measured compute of the slowest machine per round plus modeled network
// time.
func (c *Cluster) SimulatedTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simTime
}

// NetworkTime returns only the modeled network component of SimulatedTime.
func (c *Cluster) NetworkTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.netTime
}

// Rounds returns how many synchronization rounds have completed.
func (c *Cluster) Rounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}

// Traffic returns the total inter-machine bytes recorded so far.
func (c *Cluster) Traffic() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traffic
}

// ResetTime clears round, traffic and time accounting (memory registrations
// are kept). Engines call this between the load phase and the processing
// phase so that simulated time covers only processing.
func (c *Cluster) ResetTime() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rounds = 0
	c.netTime = 0
	c.simTime = 0
	c.traffic = 0
	for m := range c.egress {
		c.egress[m] = 0
	}
}
