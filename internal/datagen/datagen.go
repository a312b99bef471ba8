// Package datagen reimplements the LDBC Social Network Benchmark data
// generator (Datagen) as extended by the Graphalytics paper (Section
// 2.5.1): a scalable, seeded generator of Person–knows–Person friendship
// graphs whose output preserves realistic social-network features:
//
//   - correlated attributes: persons with similar characteristics
//     (university, interests) are more likely to be connected, implemented
//     by sorting persons along correlation dimensions and generating edges
//     inside windows ("blocks") with distance-decaying probability;
//   - a skewed, Facebook-like degree distribution (truncated Pareto);
//   - a tunable average clustering coefficient — the paper's extension —
//     implemented by routing part of each person's degree budget into
//     core–periphery communities whose internal density equals the target
//     coefficient;
//   - two execution flows — the old serial flow, whose step cost grows
//     because every step re-reads and re-sorts all previously generated
//     edges, and the new flow, whose steps are independent, write separate
//     spill files and are merged by a single deduplication pass (the
//     optimization evaluated in Figure 10 of the paper).
package datagen

import (
	"fmt"
	"os"
	"time"

	"graphalytics/internal/graph"
)

// Flow selects the execution flow of the generator.
type Flow string

// The two execution flows compared in the paper's Figure 10.
const (
	// FlowNew runs independent steps with spill files and one merge pass.
	FlowNew Flow = "new"
	// FlowOld chains the steps: step i re-reads and re-sorts everything
	// steps 0..i-1 produced, so per-step cost grows.
	FlowOld Flow = "old"
)

// Config parameterizes a generation run.
type Config struct {
	// ScaleFactor approximates the output size; the number of generated
	// edges is roughly ScaleFactor * EdgesPerUnit. (In the paper scale
	// factors count millions of edges; this reproduction defaults to
	// 10,000 edges per unit so that laptops can sweep the same factors.)
	ScaleFactor float64
	// EdgesPerUnit overrides the edges-per-scale-factor constant; zero
	// selects the default of 10,000.
	EdgesPerUnit int
	// Persons overrides the derived person count when non-zero.
	Persons int
	// AvgDegree is the mean friendship count; zero selects 20.
	AvgDegree float64
	// TargetCC, when positive, routes part of every person's degree
	// budget into communities whose internal density approximates the
	// requested average clustering coefficient.
	TargetCC float64
	// Seed makes the run reproducible.
	Seed uint64
	// Flow selects the execution flow; empty selects FlowNew.
	Flow Flow
	// Workers is the number of parallel workers ("machines" in the
	// paper's Figure 10); zero selects 1. The generated graph does not
	// depend on the worker count.
	Workers int
	// TempDir hosts the spill files; empty selects the OS temp dir.
	TempDir string
	// Weighted attaches positive edge weights (interaction strength), as
	// the benchmark's weighted datasets require.
	Weighted bool
	// Name is the generated graph's name; empty selects
	// "datagen-sf<ScaleFactor>".
	Name string
}

func (c Config) withDefaults() Config {
	if c.EdgesPerUnit == 0 {
		c.EdgesPerUnit = 10000
	}
	if c.AvgDegree == 0 {
		c.AvgDegree = 20
	}
	if c.Flow == "" {
		c.Flow = FlowNew
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("datagen-sf%g", c.ScaleFactor)
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
	if c.Persons == 0 {
		targetEdges := c.ScaleFactor * float64(c.EdgesPerUnit)
		c.Persons = int(targetEdges * 2 / c.AvgDegree)
		if c.Persons < 8 {
			c.Persons = 8
		}
	}
	return c
}

// StepStat records the cost of one generation step.
type StepStat struct {
	// Name identifies the step (its correlation dimension).
	Name string
	// Duration is the step's wall-clock time, including the re-sorting of
	// accumulated data in the old flow.
	Duration time.Duration
	// Edges is the number of raw edges the step emitted.
	Edges int
	// SortedItems is how many records the step had to sort, the quantity
	// whose growth the new flow eliminates.
	SortedItems int
}

// Stats describes a full generation run; the data-generation experiment
// (Section 4.8) reports these.
type Stats struct {
	Flow      Flow
	Persons   int
	Steps     []StepStat
	MergeTime time.Duration
	// TotalTime is Tgen: person generation, the edge-generation steps and
	// the merge, with worker-pool parallelism modeled. It excludes the
	// in-memory graph materialization this API performs for its caller
	// (the original Datagen only writes files).
	TotalTime  time.Duration
	RawEdges   int
	Duplicates int
	Edges      int64

	// personTime is the person-table generation cost, part of TotalTime.
	personTime time.Duration
	// workerSavings is the modeled parallel saving of the worker pools,
	// already subtracted from the step durations and MergeTime.
	workerSavings time.Duration
}

// Result is a generated graph plus its generation statistics.
type Result struct {
	Graph *graph.Graph
	Stats Stats
}

// Generate runs the configured flow and returns the friendship graph.
func Generate(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	personStart := time.Now()
	persons := generatePersons(cfg)
	personTime := time.Since(personStart)
	steps := planSteps(cfg)

	var (
		raw   []rawEdge
		stats Stats
		err   error
	)
	switch cfg.Flow {
	case FlowNew:
		raw, stats, err = runNewFlow(cfg, persons, steps)
	case FlowOld:
		raw, stats, err = runOldFlow(cfg, persons, steps)
	default:
		return nil, fmt.Errorf("datagen: unknown flow %q", cfg.Flow)
	}
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder(false, cfg.Weighted)
	b.SetName(cfg.Name)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.Grow(len(persons), len(raw))
	for i := range persons {
		b.AddVertex(int64(i))
	}
	for _, e := range raw {
		if cfg.Weighted {
			b.AddWeightedEdge(int64(e.src), int64(e.dst), e.weight())
		} else {
			b.AddEdge(int64(e.src), int64(e.dst))
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("datagen: build graph: %w", err)
	}
	stats.Flow = cfg.Flow
	stats.Persons = len(persons)
	stats.Edges = g.NumEdges()
	stats.personTime = personTime
	stats.TotalTime = personTime + stats.MergeTime
	for _, st := range stats.Steps {
		stats.TotalTime += st.Duration
	}
	return &Result{Graph: g, Stats: stats}, nil
}

// rawEdge is an undirected friendship in canonical (src < dst) order.
type rawEdge struct {
	src, dst int32
}

// canonical returns the edge with endpoints ordered.
func canonical(a, b int32) rawEdge {
	if a > b {
		a, b = b, a
	}
	return rawEdge{src: a, dst: b}
}

// weight derives a deterministic positive interaction weight from the
// endpoints, so that both flows and any worker count agree on weights.
func (e rawEdge) weight() float64 {
	h := uint64(uint32(e.src))<<32 | uint64(uint32(e.dst))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%100000)/10000.0 + 0.1 // (0.1, 10.1)
}
