package datagen

import (
	"cmp"
	"slices"
	"time"

	"graphalytics/internal/par"
	"graphalytics/internal/xrand"
)

// stepKind distinguishes the edge-generation strategies.
type stepKind int

const (
	// stepWindow connects persons that are close in a correlation-
	// dimension ordering, with distance-decaying probability.
	stepWindow stepKind = iota
	// stepCommunity builds core-periphery communities of a size derived
	// from the target clustering coefficient's internal density.
	stepCommunity
	// stepRandom connects uniformly random persons.
	stepRandom
)

// step is one edge-generation step of the Datagen pipeline.
type step struct {
	name  string
	kind  stepKind
	share float64 // fraction of each person's degree budget
	// dim extracts the correlation-dimension value used to sort persons.
	dim func(p *person) int32
	// density is the target within-community density for stepCommunity.
	density float64
}

// windowMeanDistance is the mean of the geometric partner-distance
// distribution inside a correlation window.
const windowMeanDistance = 8.0

// planSteps derives the step list from the configuration. Without a
// clustering-coefficient target, edges are split between the two
// correlation dimensions and a uniform background, following Datagen's
// classic 45/45/10 split. With a target, the first dimension's share is
// generated as communities whose internal density realizes the target.
func planSteps(cfg Config) []step {
	if cfg.TargetCC <= 0 {
		return []step{
			{name: "university", kind: stepWindow, share: 0.45, dim: func(p *person) int32 { return p.university }},
			{name: "interest", kind: stepWindow, share: 0.45, dim: func(p *person) int32 { return p.interest }},
			{name: "random", kind: stepRandom, share: 0.10},
		}
	}
	// A fraction s of the budget goes to community edges with internal
	// density p; a person's clustering coefficient is then roughly s^2*p,
	// so p = target / s^2, clamped to a valid density.
	const commShare = 0.6
	density := cfg.TargetCC / (commShare * commShare)
	if density > 0.95 {
		density = 0.95
	}
	if density < 0.02 {
		density = 0.02
	}
	return []step{
		{name: "community", kind: stepCommunity, share: commShare, density: density,
			dim: func(p *person) int32 { return p.university }},
		{name: "interest", kind: stepWindow, share: 0.30, dim: func(p *person) int32 { return p.interest }},
		{name: "random", kind: stepRandom, share: 0.10},
	}
}

// taskSpawnCost is the modeled in-job dispatch cost per additional worker
// of one parallel region (handing a map/reduce task to a running worker).
const taskSpawnCost = 50 * time.Microsecond

// jobStartCostPerWorker models the per-job start-up overhead of the
// MapReduce substrate the original Datagen runs on, charged once per
// generation step (each step is one job) and growing with the worker
// count; it is why the paper observes worse horizontal scalability at
// small scale factors ("the overhead incurred by Hadoop when spawning the
// jobs ... becomes more negligible the larger the scale factor is",
// Section 4.8).
const jobStartCostPerWorker = 750 * time.Microsecond

// jobStartCost returns the modeled start-up cost of one job.
func jobStartCost(workers int) time.Duration {
	return jobStartCostPerWorker * time.Duration(workers)
}

// runWorkers executes the worker shards sequentially (the host may have a
// single core), measures each, and returns the modeled parallel saving:
// the sequential total minus max(shard) + spawn cost per extra worker.
func runWorkers(workers int, fn func(w int)) time.Duration {
	if workers <= 1 {
		fn(0)
		return 0
	}
	var seq, max time.Duration
	for w := 0; w < workers; w++ {
		start := time.Now()
		fn(w)
		d := time.Since(start)
		seq += d
		if d > max {
			max = d
		}
	}
	modeled := max + taskSpawnCost*time.Duration(workers-1)
	if saved := seq - modeled; saved > 0 {
		return saved
	}
	return 0
}

// runStep generates the raw edges of one step and the modeled parallel
// saving of its worker pool. The result is independent of the worker
// count: each person's partners come from a generator forked from
// (seed, step index, person id).
func runStep(cfg Config, persons []person, stepIdx int, st step) ([]rawEdge, time.Duration) {
	sorted := sortByDimension(persons, st)
	switch st.kind {
	case stepWindow:
		return windowEdges(cfg, sorted, stepIdx, st)
	case stepCommunity:
		return communityEdges(cfg, sorted, stepIdx, st)
	default:
		return randomEdges(cfg, persons, stepIdx, st)
	}
}

// sortByDimension returns the persons ordered by the step's correlation
// dimension (ties broken by id for determinism); the random step keeps id
// order.
func sortByDimension(persons []person, st step) []person {
	sorted := append([]person(nil), persons...)
	if st.dim == nil {
		return sorted
	}
	slices.SortFunc(sorted, func(a, b person) int {
		if da, db := st.dim(&a), st.dim(&b); da != db {
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a.id, b.id)
	})
	return sorted
}

// personRNG returns the deterministic generator for one person in one step.
func personRNG(cfg Config, stepIdx int, id int32) *xrand.Rand {
	return xrand.New(cfg.Seed).Fork(uint64(stepIdx)<<40 ^ uint64(uint32(id)))
}

// partnersOf returns how many partners a person requests in this step.
func partnersOf(p *person, share float64) int {
	k := int(float64(p.budget)*share + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// windowEdges connects each person to partners ahead of it in the sorted
// order, at geometrically distributed distances, so that consecutive
// persons in a block have the highest connection probability.
func windowEdges(cfg Config, sorted []person, stepIdx int, st step) ([]rawEdge, time.Duration) {
	n := len(sorted)
	parts := make([][]rawEdge, cfg.Workers)
	saved := runWorkers(cfg.Workers, func(w int) {
		var buf []rawEdge
		for i := w; i < n; i += cfg.Workers {
			p := &sorted[i]
			rng := personRNG(cfg, stepIdx, p.id)
			k := partnersOf(p, st.share)
			for e := 0; e < k; e++ {
				dist := 1 + int(rng.Exp()*windowMeanDistance)
				j := i + dist
				if j >= n {
					j = i - dist
					if j < 0 {
						continue
					}
				}
				buf = append(buf, canonical(p.id, sorted[j].id))
			}
		}
		parts[w] = buf
	})
	return mergeParts(parts), saved
}

// communityEdges groups consecutive persons (in correlation order) into
// communities sized so that the requested partner count yields the target
// internal density, then connects each member to uniformly random members
// of its own community.
func communityEdges(cfg Config, sorted []person, stepIdx int, st step) ([]rawEdge, time.Duration) {
	n := len(sorted)
	kAvg := cfg.AvgDegree * st.share
	size := int(2*kAvg/st.density) + 1
	if size < 4 {
		size = 4
	}
	if size > n {
		size = n
	}
	parts := make([][]rawEdge, cfg.Workers)
	numComms := (n + size - 1) / size
	saved := runWorkers(cfg.Workers, func(w int) {
		var buf []rawEdge
		for c := w; c < numComms; c += cfg.Workers {
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			if hi-lo < 2 {
				continue
			}
			for i := lo; i < hi; i++ {
				p := &sorted[i]
				rng := personRNG(cfg, stepIdx, p.id)
				k := partnersOf(p, st.share)
				for e := 0; e < k; e++ {
					j := lo + rng.Intn(hi-lo)
					if j == i {
						continue
					}
					buf = append(buf, canonical(p.id, sorted[j].id))
				}
			}
		}
		parts[w] = buf
	})
	return mergeParts(parts), saved
}

// randomEdges connects uniformly random pairs, the background noise step.
func randomEdges(cfg Config, persons []person, stepIdx int, st step) ([]rawEdge, time.Duration) {
	n := len(persons)
	parts := make([][]rawEdge, cfg.Workers)
	saved := runWorkers(cfg.Workers, func(w int) {
		var buf []rawEdge
		for i := w; i < n; i += cfg.Workers {
			p := &persons[i]
			rng := personRNG(cfg, stepIdx, p.id)
			k := partnersOf(p, st.share)
			for e := 0; e < k; e++ {
				j := rng.Intn(n)
				if int32(j) == p.id {
					continue
				}
				buf = append(buf, canonical(p.id, int32(j)))
			}
		}
		parts[w] = buf
	})
	return mergeParts(parts), saved
}

// mergeParts concatenates per-worker buffers in worker order, keeping the
// step output deterministic.
func mergeParts(parts [][]rawEdge) []rawEdge {
	var total int
	for _, p := range parts {
		total += len(p)
	}
	out := make([]rawEdge, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// sortEdges orders edges canonically, by source and then destination;
// both flows rely on sorted order for deduplication. Each edge sorts as
// one word, the source in the high half and the destination, sign bit
// flipped, in the low half, whose order as an int64 is the pair's, so
// par.SortInt64s' radix sort does the work of a two-field comparison
// sort. Equal words are equal edges, so the order is any sort's.
func sortEdges(edges []rawEdge) {
	keys := make([]int64, len(edges))
	for i, e := range edges {
		keys[i] = int64(e.src)<<32 | int64(uint32(e.dst)^1<<31)
	}
	for i, k := range par.SortInt64s(keys) {
		edges[i] = rawEdge{src: int32(k >> 32), dst: int32(uint32(k) ^ 1<<31)}
	}
}

// sortDedupParallel is the distributed sort both flows run on their edge
// sets (in the original Datagen this is Hadoop's shuffle sort): edges are
// range-partitioned by source over the workers, each worker sorts and
// deduplicates its shard, and the shards concatenate into a globally
// sorted unique list. Returns the result, the duplicates removed, and the
// modeled parallel saving of the worker pool.
func sortDedupParallel(edges []rawEdge, workers, persons int) ([]rawEdge, int, time.Duration) {
	if len(edges) == 0 {
		return edges, 0, 0
	}
	if workers <= 1 || persons <= 0 {
		sortEdges(edges)
		out, dups := dedupEdges(edges)
		return out, dups, 0
	}
	buckets := make([][]rawEdge, workers)
	for _, e := range edges {
		b := int(e.src) * workers / persons
		if b >= workers {
			b = workers - 1
		}
		buckets[b] = append(buckets[b], e)
	}
	dupParts := make([]int, workers)
	saved := runWorkers(workers, func(w int) {
		sortEdges(buckets[w])
		buckets[w], dupParts[w] = dedupEdges(buckets[w])
	})
	out := edges[:0]
	dups := 0
	for w := 0; w < workers; w++ {
		out = append(out, buckets[w]...)
		dups += dupParts[w]
	}
	return out, dups, saved
}

// dedupEdges removes duplicates from a sorted edge slice in place and
// returns the deduplicated slice and the number of duplicates removed.
func dedupEdges(edges []rawEdge) ([]rawEdge, int) {
	if len(edges) == 0 {
		return edges, 0
	}
	uniq := edges[:1]
	dups := 0
	for _, e := range edges[1:] {
		if e == uniq[len(uniq)-1] {
			dups++
			continue
		}
		uniq = append(uniq, e)
	}
	return uniq, dups
}
