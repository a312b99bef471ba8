package main

import "time"

// defaultSeconds is each workload's timed window when -seconds is not
// given; BENCHMARK.json's run_seconds restates it.
const defaultSeconds = 15

// setupBudget bounds the time spent repeating a set-up: a set-up that
// takes seconds is steady on one sample, one that takes milliseconds
// needs the median of several.
const setupBudget = 4 * time.Second

// sizes fixes how much work the workloads do. They are constants, not
// flags: a number measured at one size is not comparable with one
// measured at another, so nothing on the command line can change them.
// README.md has the rationale and the timings the full sizes were chosen
// from; the smoke sizes exist for bench_test.go only.
type sizes struct {
	loadScale    int   // Graph500 scale of the load workload's graph
	spillBudget  int64 // SpillOptions.BudgetBytes of the streamed build
	kernelsScale int   // Graph500 scale of the kernels workload's main graph
	lccScale     int   // smaller graph for LCC, whose cost grows with the sum of squared degrees
	sortKeys     int   // keys of the par.SortInt64s probe

	setups     int // repetitions of the set-up behind setup_s, at most
	minRounds  int // timed rounds each workload runs at least
	minSamples int // an end-to-end median on fewer samples is refused
	probeReps  int // repetitions of a per-layer probe outside the rounds

	// suiteDatasets, when set, narrows every sweep of the suite spec to
	// these datasets; the plan golden is then not compared.
	suiteDatasets []string

	mapOpens     int // MapSnapshotFile calls per probe
	daemonWarmup int // untimed runs per tenant before the closed loop
	reportEvery  int // a daemon client fetches the archive report every n-th run
	minRuns      int // daemon runs per client at least
}

var fullSizes = sizes{
	loadScale: 17, spillBudget: 32 << 20,
	kernelsScale: 18, lccScale: 15,
	sortKeys: 1 << 22,
	setups:   3, minRounds: 5, minSamples: 5, probeReps: 3,
	mapOpens: 100, daemonWarmup: 10, reportEvery: 10, minRuns: 100,
}

var smokeSizes = sizes{
	loadScale: 12, spillBudget: 1 << 20,
	kernelsScale: 12, lccScale: 10,
	sortKeys: 1 << 14,
	setups:   1, minRounds: 1, minSamples: 1, probeReps: 1,
	suiteDatasets: []string{"R1", "R2"},
	mapOpens:      3, daemonWarmup: 1, reportEvery: 2, minRuns: 10,
}
