package lint

import "strings"

// module is the import-path root of this repository.
const module = "graphalytics"

// determinismPkgs carry the bit-identical-at-any-worker-count contract
// (see internal/par's package comment): the parallel runtime itself, the
// reference kernels and their shared step bodies, the zero-alloc message
// plane, the CSR builder, the parallel Graph500 generator, the engine
// driver in internal/platform, and every engine under internal/platforms.
// A trailing "/" marks a prefix that covers all subpackages.
var determinismPkgs = []string{
	module + "/internal/par",
	module + "/internal/mplane",
	module + "/internal/algorithms",
	module + "/internal/graph",
	module + "/internal/graph500",
	module + "/internal/platform",
	module + "/internal/platforms",
	module + "/internal/platforms/",
}

// simTimePkgs compute simulated cost or stamp benchmark records: machine
// rounds, thread discounts, the granula model and the session's stopwatches
// and timestamps must read internal/clock so replays and tests can
// substitute deterministic time. The engines run inside RunRound's
// measured window, and the driver in internal/platform brackets it with
// the Granula phases; neither may consult the wall clock itself.
// internal/clock is deliberately absent: it is the one package that reads
// the wall clock.
var simTimePkgs = []string{
	module + "/internal/cluster",
	module + "/internal/core",
	module + "/internal/granula",
	module + "/internal/platform",
	module + "/internal/platforms",
	module + "/internal/platforms/",
}

// DefaultContracts maps an import path to the contracts it must uphold.
// This is the repository's single source of truth for which package obeys
// which invariant; extend it when a new contract-bearing package appears.
func DefaultContracts(importPath string) Contracts {
	return Contracts{
		Determinism: matchesAny(importPath, determinismPkgs),
		SimTime:     matchesAny(importPath, simTimePkgs),
		Internal:    strings.HasPrefix(importPath, module+"/internal/"),
	}
}

func matchesAny(importPath string, pkgs []string) bool {
	for _, p := range pkgs {
		if importPath == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(importPath, p)) {
			return true
		}
	}
	return false
}
