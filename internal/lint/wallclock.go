package lint

import "go/ast"

// WallClock forbids the wall clock in simulated-cost code: any use of
// time.Now, time.Since or time.Until — a call, or a reference such as a
// `now: time.Now` field default, which is how a package quietly grows a
// clock of its own. The cluster's rounds, the thread-pool discount, the
// granula model and the session's stopwatches and stamps read
// internal/clock instead, so tests and replays can substitute
// deterministic time for every package at once. internal/clock is outside
// the contract and is the one reader of time.Now; so are the service and
// CLI layers, which keep using the wall clock freely.
var WallClock = &Analyzer{
	Name:   "wallclock",
	Doc:    "forbids any use of time.Now/Since/Until in simulated-cost packages",
	Marker: MarkerWallClock,
	Run:    runWallClock,
}

func runWallClock(p *Pass) {
	if !p.Contracts.SimTime {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[id]
			for _, name := range [...]string{"Now", "Since", "Until"} {
				if isPkgFunc(obj, "time", name) {
					p.Report(id, "raw time.%s in simulated-cost code: read internal/clock so simulated time stays deterministic under test clocks; waive with //graphalint:wallclock <reason>", name)
				}
			}
			return true
		})
	}
}
