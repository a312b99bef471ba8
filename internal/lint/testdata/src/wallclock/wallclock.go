// Package wallclock seeds violations and non-violations of the
// wallclock analyzer.
package wallclock

import "time"

// Cost reads the host clock directly: under a test clock the simulated
// cost would still move with wall time.
func Cost() time.Duration {
	start := time.Now()      // want `wallclock: raw time.Now in simulated-cost code`
	return time.Since(start) // want `wallclock: raw time.Since in simulated-cost code`
}

// Deadline computes a remaining budget from the host clock.
func Deadline(t time.Time) time.Duration {
	return time.Until(t) // want `wallclock: raw time.Until in simulated-cost code`
}

// now is a private clock: referencing time.Now as a value installs the
// wall clock without calling it, and everything that reads now escapes
// the shared seam, so the reference is a finding too.
var now func() time.Time = time.Now // want `wallclock: raw time.Now in simulated-cost code`

// Seam reads through a clock variable; the call goes to the variable, not
// to the time package, so only the reference above is reported.
func Seam() time.Time { return now() }

// Stamp is outside simulated cost and carries the audited waiver.
func Stamp() time.Time {
	//graphalint:wallclock report metadata timestamp, not simulated cost
	return time.Now()
}
