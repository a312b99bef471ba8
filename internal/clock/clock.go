// Package clock is the harness's one clock seam. Everything that measures
// simulated cost or stamps a benchmark record — cluster rounds and thread
// discounts, Granula phases, the session's upload and execute stopwatches,
// event and result timestamps — reads Now instead of time.Now, so a test
// can freeze or step time and replay a run byte for byte. graphalint's
// wallclock analyzer forbids any use of time.Now, time.Since or time.Until
// in those packages; this package sits outside that contract and is the
// one place the wall clock is read.
package clock

import "time"

// now is the installed clock. Production code never reassigns it.
var now = time.Now

// Now returns the current time of the installed clock: the wall clock
// unless a test replaced it.
func Now() time.Time { return now() }

// SetForTesting installs a replacement clock and returns the function that
// restores the previous one. Swap clocks only while no measured work is
// running: replacing it mid-round is a data race.
func SetForTesting(c func() time.Time) (restore func()) {
	prev := now
	now = c
	return func() { now = prev }
}
