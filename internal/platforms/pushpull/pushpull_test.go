package pushpull_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/granula"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/pushpull"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, pushpull.New())
}

func TestNoLCC(t *testing.T) {
	if pushpull.New().Supports(algorithms.LCC) {
		t.Fatal("pushpull must not support LCC, mirroring PGX.D in the paper")
	}
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, pushpull.New(), a)
		})
	}
}

func TestForcedDirections(t *testing.T) {
	conformance.Run(t, pushpull.NewForced("push"))
	t.Run("pull", func(t *testing.T) { conformance.Run(t, pushpull.NewForced("pull")) })
}

// bfsRun is one BFS job's direction annotations on its ProcessGraph phase.
type bfsRun struct {
	name                  string
	pushes, pulls, rounds int
}

// bfsDirections runs BFS on every corpus graph at 1 and 3 machines.
func bfsDirections(t *testing.T, p platform.Platform) []bfsRun {
	t.Helper()
	var runs []bfsRun
	for _, c := range conformance.Corpus() {
		for _, machines := range []int{1, 3} {
			r := bfsRun{name: fmt.Sprintf("%s/m%d", c.Name, machines)}
			up, err := p.Upload(c.Graph, platform.RunConfig{Threads: 2, Machines: machines})
			if err != nil {
				t.Fatalf("%s: upload: %v", r.name, err)
			}
			res, err := p.Execute(context.Background(), up, algorithms.BFS, c.Params)
			up.Free()
			if err != nil {
				t.Fatalf("%s: BFS: %v", r.name, err)
			}
			info := res.Archive.Root.Find(granula.PhaseProcess).Info
			for key, dst := range map[string]*int{"push_rounds": &r.pushes, "pull_rounds": &r.pulls, "rounds": &r.rounds} {
				if *dst, err = strconv.Atoi(info[key]); err != nil {
					t.Fatalf("%s: annotation %s = %q: %v", r.name, key, info[key], err)
				}
			}
			runs = append(runs, r)
		}
	}
	return runs
}

// TestDirectionPolicy reads the direction annotations: a forced direction
// never runs a level the other way, every BFS level — one charged round
// each, whatever the machine count — is counted exactly once, and the
// adaptive policy uses both directions somewhere in the corpus.
func TestDirectionPolicy(t *testing.T) {
	for _, dir := range []string{"push", "pull", ""} {
		t.Run("forced="+dir, func(t *testing.T) {
			var sawPush, sawPull bool
			for _, r := range bfsDirections(t, pushpull.NewForced(dir)) {
				if dir == "push" && r.pulls != 0 || dir == "pull" && r.pushes != 0 {
					t.Errorf("%s: forced %s ran push_rounds=%d pull_rounds=%d", r.name, dir, r.pushes, r.pulls)
				}
				if r.pushes+r.pulls != r.rounds {
					t.Errorf("%s: push_rounds=%d + pull_rounds=%d != rounds=%d", r.name, r.pushes, r.pulls, r.rounds)
				}
				sawPush, sawPull = sawPush || r.pushes > 0, sawPull || r.pulls > 0
			}
			if dir == "" && !(sawPush && sawPull) {
				t.Errorf("adaptive BFS over the corpus: saw push=%v pull=%v, want both", sawPush, sawPull)
			}
		})
	}
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, pushpull.New())
}
