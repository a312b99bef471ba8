package granula_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/clock"
	"graphalytics/internal/granula"
)

func buildArchive() *granula.Archive {
	t := granula.NewTracker("BFS/test", "native")
	t.Begin(granula.PhaseSetup)
	t.End()
	t.Begin(granula.PhaseLoad)
	t.End()
	t.Begin(granula.PhaseProcess)
	t.Begin("Superstep-0")
	t.Annotate("messages", "42")
	t.End()
	t.Begin("Superstep-1")
	t.End()
	t.End()
	t.Begin(granula.PhaseOffload)
	t.End()
	return t.Finish()
}

func TestTrackerBuildsTree(t *testing.T) {
	a := buildArchive()
	if a.Job != "BFS/test" || a.Platform != "native" {
		t.Fatalf("archive header wrong: %+v", a)
	}
	if len(a.Root.Children) != 4 {
		t.Fatalf("root has %d children, want 4", len(a.Root.Children))
	}
	proc := a.Root.Child(granula.PhaseProcess)
	if proc == nil {
		t.Fatal("ProcessGraph phase missing")
	}
	if len(proc.Children) != 2 {
		t.Fatalf("ProcessGraph has %d sub-phases, want 2", len(proc.Children))
	}
	if got := a.Root.Find(granula.PhaseProcess, "Superstep-0"); got == nil || got.Info["messages"] != "42" {
		t.Fatalf("nested find/annotation failed: %+v", got)
	}
	if a.Root.Find("nope") != nil {
		t.Fatal("Find of a missing phase must return nil")
	}
}

func TestDurationsAndMetrics(t *testing.T) {
	a := buildArchive()
	if a.Makespan() <= 0 {
		t.Fatal("makespan must be positive")
	}
	if a.ProcessingTime() <= 0 || a.ProcessingTime() > a.Makespan() {
		t.Fatalf("Tproc %v out of range (makespan %v)", a.ProcessingTime(), a.Makespan())
	}
}

func TestModeledDurationOverride(t *testing.T) {
	a := buildArchive()
	proc := a.Root.Child(granula.PhaseProcess)
	proc.Modeled = 5 * time.Second
	if a.ProcessingTime() != 5*time.Second {
		t.Fatalf("Tproc = %v, want the modeled 5s", a.ProcessingTime())
	}
	if proc.Measured() >= 5*time.Second {
		t.Fatal("measured duration should remain the stopwatch value")
	}
}

// TestFrozenClockMeasuresNothing holds the tracker to the clock seam:
// under a frozen clock every phase of a finished archive, the root
// included, measures exactly zero however long the job really took.
func TestFrozenClockMeasuresNothing(t *testing.T) {
	defer clock.SetForTesting(func() time.Time { return time.Unix(42, 0) })()
	tr := granula.NewTracker("j", "p")
	tr.Phase(granula.PhaseProcess, func() {
		tr.Phase("Superstep-0", func() { time.Sleep(time.Millisecond) })
	})
	tr.Begin(granula.PhaseOffload) // left open: Finish closes it
	var walk func(op *granula.Operation)
	walk = func(op *granula.Operation) {
		if d := op.Measured(); d != 0 {
			t.Errorf("phase %s measured %v under a frozen clock, want 0", op.Name, d)
		}
		for _, c := range op.Children {
			walk(c)
		}
	}
	walk(tr.Finish().Root)
}

func TestFinishClosesOpenPhases(t *testing.T) {
	tr := granula.NewTracker("j", "p")
	tr.Begin("a")
	tr.Begin("b") // left open deliberately
	a := tr.Finish()
	op := a.Root.Find("a", "b")
	if op == nil || op.End.IsZero() {
		t.Fatal("Finish must close dangling phases")
	}
}

func TestEndOnRootIsIgnored(t *testing.T) {
	tr := granula.NewTracker("j", "p")
	tr.End() // extra End must not pop the root
	tr.Begin("a")
	tr.End()
	a := tr.Finish()
	if len(a.Root.Children) != 1 {
		t.Fatalf("root children = %d, want 1", len(a.Root.Children))
	}
}

func TestPhaseHelper(t *testing.T) {
	tr := granula.NewTracker("j", "p")
	ran := false
	tr.Phase("work", func() { ran = true })
	a := tr.Finish()
	if !ran || a.Root.Child("work") == nil {
		t.Fatal("Phase must run the function inside a named phase")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a := buildArchive()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := granula.ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Job != a.Job || back.Platform != a.Platform {
		t.Fatalf("header lost in round trip: %+v", back)
	}
	if back.Root.Find(granula.PhaseProcess, "Superstep-0").Info["messages"] != "42" {
		t.Fatal("annotations lost in round trip")
	}
	if back.ProcessingTime() != a.ProcessingTime() {
		t.Fatalf("Tproc changed in round trip: %v vs %v", back.ProcessingTime(), a.ProcessingTime())
	}
}

func TestReadArchiveBadJSON(t *testing.T) {
	if _, err := granula.ReadArchive(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestModelValidate(t *testing.T) {
	a := buildArchive()
	m := granula.StandardModel("native")
	if err := m.Validate(a); err != nil {
		t.Fatalf("valid archive rejected: %v", err)
	}
	derived := m.Derive(a)
	if derived["Tproc"] != a.ProcessingTime() {
		t.Fatalf("derived Tproc = %v, want %v", derived["Tproc"], a.ProcessingTime())
	}

	wrongPlatform := granula.StandardModel("pregel")
	if err := wrongPlatform.Validate(a); err == nil {
		t.Fatal("platform mismatch must fail validation")
	}

	// Required phase missing.
	tr := granula.NewTracker("j", "native")
	tr.Begin(granula.PhaseSetup)
	tr.End()
	if err := m.Validate(tr.Finish()); err == nil {
		t.Fatal("archive without ProcessGraph must fail validation")
	}

	// Unknown top-level phase.
	tr = granula.NewTracker("j", "native")
	tr.Begin(granula.PhaseProcess)
	tr.End()
	tr.Begin("Mystery")
	tr.End()
	if err := m.Validate(tr.Finish()); err == nil {
		t.Fatal("archive with an unknown phase must fail validation")
	}
}

func TestRender(t *testing.T) {
	a := buildArchive()
	a.Root.Child(granula.PhaseProcess).Modeled = 3 * time.Second
	var buf bytes.Buffer
	if err := granula.Render(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BFS/test", "ProcessGraph", "Superstep-0", "messages = 42", "modeled"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
