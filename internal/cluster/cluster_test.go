package cluster_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
)

func TestConfigNormalize(t *testing.T) {
	cfg := cluster.Config{}.Normalize()
	if cfg.Machines != 1 || cfg.Threads != 1 {
		t.Fatalf("normalized config = %+v, want 1 machine, 1 thread", cfg)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 2, MemoryPerMachine: 100})
	if err := c.Alloc(0, 60); err != nil {
		t.Fatal(err)
	}
	if err := c.Alloc(0, 50); !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	var oom *cluster.OOMError
	err := c.Alloc(0, 50)
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want *OOMError", err)
	}
	if oom.Machine != 0 || oom.Requested != 50 || oom.InUse != 60 || oom.Budget != 100 {
		t.Fatalf("OOM details wrong: %+v", oom)
	}
	// The other machine has its own budget.
	if err := c.Alloc(1, 90); err != nil {
		t.Fatal(err)
	}
	c.Free(0, 60)
	if err := c.Alloc(0, 90); err != nil {
		t.Fatal(err)
	}
	if got := c.PeakMemory(); got != 90 {
		t.Fatalf("peak = %d, want 90", got)
	}
}

func TestFreeClampsAtZero(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 1, MemoryPerMachine: 10})
	c.Free(0, 100)
	if err := c.Alloc(0, 10); err != nil {
		t.Fatalf("over-free must not create negative usage: %v", err)
	}
}

func TestUnlimitedMemory(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 1})
	if err := c.Alloc(0, 1<<40); err != nil {
		t.Fatalf("zero budget must mean unlimited: %v", err)
	}
}

func TestTrafficAndRounds(t *testing.T) {
	net := cluster.NetworkModel{Latency: time.Millisecond, BandwidthBytesPerSec: 1000}
	c := cluster.New(cluster.Config{Machines: 2, Net: net})
	if err := c.RunRound(func(m int, _ *cluster.Threads) error {
		if m == 0 {
			c.Send(0, 1, 500)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", c.Rounds())
	}
	if c.Traffic() != 500 {
		t.Fatalf("traffic = %d, want 500", c.Traffic())
	}
	// 500 bytes at 1000 B/s = 500ms, plus 1ms latency.
	want := 501 * time.Millisecond
	if got := c.NetworkTime(); got != want {
		t.Fatalf("network time = %v, want %v", got, want)
	}
	if c.SimulatedTime() < want {
		t.Fatalf("simulated time %v must include network %v", c.SimulatedTime(), want)
	}
}

func TestIntraMachineSendIsFree(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 2, Net: cluster.DefaultNetwork()})
	c.Send(1, 1, 1<<30)
	if c.Traffic() != 0 {
		t.Fatal("intra-machine transfers must not count as traffic")
	}
}

func TestSingleMachineHasNoNetworkTime(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 1, Net: cluster.DefaultNetwork()})
	if err := c.RunRound(func(int, *cluster.Threads) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.NetworkTime() != 0 {
		t.Fatalf("network time = %v, want 0 on one machine", c.NetworkTime())
	}
}

func TestBroadcast(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 4})
	c.Broadcast(0, 100)
	if c.Traffic() != 300 {
		t.Fatalf("broadcast traffic = %d, want 100 bytes to each of 3 peers", c.Traffic())
	}
}

func TestRunRoundPropagatesError(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 3})
	wantErr := errors.New("boom")
	err := c.RunRound(func(m int, _ *cluster.Threads) error {
		if m == 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestResetTime(t *testing.T) {
	c := cluster.New(cluster.Config{Machines: 2, Net: cluster.DefaultNetwork()})
	_ = c.RunRound(func(m int, _ *cluster.Threads) error { c.Send(m, (m+1)%2, 100); return nil })
	c.ResetTime()
	if c.Rounds() != 0 || c.Traffic() != 0 || c.NetworkTime() != 0 || c.SimulatedTime() != 0 {
		t.Fatal("ResetTime must clear all time accounting")
	}
}

func TestNetworkModelRoundTime(t *testing.T) {
	m := cluster.NetworkModel{Latency: time.Millisecond, BandwidthBytesPerSec: 1e6}
	if got := m.RoundTime(0); got != time.Millisecond {
		t.Fatalf("empty round = %v, want latency only", got)
	}
	if got := m.RoundTime(1e6); got != time.Millisecond+time.Second {
		t.Fatalf("1MB round = %v, want 1.001s", got)
	}
	zero := cluster.NetworkModel{Latency: time.Millisecond}
	if got := zero.RoundTime(1e9); got != time.Millisecond {
		t.Fatalf("zero bandwidth must charge latency only, got %v", got)
	}
}

func buildTestGraph(t *testing.T, directed bool) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := int64(0); i < 40; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: (i + 1) % 40})
		edges = append(edges, graph.Edge{Src: i, Dst: (i + 7) % 40})
	}
	g, err := graph.FromEdges("t", directed, false, edges, graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionVerticesRangeCoversAll(t *testing.T) {
	g := buildTestGraph(t, true)
	p := cluster.PartitionVerticesRange(g, 4)
	seen := make(map[int32]bool)
	for m, verts := range p.Verts {
		for _, v := range verts {
			if p.Owner[v] != int32(m) {
				t.Fatalf("owner mismatch for %d", v)
			}
			if seen[v] {
				t.Fatalf("vertex %d assigned twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != g.NumVertices() {
		t.Fatalf("partition covers %d vertices, want %d", len(seen), g.NumVertices())
	}
	// The ranges tile [0, n) in machine order; with more machines than
	// vertices, the machines left without any get (0, 0).
	for _, machines := range []int{1, 4, g.NumVertices() + 3} {
		p := cluster.PartitionVerticesRange(g, machines)
		next := 0
		for m := range machines {
			lo, hi := p.Range(m)
			if len(p.Verts[m]) == 0 {
				if lo != 0 || hi != 0 {
					t.Errorf("m%d: machine %d owns no vertices but has range [%d, %d), want (0, 0)", machines, m, lo, hi)
				}
				continue
			}
			if lo != next || hi != lo+len(p.Verts[m]) {
				t.Errorf("m%d: machine %d has range [%d, %d), want [%d, %d)", machines, m, lo, hi, next, next+len(p.Verts[m]))
			}
			next = hi
		}
		if next != g.NumVertices() {
			t.Errorf("m%d: the ranges end at %d, want %d", machines, next, g.NumVertices())
		}
	}
}

func TestPartitionVerticesHash(t *testing.T) {
	p := cluster.PartitionVerticesHash(10, 3)
	for v := 0; v < 10; v++ {
		if got := p.Owner[v]; got != int32(v%3) {
			t.Fatalf("owner[%d] = %d, want %d", v, got, v%3)
		}
	}
}

func TestPartitionEdgesInvariants(t *testing.T) {
	for _, directed := range []bool{true, false} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			g := buildTestGraph(t, directed)
			p := cluster.PartitionEdges(g, 4)
			var edges int64
			for _, lg := range p.Local {
				edges += lg.NumEdges()
			}
			if edges != g.NumEdges() {
				t.Fatalf("total edges = %d, want %d", edges, g.NumEdges())
			}
			rf := p.ReplicationFactor()
			if rf < 1 || rf > 4 {
				t.Fatalf("replication factor = %v, out of [1, machines]", rf)
			}
			// A vertex's replicas are its master plus every machine with a
			// local arc of it, ascending.
			for v, reps := range p.Replicas {
				var want []int32
				for m, lg := range p.Local {
					if int32(m) == p.Master[v] || lg.OutDegree(int32(v)) > 0 || lg.InDegree(int32(v)) > 0 {
						want = append(want, int32(m))
					}
				}
				if !slices.Equal(reps, want) {
					t.Fatalf("vertex %d: replicas %v, want %v (master %d)", v, reps, want, p.Master[v])
				}
			}
		})
	}
}

func TestReplicationFactorSingleMachine(t *testing.T) {
	g := buildTestGraph(t, true)
	p := cluster.PartitionEdges(g, 1)
	if rf := p.ReplicationFactor(); rf != 1 {
		t.Fatalf("replication factor on 1 machine = %v, want 1", rf)
	}
}

func TestSimulatedTimeMonotoneInRoundsProperty(t *testing.T) {
	check := func(rounds uint8) bool {
		c := cluster.New(cluster.Config{Machines: 2, Net: cluster.DefaultNetwork()})
		var prev time.Duration
		for i := 0; i < int(rounds%16); i++ {
			_ = c.RunRound(func(m int, _ *cluster.Threads) error { c.Send(m, (m+1)%2, 64); return nil })
			if c.SimulatedTime() < prev {
				return false
			}
			prev = c.SimulatedTime()
		}
		return c.Rounds() == int(rounds%16)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
