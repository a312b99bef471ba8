package workload

import (
	"fmt"

	"graphalytics/internal/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/graph500"
	"graphalytics/internal/xrand"
)

// The real-world datasets of Table 3 are not redistributable with this
// repository (and at up to two billion edges would not be runnable in CI),
// so each entry has a seeded stand-in generator that preserves the
// dataset's domain shape at roughly 1/10,000 of |V|+|E|:
//
//	R1 wiki-talk      directed, hub-skewed (admin talk pages)
//	R2 kgs            undirected, very dense, with a small separate
//	                  community containing the BFS root, so BFS covers
//	                  only ~10% of the graph (the property behind OpenG's
//	                  queue-based BFS win in Section 4.1)
//	R3 cit-patents    directed acyclic citation structure with locality
//	R4 dota-league    undirected, dense, weighted match graph
//	R5 com-friendster undirected social network (Datagen at scale)
//	R6 twitter_mpi    directed power-law follower graph (skewed R-MAT)

// wikiTalkStandIn models a user-talk network: a small core of very active
// editors touches most pages.
func wikiTalkStandIn() (*graph.Graph, error) {
	const vertices, edges = 239, 502
	rng := xrand.New(0x1a1c)
	b := graph.NewBuilder(true, false)
	b.SetName("wiki-talk-lite")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < vertices; v++ {
		b.AddVertex(int64(v))
	}
	for i := 0; i < edges; i++ {
		u := rng.Float64()
		src := int(u * u * vertices) // editors are heavily skewed
		dst := rng.Intn(vertices)
		b.AddEdge(int64(src), int64(dst))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: wiki-talk stand-in: %w", err)
	}
	return g, nil
}

// kgsStandIn models the KGS game network: a dense main community of
// players plus a small isolated club containing the benchmark's BFS root,
// so that the BFS covers roughly 10% of the vertices.
func kgsStandIn() (*graph.Graph, error) {
	const (
		smallSize = 8  // contains the BFS root (vertex 2)
		bigSize   = 75 // dense main community
	)
	rng := xrand.New(0x6a5)
	b := graph.NewBuilder(false, false)
	b.SetName("kgs-lite")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < smallSize+bigSize; v++ {
		b.AddVertex(int64(v))
	}
	// Small club: a ring so every member is reachable from the root.
	for v := 0; v < smallSize; v++ {
		b.AddEdge(int64(v), int64((v+1)%smallSize))
	}
	// Dense main community (players meet most other players).
	for i := smallSize; i < smallSize+bigSize; i++ {
		for j := i + 1; j < smallSize+bigSize; j++ {
			if rng.Float64() < 0.64 {
				b.AddEdge(int64(i), int64(j))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: kgs stand-in: %w", err)
	}
	return g, nil
}

// citPatentsStandIn models a citation network: a DAG in which every patent
// cites a handful of older patents, mostly recent ones.
func citPatentsStandIn() (*graph.Graph, error) {
	const (
		vertices      = 377
		citationsMean = 5
		window        = 60
	)
	rng := xrand.New(0xc17)
	b := graph.NewBuilder(true, false)
	b.SetName("cit-patents-lite")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < vertices; v++ {
		b.AddVertex(int64(v))
	}
	for v := 1; v < vertices; v++ {
		k := 1 + rng.Intn(2*citationsMean)
		for c := 0; c < k; c++ {
			back := 1 + int(rng.Exp()*float64(window)/4)
			cited := v - back
			if cited < 0 {
				continue
			}
			b.AddEdge(int64(v), int64(cited))
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: cit-patents stand-in: %w", err)
	}
	return g, nil
}

// dotaLeagueStandIn models a match network: a dense weighted graph of
// players who repeatedly play each other.
func dotaLeagueStandIn() (*graph.Graph, error) {
	const (
		vertices = 300
		matches  = 16 // partners per player
	)
	rng := xrand.New(0xd07a)
	b := graph.NewBuilder(false, true)
	b.SetName("dota-league-lite")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < vertices; v++ {
		b.AddVertex(int64(v))
	}
	for v := 0; v < vertices; v++ {
		r := rng.Fork(uint64(v))
		for m := 0; m < matches; m++ {
			opp := r.Intn(vertices)
			if opp == v {
				continue
			}
			b.AddWeightedEdge(int64(v), int64(opp), r.Float64()*9+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: dota-league stand-in: %w", err)
	}
	return g, nil
}

// friendsterStandIn is the largest catalog graph: a Datagen social network
// with community structure, standing in for com-friendster.
func friendsterStandIn() (*graph.Graph, error) {
	res, err := datagen.Generate(datagen.Config{
		Persons:   6560,
		AvgDegree: 34,
		TargetCC:  0.10,
		Seed:      0xf12e,
		Weighted:  false,
		Name:      "com-friendster-lite",
	})
	if err != nil {
		return nil, fmt.Errorf("workload: friendster stand-in: %w", err)
	}
	return res.Graph, nil
}

// twitterStandIn is a skewed directed power-law follower graph. Into names
// the builder after the generator; the name is set after it, before Build.
func twitterStandIn() (*graph.Graph, error) {
	b := graph.NewBuilder(true, false)
	err := graph500.Into(graph500.Config{
		Scale:      13,
		EdgeFactor: 24,
		Seed:       0x7177e2,
		A:          0.65, B: 0.15, C: 0.15,
		Directed: true,
	}, b)
	var g *graph.Graph
	if err == nil {
		g, err = b.SetName("twitter-mpi-lite").Build()
	}
	if err != nil {
		return nil, fmt.Errorf("workload: twitter stand-in: %w", err)
	}
	return g, nil
}
