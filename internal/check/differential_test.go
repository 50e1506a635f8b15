package check

import (
	"testing"

	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
	"havoqgt/internal/xrand"
)

// TestDifferentialRandomized is the randomized differential harness entry
// point: seeded cases drawn over {algorithm × graph × rank count × topology
// × flush threshold}, each compared against internal/ref and run through the
// conservation invariants. Failures print the full Case string, which is
// sufficient to replay the run deterministically.
func TestDifferentialRandomized(t *testing.T) {
	cases := sweepCases
	if testing.Short() {
		cases = 10
	}
	rng := xrand.New(sweepSeed)
	for i := 0; i < cases; i++ {
		c := RandomCase(rng)
		t.Run(c.String(), func(t *testing.T) {
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The randomized sweep's seed and its case count outside -short.
const sweepSeed, sweepCases = 0xD1FF, 48

// TestDifferentialGhostAxisCoversCountedKernels: the sweep draws the ghost
// axis for every algorithm, so kcore, which must send every notice whatever
// the table, runs both with it and without it. So does pagerank, which does
// not read the table but sums over the slot tags the partition build stored
// whatever the setting: both sides must give the reference's answer.
// pagerank is also drawn on one rank and on several, and on every topology,
// since its rounds and its split rows' chain records are what the rank count
// and the routing change. Pinned here so a change to the draw or the grids cannot quietly
// drop a side.
func TestDifferentialGhostAxisCoversCountedKernels(t *testing.T) {
	seen := map[engine.Algo]map[int]bool{engine.AlgoKCore: {}, engine.AlgoPageRank: {}}
	prRanks, prTopos := map[bool]bool{}, map[string]bool{}
	rng := xrand.New(sweepSeed)
	for i := 0; i < sweepCases; i++ {
		c := RandomCase(rng)
		if seen[c.Algo] != nil {
			seen[c.Algo][c.Ghosts] = true
		}
		if c.Algo == engine.AlgoPageRank {
			prRanks[c.Ranks > 1] = true
			prTopos[c.Topo] = true
		}
	}
	for algo, drawn := range seen {
		for _, g := range ghostGrid {
			if !drawn[g] {
				t.Errorf("the %d-case sweep never runs %s with ghosts=%d", sweepCases, algo, g)
			}
		}
	}
	if !prRanks[false] || !prRanks[true] {
		t.Errorf("the %d-case sweep runs pagerank on one rank %v, on several %v", sweepCases, prRanks[false], prRanks[true])
	}
	for _, topo := range Topologies() {
		if !prTopos[topo] {
			t.Errorf("the %d-case sweep never runs pagerank on %s", sweepCases, topo)
		}
	}
}

// TestDifferentialCCShapes pins the graphs where marking the hub's component
// first could go wrong, across rank counts, topologies and the ghost setting:
// the minimum id outside the hub's component; a hub in a small dense
// component beside a larger sparse one, so label propagation has the larger;
// and graphs with no edge, no vertex, or one vertex.
func TestDifferentialCCShapes(t *testing.T) {
	var star, dense []graph.Edge
	star = append(star, graph.Edge{Src: 0, Dst: 1}, graph.Edge{Src: 16, Dst: 17})
	for leaf := graph.Vertex(2); leaf < 16; leaf++ {
		if leaf != 7 {
			star = append(star, graph.Edge{Src: 7, Dst: leaf}) // hub 7; its component's minimum is 2
		}
	}
	for v := graph.Vertex(0); v+1 < 20; v++ {
		dense = append(dense, graph.Edge{Src: v, Dst: v + 1}) // a path 0..19: degree 2 at most
	}
	for a := graph.Vertex(20); a < 26; a++ {
		for b := a + 1; b < 26; b++ {
			dense = append(dense, graph.Edge{Src: a, Dst: b}) // K6: degree 5, hub 20
		}
	}
	shapes := []struct {
		name  string
		n     uint64
		edges []graph.Edge
	}{
		{"min-outside-hub", 24, star},
		{"dense-hub", 30, dense},
		{"edgeless", 16, nil},
		{"no-vertex", 0, nil},
		{"one-vertex", 1, nil},
		{"one-vertex-loop", 1, []graph.Edge{{Src: 0, Dst: 0}}},
	}
	for _, sh := range shapes {
		for _, p := range []int{1, 3, 8} {
			for _, topo := range Topologies() {
				for _, ghosts := range ghostGrid {
					c := Case{Algo: "cc", N: sh.n, Ranks: p, Topo: topo, FlushBytes: 64, Ghosts: ghosts,
						Graph: append([]graph.Edge{}, graph.Undirect(sh.edges)...)}
					t.Run(sh.name+"/"+c.String(), func(t *testing.T) {
						if err := c.Run(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialReplaySeeds pins a few historically interesting shapes:
// single-rank machines (pure loopback), prime rank counts (ragged grids
// with fallback-to-direct routing), and the degenerate 1-byte threshold.
func TestDifferentialReplaySeeds(t *testing.T) {
	pinned := []Case{
		{Algo: "bfs", Seed: 1, N: 40, EdgeFactor: 2, Ranks: 1, Topo: "3d", FlushBytes: 1},
		{Algo: "sssp", Seed: 2, N: 33, EdgeFactor: 3, Ranks: 5, Topo: "2d", FlushBytes: 1},
		{Algo: "cc", Seed: 3, N: 48, EdgeFactor: 1, Ranks: 7, Topo: "3d", FlushBytes: 24},
		{Algo: "kcore", Seed: 4, N: 30, EdgeFactor: 4, Ranks: 5, Topo: "2d", FlushBytes: 1, K: 3},
		{Algo: "triangles", Seed: 5, N: 26, EdgeFactor: 3, Ranks: 3, Topo: "3d", FlushBytes: 1 << 20},
	}
	if testing.Short() {
		pinned = pinned[:3]
	}
	for _, c := range pinned {
		t.Run(c.String(), func(t *testing.T) {
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
