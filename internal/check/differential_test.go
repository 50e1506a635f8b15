package check

import (
	"testing"

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

// TestDifferentialGhostAxisCoversCombiners: the sweep draws the ghost axis
// for every algorithm, so the two that combine over the ghost table — kcore
// and pagerank — run both with it and without it. Pinned here so a change to
// the draw or the grids cannot quietly drop a side.
func TestDifferentialGhostAxisCoversCombiners(t *testing.T) {
	seen := map[string]map[int]bool{"kcore": {}, "pagerank": {}}
	rng := xrand.New(sweepSeed)
	for i := 0; i < sweepCases; i++ {
		if c := RandomCase(rng); seen[c.Algo] != nil {
			seen[c.Algo][c.Ghosts] = true
		}
	}
	for algo, drawn := range seen {
		for _, g := range ghostGrid {
			if !drawn[g] {
				t.Errorf("the %d-case sweep never runs %s with ghosts=%d", sweepCases, algo, g)
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
		{Algo: "triangle", Seed: 5, N: 26, EdgeFactor: 3, Ranks: 3, Topo: "3d", FlushBytes: 1 << 20},
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
