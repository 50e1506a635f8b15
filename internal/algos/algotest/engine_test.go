package algotest_test

// Multi-query differential test: N BFS and SSSP queries interleaved on one
// engine must match the sequential references in internal/ref — across
// every routing topology. Levels and distances are deterministic values
// (minimum over paths) so they must match exactly; parents are
// arrival-order-dependent among equal-cost alternatives, so they are checked
// for consistency (parent one level / one edge-weight above the child)
// rather than equality.

import (
	"fmt"
	"sync"
	"testing"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/rt"
)

func TestEngineMatchesReferenceAcrossTopologies(t *testing.T) {
	const (
		scale = 8
		p     = 4
	)
	gen := generators.NewGraph500(scale, 99)
	n := gen.NumVertices()
	var edges []graph.Edge
	for r := 0; r < p; r++ {
		edges = append(edges, graph.Undirect(gen.GenerateChunk(r, p))...)
	}
	adj := ref.BuildAdj(edges, n)

	type qspec struct {
		algo   engine.Algo
		source graph.Vertex
		seed   uint64
	}
	var specs []qspec
	for i := 0; i < 4; i++ {
		specs = append(specs,
			qspec{algo: engine.AlgoBFS, source: graph.Vertex(i * 11)},
			qspec{algo: engine.AlgoSSSP, source: graph.Vertex(i*13 + 1), seed: uint64(i)},
		)
	}

	for _, topoName := range []string{"1d", "2d", "3d"} {
		t.Run(topoName, func(t *testing.T) {
			m := rt.NewMachine(p)
			parts := make([]*partition.Part, p)
			m.Run(func(r *rt.Rank) {
				local := graph.Undirect(gen.GenerateChunk(r.Rank(), r.Size()))
				part, err := partition.BuildEdgeList(r, local, n)
				if err != nil {
					panic(err)
				}
				parts[r.Rank()] = part
			})

			// Interleaved: every query in flight at once through the engine.
			e, err := engine.Start(engine.Config{
				Machine: m, Parts: parts, Ghosts: core.BuildGhostTables(parts, 0), Topology: topoName,
			}, engine.Options{MaxInFlight: len(specs)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			tickets := make([]*engine.Ticket, len(specs))
			var wg sync.WaitGroup
			for i, sp := range specs {
				tk, err := e.Submit(engine.Spec{Algo: sp.algo, Source: sp.source, WeightSeed: sp.seed})
				if err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
				tickets[i] = tk
				wg.Add(1)
				go func() { defer wg.Done(); tk.Wait() }()
			}
			wg.Wait()

			for i, sp := range specs {
				res := tickets[i].Wait()
				label := fmt.Sprintf("query %d (%s from %d)", i, sp.algo, sp.source)
				switch sp.algo {
				case engine.AlgoBFS:
					refLevels, _ := ref.BFS(adj, sp.source)
					for v := uint64(0); v < n; v++ {
						if res.Levels[v] != refLevels[v] {
							t.Fatalf("%s vertex %d: engine level %d != reference %d",
								label, v, res.Levels[v], refLevels[v])
						}
					}
					checkBFSParents(t, label, adj, sp.source, res.Levels, res.Parents)
				case engine.AlgoSSSP:
					seed := sp.seed
					refDist, _ := ref.Dijkstra(adj, sp.source, func(u, v graph.Vertex) uint64 {
						return sssp.Weight(u, v, seed)
					})
					for v := uint64(0); v < n; v++ {
						if res.Dist[v] != refDist[v] {
							t.Fatalf("%s vertex %d: engine dist %d != reference %d",
								label, v, res.Dist[v], refDist[v])
						}
					}
					checkSSSPParents(t, label, sp.source, seed, res.Dist, res.Parents)
				}
			}
		})
	}
}

// checkBFSParents validates parent consistency: every reached non-source
// vertex's parent is a neighbor one level above it.
func checkBFSParents(t *testing.T, label string, adj ref.Adj, source graph.Vertex, levels []uint32, parents []graph.Vertex) {
	t.Helper()
	for v := range levels {
		if levels[v] == bfs.Unreached || graph.Vertex(v) == source {
			continue
		}
		par := parents[v]
		if par == graph.Nil || levels[par] != levels[v]-1 {
			t.Fatalf("%s: vertex %d (level %d) has parent %d (level %d)", label, v, levels[v], par, levels[par])
		}
		if !adj.HasEdge(par, graph.Vertex(v)) {
			t.Fatalf("%s: parent edge %d->%d not in graph", label, par, v)
		}
	}
}

// checkSSSPParents validates that each reached vertex's distance is its
// parent's distance plus the connecting edge weight.
func checkSSSPParents(t *testing.T, label string, source graph.Vertex, seed uint64, dist []uint64, parents []graph.Vertex) {
	t.Helper()
	for v := range dist {
		if dist[v] == sssp.Unreached || graph.Vertex(v) == source {
			continue
		}
		par := parents[v]
		if par == graph.Nil {
			t.Fatalf("%s: reached vertex %d has no parent", label, v)
		}
		if want := dist[par] + sssp.Weight(par, graph.Vertex(v), seed); dist[v] != want {
			t.Fatalf("%s: vertex %d dist %d != parent %d dist %d + weight", label, v, dist[v], par, dist[par])
		}
	}
}
