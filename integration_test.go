package havoqgt

import (
	"fmt"
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/harness"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
)

// TestIntegrationSweep runs every distributed algorithm across a matrix of
// graph models, rank counts, routing topologies, and ghost settings, and
// checks all results against the sequential references plus the
// Graph500-style BFS validator. This is the end-to-end safety net for the
// whole stack: generators → sort/partition → mailbox → visitor queue →
// termination → gather.
func TestIntegrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is heavy")
	}
	type gcase struct {
		name  string
		edges []graph.Edge
		n     uint64
	}
	var cases []gcase
	{
		g := generators.NewGraph500(8, 77)
		cases = append(cases, gcase{"rmat", graph.Simplify(graph.Undirect(g.Generate())), g.NumVertices()})
	}
	{
		g := generators.NewPA(1<<8, 4, 0.1, 78)
		cases = append(cases, gcase{"pa", graph.Simplify(graph.Undirect(g.Generate())), g.NumVertices})
	}
	{
		g := generators.NewSmallWorld(1<<8, 6, 0.05, 79)
		cases = append(cases, gcase{"sw", graph.Simplify(graph.Undirect(g.Generate())), g.NumVertices})
	}

	for _, gc := range cases {
		adj := ref.BuildAdj(gc.edges, gc.n)
		wantLevels, _ := ref.BFS(adj, 1)
		wantCore := ref.KCore(adj, 3)
		wantTri := ref.CountTriangles(adj)
		wantLabels, wantComps := ref.Components(adj)
		w := func(u, v graph.Vertex) uint64 { return sssp.Weight(u, v, 5) }
		wantDist, _ := ref.Dijkstra(adj, 1, w)

		for _, p := range []int{1, 3, 8} {
			for _, topoName := range []string{"1d", "2d", "3d"} {
				for _, ghosts := range []int{-1, 64, 0} { // off, capped, the default
					name := fmt.Sprintf("%s/p%d/%s/g%d", gc.name, p, topoName, ghosts)
					t.Run(name, func(t *testing.T) {
						g := algotest.Build(t, gc.edges, gc.n, p, partition.EdgeList, false)
						setup := algotest.Setup{Topology: topoName, Ghosts: ghosts}
						query := func(spec engine.Spec) *engine.Result {
							res, _ := g.Run(t, setup, spec)
							return res
						}
						bres := query(engine.Spec{Algo: engine.AlgoBFS, Source: 1})
						if err := harness.ValidateBFS(g.Parts, bres.Levels, bres.Parents, 1); err != nil {
							t.Fatalf("validate: %v", err)
						}
						levels := bres.Levels
						dists := query(engine.Spec{Algo: engine.AlgoSSSP, Source: 1, WeightSeed: 5}).Dist
						cres := query(engine.Spec{Algo: engine.AlgoCC})
						labels, comps := cres.Labels, cres.Components
						inCore := query(engine.Spec{Algo: engine.AlgoKCore, K: 3}).InCore
						tris := query(engine.Spec{Algo: engine.AlgoTriangles}).Triangles

						for v := uint64(0); v < gc.n; v++ {
							if levels[v] != wantLevels[v] {
								t.Fatalf("bfs level(%d) = %d, want %d", v, levels[v], wantLevels[v])
							}
							if labels[v] != wantLabels[v] {
								t.Fatalf("cc label(%d) = %d, want %d", v, labels[v], wantLabels[v])
							}
							if dists[v] != wantDist[v] {
								t.Fatalf("sssp dist(%d) = %d, want %d", v, dists[v], wantDist[v])
							}
							if inCore[v] != wantCore[v] {
								t.Fatalf("kcore(%d) = %v, want %v", v, inCore[v], wantCore[v])
							}
						}
						if tris != wantTri {
							t.Fatalf("triangles = %d, want %d", tris, wantTri)
						}
						if comps != wantComps {
							t.Fatalf("components = %d, want %d", comps, wantComps)
						}
					})
				}
			}
		}
	}
}
