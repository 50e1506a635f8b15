package bfs_test

import (
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

// runBFS executes the given BFS flavour over p ranks on the one executor and
// returns the global levels and parents with the per-rank stats.
func runBFS(t *testing.T, algo engine.Algo, edges []graph.Edge, n uint64, p int,
	source graph.Vertex, layout partition.Layout, setup algotest.Setup) ([]uint32, []graph.Vertex, []core.Stats) {
	t.Helper()
	res, stats := algotest.Build(t, edges, n, p, layout, false).Run(t, setup, engine.Spec{Algo: algo, Source: source})
	return res.Levels, res.Parents, stats
}

// runDistributedBFS is runBFS for the top-down visitor-queue BFS.
func runDistributedBFS(t *testing.T, edges []graph.Edge, n uint64, p int,
	source graph.Vertex, layout partition.Layout, setup algotest.Setup) ([]uint32, []graph.Vertex) {
	t.Helper()
	levels, parents, _ := runBFS(t, engine.AlgoBFS, edges, n, p, source, layout, setup)
	return levels, parents
}

// checkAgainstRef verifies distributed levels equal the sequential BFS
// levels and that every parent is a legal BFS parent.
func checkAgainstRef(t *testing.T, edges []graph.Edge, n uint64, source graph.Vertex,
	levels []uint32, parents []graph.Vertex) {
	t.Helper()
	adj := ref.BuildAdj(edges, n)
	wantLevels, _ := ref.BFS(adj, source)
	for v := uint64(0); v < n; v++ {
		if levels[v] != wantLevels[v] {
			t.Fatalf("level(%d) = %d, want %d", v, levels[v], wantLevels[v])
		}
	}
	for v := uint64(0); v < n; v++ {
		switch {
		case levels[v] == bfs.Unreached:
			if parents[v] != graph.Nil {
				t.Fatalf("unreached vertex %d has parent %d", v, parents[v])
			}
		case graph.Vertex(v) == source:
			if parents[v] != source {
				t.Fatalf("source parent = %d", parents[v])
			}
		default:
			pv := parents[v]
			if wantLevels[pv] != levels[v]-1 {
				t.Fatalf("parent(%d)=%d at level %d, vertex at %d", v, pv, wantLevels[pv], levels[v])
			}
			if !adj.HasEdge(pv, graph.Vertex(v)) {
				t.Fatalf("parent(%d)=%d but no edge", v, pv)
			}
		}
	}
}

var defaultCfg = algotest.Setup{}

func randomGraph(n uint64, m int, seed uint64) []graph.Edge {
	rng := xrand.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(rng.Uint64n(n))}
	}
	return graph.Undirect(edges)
}

func TestBFSMatchesReferenceAcrossRankCounts(t *testing.T) {
	edges := randomGraph(64, 160, 1)
	for _, p := range []int{1, 2, 3, 4, 8} {
		levels, parents := runDistributedBFS(t, edges, 64, p, 3, partition.EdgeList, defaultCfg)
		checkAgainstRef(t, edges, 64, 3, levels, parents)
	}
}

func TestBFSOnRMAT(t *testing.T) {
	g := generators.NewGraph500(9, 7)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices()
	levels, parents := runDistributedBFS(t, edges, n, 4, 0, partition.EdgeList, defaultCfg)
	checkAgainstRef(t, edges, n, 0, levels, parents)
}

func TestBFSOnSmallWorldHighDiameter(t *testing.T) {
	g := generators.NewSmallWorld(1<<9, 4, 0.01, 5)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices
	levels, parents := runDistributedBFS(t, edges, n, 4, 9, partition.EdgeList, defaultCfg)
	checkAgainstRef(t, edges, n, 9, levels, parents)
}

func TestBFSWithRoutedTopologies(t *testing.T) {
	edges := randomGraph(128, 512, 2)
	for _, topo := range []string{"1d", "2d", "3d"} {
		levels, parents := runDistributedBFS(t, edges, 128, 8, 0, partition.EdgeList, algotest.Setup{Topology: topo})
		checkAgainstRef(t, edges, 128, 0, levels, parents)
	}
}

func TestBFSWithGhosts(t *testing.T) {
	// Hub-heavy graph where ghosts actually filter.
	g := generators.NewPA(1<<9, 4, 0, 3)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices
	levels, parents := runDistributedBFS(t, edges, n, 4, 1, partition.EdgeList, algotest.Setup{Ghosts: 64})
	checkAgainstRef(t, edges, n, 1, levels, parents)
}

func TestBFSGhostsActuallyFilter(t *testing.T) {
	g := generators.NewPA(1<<10, 8, 0, 13)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices
	_, _, stats := runBFS(t, engine.AlgoBFS, edges, n, 4, 1, partition.EdgeList,
		algotest.Setup{Ghosts: core.DefaultGhostsPerPartition})
	var total uint64
	for _, s := range stats {
		total += s.GhostFiltered
	}
	if total == 0 {
		t.Fatal("ghost filter never fired on a hub-heavy PA graph")
	}
}

func TestBFSOn1DPartition(t *testing.T) {
	edges := randomGraph(64, 256, 4)
	levels, parents := runDistributedBFS(t, edges, 64, 4, 5, partition.OneD, defaultCfg)
	checkAgainstRef(t, edges, 64, 5, levels, parents)
}

func TestBFSDisconnectedGraph(t *testing.T) {
	// Two components; traversal from one must leave the other unreached.
	edges := graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 5, Dst: 6}, {Src: 6, Dst: 7}})
	levels, parents := runDistributedBFS(t, edges, 8, 3, 0, partition.EdgeList, defaultCfg)
	checkAgainstRef(t, edges, 8, 0, levels, parents)
	if levels[5] != bfs.Unreached || levels[3] != bfs.Unreached {
		t.Fatal("unreachable vertices got levels")
	}
}

func TestBFSSingleVertexSource(t *testing.T) {
	// Source with no edges: only itself reached.
	edges := graph.Undirect([]graph.Edge{{Src: 1, Dst: 2}})
	levels, _ := runDistributedBFS(t, edges, 4, 2, 0, partition.EdgeList, defaultCfg)
	if levels[0] != 0 || levels[1] != bfs.Unreached {
		t.Fatalf("levels = %v", levels)
	}
}

func TestBFSStatsAccounting(t *testing.T) {
	edges := randomGraph(64, 256, 6)
	levels, _, stats := runBFS(t, engine.AlgoBFS, edges, 64, 4, 0, partition.EdgeList, defaultCfg)
	var executed, queued uint64
	for _, s := range stats {
		executed += s.Executed
		queued += s.Queued
	}
	if executed != queued {
		t.Fatalf("executed %d != queued %d after quiescence", executed, queued)
	}
	var reachedCount uint64
	for _, l := range levels {
		if l != bfs.Unreached {
			reachedCount++
		}
	}
	if executed < reachedCount {
		t.Fatalf("executed %d visitors but reached %d vertices", executed, reachedCount)
	}
}

func TestVisitorCodecRoundTrip(t *testing.T) {
	b := &bfs.BFS{}
	v := bfs.Visitor{V: 123456789, Length: 42, Parent: 987654321}
	buf := b.Encode(v, nil)
	if len(buf) != 8+4+8 {
		t.Fatalf("wire size %d", len(buf))
	}
	if got := b.Decode(buf); got != v {
		t.Fatalf("round trip %+v", got)
	}
}
