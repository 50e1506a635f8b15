package bfs_test

import (
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// runDistributedDO mirrors runDistributedBFS over the direction-optimizing
// path.
func runDistributedDO(t *testing.T, edges []graph.Edge, n uint64, p int,
	source graph.Vertex, setup algotest.Setup) ([]uint32, []graph.Vertex) {
	t.Helper()
	levels, parents, _ := runBFS(t, engine.AlgoBFSDO, edges, n, p, source, partition.EdgeList, setup)
	return levels, parents
}

// TestDOBFSMatchesTopDown requires the direction-optimizing BFS to produce
// levels identical to the visitor-queue BFS (and the sequential reference)
// with valid parents, across rank counts and graph shapes — the
// hash-identity bar from the acceptance criteria.
func TestDOBFSMatchesTopDown(t *testing.T) {
	graphs := []struct {
		name  string
		edges []graph.Edge
		n     uint64
		src   graph.Vertex
	}{
		{"random", randomGraph(64, 200, 3), 64, 5},
		{"sparse", randomGraph(96, 60, 9), 96, 1},
	}
	for _, g := range graphs {
		for _, p := range []int{1, 2, 4, 8} {
			want, _ := runDistributedBFS(t, g.edges, g.n, p, g.src, partition.EdgeList, defaultCfg)
			got, parents := runDistributedDO(t, g.edges, g.n, p, g.src, defaultCfg)
			for v := uint64(0); v < g.n; v++ {
				if got[v] != want[v] {
					t.Fatalf("%s/p=%d: DO level(%d) = %d, top-down says %d", g.name, p, v, got[v], want[v])
				}
			}
			checkAgainstRef(t, g.edges, g.n, g.src, got, parents)
		}
	}
}

// TestDOBFSOnRMAT exercises the regime the hybrid exists for: a scale-free
// RMAT graph whose frontier explodes, forcing at least one bottom-up level.
func TestDOBFSOnRMAT(t *testing.T) {
	g := generators.NewGraph500(10, 8)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices()
	for _, p := range []int{1, 4} {
		want, _ := runDistributedBFS(t, edges, n, p, 2, partition.EdgeList, defaultCfg)
		got, parents := runDistributedDO(t, edges, n, p, 2, defaultCfg)
		for v := uint64(0); v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("p=%d: DO level(%d) = %d, top-down says %d", p, v, got[v], want[v])
			}
		}
		checkAgainstRef(t, edges, n, 2, got, parents)
	}
}

// TestDOBFSSwitchesModes pins the heuristic actually firing on a dense
// low-diameter graph: at least one bottom-up level must run, and the result
// must still match the reference.
func TestDOBFSSwitchesModes(t *testing.T) {
	g := generators.NewGraph500(9, 16)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices()
	// p=1 drives the state machine directly: scan/merge and the mode
	// decision all run, and no messages may be emitted.
	part := algotest.Build(t, edges, n, 1, partition.EdgeList, false).Parts[0]
	d := bfs.NewDO(part, 0, func(dest int, payload []byte) {
		t.Fatalf("p=1 run must not send (dest %d)", dest)
	}, nil)
	for d.TryAdvance() {
	}
	if !d.Done() {
		t.Fatal("p=1 DO-BFS did not finish")
	}
	if d.BottomUpLevels == 0 {
		t.Fatal("dense RMAT BFS never switched bottom-up; heuristic dead")
	}
}

// TestDOBFSDisconnected: unreached vertices stay at ∞ with Nil parents.
func TestDOBFSDisconnected(t *testing.T) {
	edges := graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 4, Dst: 5}})
	levels, parents := runDistributedDO(t, edges, 8, 2, 0, defaultCfg)
	if levels[4] != bfs.Unreached || levels[1] != 1 {
		t.Fatalf("levels = %v", levels)
	}
	if parents[4] != graph.Nil {
		t.Fatalf("unreached vertex has parent %d", parents[4])
	}
}
