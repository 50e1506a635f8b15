package sssp_test

import (
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

const weightSeed = 99

func runDistributed(t *testing.T, edges []graph.Edge, n uint64, p int, source graph.Vertex,
	setup algotest.Setup) ([]uint64, []graph.Vertex) {
	t.Helper()
	res, _ := algotest.Build(t, edges, n, p, partition.EdgeList, false).Run(t, setup,
		engine.Spec{Algo: engine.AlgoSSSP, Source: source, WeightSeed: weightSeed})
	return res.Dist, res.Parents
}

func checkAgainstDijkstra(t *testing.T, edges []graph.Edge, n uint64, source graph.Vertex,
	dist []uint64, parents []graph.Vertex) {
	t.Helper()
	adj := ref.BuildAdj(edges, n)
	w := func(u, v graph.Vertex) uint64 { return sssp.Weight(u, v, weightSeed) }
	want, _ := ref.Dijkstra(adj, source, w)
	for v := uint64(0); v < n; v++ {
		if dist[v] != want[v] {
			t.Fatalf("dist(%d) = %d, want %d", v, dist[v], want[v])
		}
	}
	// Parents form valid shortest paths.
	for v := uint64(0); v < n; v++ {
		if dist[v] == sssp.Unreached || graph.Vertex(v) == source {
			continue
		}
		pv := parents[v]
		if !adj.HasEdge(pv, graph.Vertex(v)) {
			t.Fatalf("parent(%d)=%d: no edge", v, pv)
		}
		if want[pv]+w(pv, graph.Vertex(v)) != dist[v] {
			t.Fatalf("parent(%d)=%d does not lie on a shortest path", v, pv)
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

func TestWeightSymmetricAndBounded(t *testing.T) {
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		u := graph.Vertex(rng.Uint64n(1 << 30))
		v := graph.Vertex(rng.Uint64n(1 << 30))
		w1, w2 := sssp.Weight(u, v, 7), sssp.Weight(v, u, 7)
		if w1 != w2 {
			t.Fatalf("weight not symmetric for (%d,%d)", u, v)
		}
		if w1 < 1 || w1 > sssp.MaxWeight {
			t.Fatalf("weight %d out of range", w1)
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	edges := randomGraph(64, 200, 3)
	for _, p := range []int{1, 2, 4, 8} {
		dist, parents := runDistributed(t, edges, 64, p, 5, defaultCfg)
		checkAgainstDijkstra(t, edges, 64, 5, dist, parents)
	}
}

func TestSSSPOnRMAT(t *testing.T) {
	g := generators.NewGraph500(9, 4)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices()
	dist, parents := runDistributed(t, edges, n, 4, 2, defaultCfg)
	checkAgainstDijkstra(t, edges, n, 2, dist, parents)
}

func TestSSSPWithGhostsAndRouting(t *testing.T) {
	g := generators.NewPA(1<<9, 6, 0, 8)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices
	dist, parents := runDistributed(t, edges, n, 4, 3, algotest.Setup{Topology: "2d", Ghosts: 128})
	checkAgainstDijkstra(t, edges, n, 3, dist, parents)
}

func TestSSSPDisconnected(t *testing.T) {
	edges := graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 4, Dst: 5}})
	dist, _ := runDistributed(t, edges, 8, 2, 0, defaultCfg)
	if dist[4] != sssp.Unreached || dist[1] == sssp.Unreached {
		t.Fatalf("dist = %v", dist)
	}
}

func TestVisitorCodecRoundTrip(t *testing.T) {
	s := &sssp.SSSP{}
	v := sssp.Visitor{V: 7, Dist: 123456, Parent: 9}
	buf := s.Encode(v, nil)
	if len(buf) != 8+8+8 {
		t.Fatalf("wire size %d", len(buf))
	}
	if got := s.Decode(buf); got != v {
		t.Fatalf("round trip %+v", got)
	}
}
