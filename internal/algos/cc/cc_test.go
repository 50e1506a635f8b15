package cc_test

import (
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

func runDistributed(t *testing.T, edges []graph.Edge, n uint64, p int,
	setup algotest.Setup) ([]graph.Vertex, uint64) {
	t.Helper()
	res, _ := algotest.Build(t, edges, n, p, partition.EdgeList, false).Run(t, setup, engine.Spec{Algo: engine.AlgoCC})
	return res.Labels, res.Components
}

func checkAgainstRef(t *testing.T, edges []graph.Edge, n uint64, labels []graph.Vertex, count uint64) {
	t.Helper()
	want, wantCount := ref.Components(ref.BuildAdj(edges, n))
	for v := uint64(0); v < n; v++ {
		if labels[v] != want[v] {
			t.Fatalf("label(%d) = %d, want %d", v, labels[v], want[v])
		}
	}
	if count != wantCount {
		t.Fatalf("component count %d, want %d", count, wantCount)
	}
}

var defaultCfg = algotest.Setup{}

func TestCCMatchesReference(t *testing.T) {
	rng := xrand.New(4)
	var pairs []graph.Edge
	for i := 0; i < 100; i++ { // sparse: many components
		pairs = append(pairs, graph.Edge{
			Src: graph.Vertex(rng.Uint64n(128)),
			Dst: graph.Vertex(rng.Uint64n(128)),
		})
	}
	edges := graph.Undirect(pairs)
	for _, p := range []int{1, 2, 4, 8} {
		labels, count := runDistributed(t, edges, 128, p, defaultCfg)
		checkAgainstRef(t, edges, 128, labels, count)
	}
}

func TestCCOnRMAT(t *testing.T) {
	g := generators.NewGraph500(9, 5)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices()
	labels, count := runDistributed(t, edges, n, 4, defaultCfg)
	checkAgainstRef(t, edges, n, labels, count)
	if count < 2 {
		t.Log("RMAT graph fully connected at this seed; isolated vertices expected normally")
	}
}

func TestCCWithGhostsAndRouting(t *testing.T) {
	g := generators.NewPA(1<<9, 4, 0.2, 6)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices
	labels, count := runDistributed(t, edges, n, 8, algotest.Setup{Topology: "3d", Ghosts: 64})
	checkAgainstRef(t, edges, n, labels, count)
}

func TestCCIsolatedVertices(t *testing.T) {
	edges := graph.Undirect([]graph.Edge{{Src: 1, Dst: 2}})
	labels, count := runDistributed(t, edges, 5, 2, defaultCfg)
	if count != 4 { // {1,2}, {0}, {3}, {4}
		t.Fatalf("count = %d, want 4", count)
	}
	if labels[1] != 1 || labels[2] != 1 || labels[0] != 0 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestCCSingleComponentRing(t *testing.T) {
	n := uint64(64)
	var pairs []graph.Edge
	for v := uint64(0); v < n; v++ {
		pairs = append(pairs, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
	}
	edges := graph.Undirect(pairs)
	labels, count := runDistributed(t, edges, n, 4, defaultCfg)
	if count != 1 {
		t.Fatalf("ring has %d components", count)
	}
	for v, l := range labels {
		if l != 0 {
			t.Fatalf("vertex %d labeled %d", v, l)
		}
	}
}

func TestVisitorCodecRoundTrip(t *testing.T) {
	c := &cc.CC{}
	v := cc.Visitor{V: 77, Label: 3}
	buf := c.Encode(v, nil)
	if len(buf) != 8+8 {
		t.Fatalf("wire size %d", len(buf))
	}
	if got := c.Decode(buf); got != v {
		t.Fatalf("round trip %+v", got)
	}
}
