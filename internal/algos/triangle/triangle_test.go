package triangle_test

import (
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

func simpleUndirected(n uint64, m int, seed uint64) []graph.Edge {
	rng := xrand.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(rng.Uint64n(n))}
	}
	return graph.Simplify(graph.Undirect(edges))
}

func countDistributed(t *testing.T, edges []graph.Edge, n uint64, p int,
	layout partition.Layout, setup algotest.Setup) uint64 {
	t.Helper()
	res, _ := algotest.Build(t, edges, n, p, layout, false).Run(t, setup, engine.Spec{Algo: engine.AlgoTriangles})
	return res.Triangles
}

var defaultCfg = algotest.Setup{}

func TestKnownSmallGraphs(t *testing.T) {
	cases := []struct {
		name  string
		pairs []graph.Edge
		n     uint64
		want  uint64
	}{
		{"single-triangle", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, 3, 1},
		{"square-no-diagonal", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}, 4, 0},
		{"square-one-diagonal", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}, {Src: 0, Dst: 2}}, 4, 2},
		{"k4", []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}, 4, 4},
		{"two-disjoint", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3}}, 6, 2},
		{"path", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, 4, 0},
	}
	for _, c := range cases {
		edges := graph.Simplify(graph.Undirect(c.pairs))
		for _, p := range []int{1, 2, 3} {
			if got := countDistributed(t, edges, c.n, p, partition.EdgeList, defaultCfg); got != c.want {
				t.Errorf("%s p=%d: counted %d, want %d", c.name, p, got, c.want)
			}
		}
	}
}

func TestMatchesReferenceRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		edges := simpleUndirected(48, 300, seed)
		want := ref.CountTriangles(ref.BuildAdj(edges, 48))
		for _, p := range []int{1, 3, 6} {
			if got := countDistributed(t, edges, 48, p, partition.EdgeList, defaultCfg); got != want {
				t.Fatalf("seed=%d p=%d: %d triangles, want %d", seed, p, got, want)
			}
		}
	}
}

func TestOnRMAT(t *testing.T) {
	g := generators.NewGraph500(8, 21)
	edges := graph.Simplify(graph.Undirect(g.Generate()))
	n := g.NumVertices()
	want := ref.CountTriangles(ref.BuildAdj(edges, n))
	if want == 0 {
		t.Fatal("test graph has no triangles; pick another seed")
	}
	if got := countDistributed(t, edges, n, 4, partition.EdgeList, defaultCfg); got != want {
		t.Fatalf("%d triangles, want %d", got, want)
	}
}

func TestSplitHubTriangles(t *testing.T) {
	// Hub 0 participates in many triangles; its adjacency spans partitions,
	// so closing-edge checks distribute over replicas.
	var pairs []graph.Edge
	n := uint64(64)
	for v := uint64(1); v < n; v++ {
		pairs = append(pairs, graph.Edge{Src: 0, Dst: graph.Vertex(v)})
	}
	for v := uint64(1); v+1 < n; v++ {
		pairs = append(pairs, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(v + 1)})
	}
	edges := graph.Simplify(graph.Undirect(pairs))
	want := ref.CountTriangles(ref.BuildAdj(edges, n)) // one per ring edge
	if got := countDistributed(t, edges, n, 8, partition.EdgeList, defaultCfg); got != want {
		t.Fatalf("split hub: %d triangles, want %d", got, want)
	}
}

func TestSmallWorldTriangles(t *testing.T) {
	g := generators.NewSmallWorld(1<<8, 6, 0.1, 4)
	edges := graph.Simplify(graph.Undirect(g.Generate()))
	n := g.NumVertices
	want := ref.CountTriangles(ref.BuildAdj(edges, n))
	if got := countDistributed(t, edges, n, 4, partition.EdgeList, defaultCfg); got != want {
		t.Fatalf("%d triangles, want %d", got, want)
	}
}

func TestWithRoutedTopology(t *testing.T) {
	edges := simpleUndirected(64, 400, 7)
	want := ref.CountTriangles(ref.BuildAdj(edges, 64))
	if got := countDistributed(t, edges, 64, 8, partition.EdgeList, algotest.Setup{Topology: "3d"}); got != want {
		t.Fatalf("routed: %d triangles, want %d", got, want)
	}
}

func TestOn1D(t *testing.T) {
	edges := simpleUndirected(48, 256, 15)
	want := ref.CountTriangles(ref.BuildAdj(edges, 48))
	if got := countDistributed(t, edges, 48, 4, partition.OneD, defaultCfg); got != want {
		t.Fatalf("1D: %d triangles, want %d", got, want)
	}
}

// TestMultigraphKnownAnswers is the regression test for duplicate-edge /
// self-loop over-counting: the counter must see the underlying simple graph
// regardless of edge multiplicity. Duplicated triangle edges used to
// multiply wedge generation (each stored copy fanned out its own visitor).
func TestMultigraphKnownAnswers(t *testing.T) {
	dup := func(e graph.Edge, k int) []graph.Edge {
		out := make([]graph.Edge, k)
		for i := range out {
			out[i] = e
		}
		return out
	}
	var k4 []graph.Edge
	for i := uint64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4 = append(k4, dup(graph.Edge{Src: graph.Vertex(i), Dst: graph.Vertex(j)}, int(i+j))...)
		}
	}
	cases := []struct {
		name  string
		pairs []graph.Edge
		n     uint64
		want  uint64
	}{
		{"tripled-triangle", append(append(dup(graph.Edge{Src: 0, Dst: 1}, 3),
			dup(graph.Edge{Src: 1, Dst: 2}, 3)...), dup(graph.Edge{Src: 2, Dst: 0}, 3)...), 3, 1},
		{"triangle-with-self-loops", []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
			{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 2, Dst: 2}, {Src: 2, Dst: 2}}, 3, 1},
		{"k4-varied-multiplicity", k4, 4, 4},
		{"doubled-square-no-diagonal", append(
			[]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}},
			[]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}...), 4, 0},
	}
	for _, c := range cases {
		edges := graph.Undirect(c.pairs) // multiplicity preserved: no Simplify
		for _, p := range []int{1, 2, 3, 5} {
			if got := countDistributed(t, edges, c.n, p, partition.EdgeList, defaultCfg); got != c.want {
				t.Errorf("%s p=%d: counted %d, want %d", c.name, p, got, c.want)
			}
		}
	}
}

// TestMultigraphMatchesSimplifiedReference: on a random multigraph the count
// must equal the reference count over the simplified graph — including when
// duplicate runs straddle split-row replica boundaries (many ranks, few
// vertices forces splits).
func TestMultigraphMatchesSimplifiedReference(t *testing.T) {
	for _, seed := range []uint64{4, 5} {
		rng := xrand.New(seed)
		edges := make([]graph.Edge, 400)
		for i := range edges {
			// Small vertex set + heavy duplication: ~every edge has copies.
			edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(24)), Dst: graph.Vertex(rng.Uint64n(24))}
		}
		multi := graph.Undirect(edges)
		want := ref.CountTriangles(ref.BuildAdj(graph.Simplify(multi), 24))
		for _, p := range []int{1, 3, 6, 8} {
			if got := countDistributed(t, multi, 24, p, partition.EdgeList, defaultCfg); got != want {
				t.Fatalf("seed=%d p=%d: %d triangles, want %d", seed, p, got, want)
			}
		}
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	if got := countDistributed(t, nil, 8, 3, partition.EdgeList, defaultCfg); got != 0 {
		t.Fatalf("empty graph counted %d triangles", got)
	}
}

func TestVisitorCodecRoundTrip(t *testing.T) {
	tr := &triangle.Triangle{}
	v := triangle.Visitor{V: 1, Second: graph.Nil, Third: 3}
	buf := tr.Encode(v, nil)
	if len(buf) != 8+8+8 {
		t.Fatalf("wire size %d", len(buf))
	}
	if got := tr.Decode(buf); got != v {
		t.Fatalf("round trip %+v", got)
	}
}
