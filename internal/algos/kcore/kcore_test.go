package kcore_test

import (
	"math"
	"slices"
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

// simpleUndirected builds a simple undirected edge list from random pairs.
func simpleUndirected(n uint64, m int, seed uint64) []graph.Edge {
	rng := xrand.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(rng.Uint64n(n))}
	}
	return graph.Simplify(graph.Undirect(edges))
}

// runDistributedKCore returns per-vertex core membership.
func runDistributedKCore(t *testing.T, edges []graph.Edge, n uint64, p int, k uint32,
	layout partition.Layout, setup algotest.Setup) []bool {
	t.Helper()
	res, _ := algotest.Build(t, edges, n, p, layout, false).Run(t, setup, engine.Spec{Algo: engine.AlgoKCore, K: k})
	return res.InCore
}

func checkKCore(t *testing.T, edges []graph.Edge, n uint64, k uint32, got []bool) {
	t.Helper()
	want := ref.KCore(ref.BuildAdj(edges, n), k)
	for v := uint64(0); v < n; v++ {
		if got[v] != want[v] {
			t.Fatalf("k=%d: vertex %d in-core=%v, want %v", k, v, got[v], want[v])
		}
	}
}

var defaultCfg = algotest.Setup{}

func TestKCoreMatchesReference(t *testing.T) {
	edges := simpleUndirected(64, 300, 1)
	for _, k := range []uint32{1, 2, 3, 4, 8} {
		for _, p := range []int{1, 2, 4, 8} {
			got := runDistributedKCore(t, edges, 64, p, k, partition.EdgeList, defaultCfg)
			checkKCore(t, edges, 64, k, got)
		}
	}
}

func TestKCoreOnRMAT(t *testing.T) {
	g := generators.NewGraph500(9, 3)
	edges := graph.Simplify(graph.Undirect(g.Generate()))
	n := g.NumVertices()
	for _, k := range []uint32{4, 16} {
		got := runDistributedKCore(t, edges, n, 4, k, partition.EdgeList, defaultCfg)
		checkKCore(t, edges, n, k, got)
	}
}

func TestKCoreSplitHubCorrect(t *testing.T) {
	// A hub whose adjacency spans several edge-list partitions: the replica
	// removal-notice semantics must still produce the exact k-core.
	var pairs []graph.Edge
	n := uint64(128)
	for v := uint64(1); v < n; v++ {
		pairs = append(pairs, graph.Edge{Src: 0, Dst: graph.Vertex(v)}) // star
	}
	// A clique among 1..8 so there is a nontrivial 7-core.
	for a := uint64(1); a <= 8; a++ {
		for b := a + 1; b <= 8; b++ {
			pairs = append(pairs, graph.Edge{Src: graph.Vertex(a), Dst: graph.Vertex(b)})
		}
	}
	edges := graph.Simplify(graph.Undirect(pairs))
	for _, k := range []uint32{2, 7, 8} {
		got := runDistributedKCore(t, edges, n, 8, k, partition.EdgeList, defaultCfg)
		checkKCore(t, edges, n, k, got)
	}
}

// holders returns how many ranks store a piece of v's row.
func holders(g *algotest.Graph, v graph.Vertex) int {
	n := 0
	for _, part := range g.Parts {
		if i, ok := part.LocalIndex(v); ok && part.CSR.Degree(i) > 0 {
			n++
		}
	}
	return n
}

// checkSplitRow runs k-core over edges on p ∈ {1, 2, 4, 8} ranks under both
// layouts against the reference, and requires split's row to span at least
// two ranks under edge-list partitioning on minP ranks or more.
func checkSplitRow(t *testing.T, edges []graph.Edge, n uint64, k uint32, split graph.Vertex, minP int) {
	t.Helper()
	for _, layout := range []partition.Layout{partition.EdgeList, partition.OneD} {
		for _, p := range []int{1, 2, 4, 8} {
			g := algotest.Build(t, edges, n, p, layout, false)
			if h := holders(g, split); layout == partition.EdgeList && p >= minP && h < 2 {
				t.Fatalf("edge list p=%d: vertex %d's row is on %d rank(s), want it split", p, split, h)
			}
			res, _ := g.Run(t, defaultCfg, engine.Spec{Algo: engine.AlgoKCore, K: k})
			checkKCore(t, edges, n, k, res.InCore)
		}
	}
}

// TestKCoreSplitRowDiesInRoundZero: a vertex of degree < k whose row is
// split dies in round 0 on every rank holding a piece, and each piece's
// notices must reach their targets with no message down the chain. With
// k = 3, the 3-core is the 4-clique {0, 1, 4, 5}; tips 2 and 6 hang off
// clique vertices 0 and 4 and the hub, 3, which has degree 2. The ids put
// the hub's row, sorted edges 11 and 12 of 24, across the middle of the edge
// list, a rank boundary at p = 2, 4 and 8: tip 6 hears of the hub only from
// the fragment, and without that notice it would stay in the core.
func TestKCoreSplitRowDiesInRoundZero(t *testing.T) {
	const hub = 3
	var pairs []graph.Edge
	clique := []graph.Vertex{0, 1, 4, 5}
	for i, a := range clique {
		for _, b := range clique[i+1:] {
			pairs = append(pairs, graph.Edge{Src: a, Dst: b})
		}
	}
	for _, tip := range []graph.Vertex{2, 6} {
		pairs = append(pairs, graph.Edge{Src: tip, Dst: 0}, graph.Edge{Src: tip, Dst: 4}, graph.Edge{Src: tip, Dst: hub})
	}
	checkSplitRow(t, graph.Simplify(graph.Undirect(pairs)), 7, 3, hub, 2)
}

// TestKCoreSplitHubLeavesInCascade: a split hub of degree ≥ k that leaves in
// the cascade — after round 0 — and whose fragments learn of it only down the
// replica chain. Hub 0 has 60 pendant leaves, which die in round 0, and two
// tips, 61 and 62, which close its row, on its last fragment. With k = 3 the
// hub is left two neighbors and leaves; each tip hangs off two vertices of the
// 4-clique {63, …, 66} and the hub, so it leaves only when the hub's last
// fragment notifies it.
func TestKCoreSplitHubLeavesInCascade(t *testing.T) {
	const n = 67
	var pairs []graph.Edge
	for leaf := graph.Vertex(1); leaf <= 60; leaf++ {
		pairs = append(pairs, graph.Edge{Src: 0, Dst: leaf})
	}
	for a := graph.Vertex(63); a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, graph.Edge{Src: a, Dst: b})
		}
	}
	for _, tip := range []graph.Vertex{61, 62} {
		pairs = append(pairs, graph.Edge{Src: tip, Dst: 0}, graph.Edge{Src: tip, Dst: 63}, graph.Edge{Src: tip, Dst: 64})
	}
	checkSplitRow(t, graph.Simplify(graph.Undirect(pairs)), n, 3, 0, 4)
}

func TestKCoreRing(t *testing.T) {
	// A ring is its own 2-core; the 3-core is empty.
	n := uint64(32)
	var pairs []graph.Edge
	for v := uint64(0); v < n; v++ {
		pairs = append(pairs, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + 1) % n)})
	}
	edges := graph.Simplify(graph.Undirect(pairs))
	got2 := runDistributedKCore(t, edges, n, 3, 2, partition.EdgeList, defaultCfg)
	for v, in := range got2 {
		if !in {
			t.Fatalf("ring vertex %d not in 2-core", v)
		}
	}
	got3 := runDistributedKCore(t, edges, n, 3, 3, partition.EdgeList, defaultCfg)
	for v, in := range got3 {
		if in {
			t.Fatalf("ring vertex %d claims 3-core membership", v)
		}
	}
}

func TestKCoreCascade(t *testing.T) {
	// A path attached to a triangle: peeling the path must cascade.
	pairs := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}}
	edges := graph.Simplify(graph.Undirect(pairs))
	got := runDistributedKCore(t, edges, 6, 3, 2, partition.EdgeList, defaultCfg)
	want := []bool{true, true, true, false, false, false}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("cascade: vertex %d = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestKCoreWithRoutedTopology(t *testing.T) {
	edges := simpleUndirected(96, 500, 9)
	got := runDistributedKCore(t, edges, 96, 8, 3, partition.EdgeList, algotest.Setup{Topology: "2d"})
	checkKCore(t, edges, 96, 3, got)
}

// TestKCoreOn1D runs k-core on the 1D baseline layout, over a simple graph
// and over a sparse multigraph simplified at build: a duplicate edge or self
// loop surviving the build would lift vertices into cores they are not in.
func TestKCoreOn1D(t *testing.T) {
	rng := xrand.New(12)
	var pairs []graph.Edge
	for i := 0; i < 80; i++ {
		pairs = append(pairs, graph.Edge{Src: graph.Vertex(rng.Uint64n(64)), Dst: graph.Vertex(rng.Uint64n(64))})
	}
	multi := graph.Undirect(pairs)
	multi = append(multi, multi[:60]...)
	for v := graph.Vertex(0); v < 64; v += 3 {
		multi = append(multi, graph.Edge{Src: v, Dst: v})
	}
	for _, c := range []struct {
		name     string
		edges    []graph.Edge
		simplify bool
	}{
		{"simple", simpleUndirected(64, 256, 11), false},
		{"multigraph", multi, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := graph.Simplify(slices.Clone(c.edges))
			for _, k := range []uint32{2, 3} {
				res, _ := algotest.Build(t, c.edges, 64, 4, partition.OneD, c.simplify).Run(t, defaultCfg,
					engine.Spec{Algo: engine.AlgoKCore, K: k})
				checkKCore(t, want, 64, k, res.InCore)
			}
		})
	}
}

func TestKCoreEmptyGraph(t *testing.T) {
	got := runDistributedKCore(t, nil, 16, 4, 2, partition.EdgeList, defaultCfg)
	for v, in := range got {
		if in {
			t.Fatalf("edgeless vertex %d in 2-core", v)
		}
	}
}

func TestKCoreRejectsKZero(t *testing.T) {
	g := algotest.Build(t, nil, 4, 1, partition.EdgeList, false)
	_, _, err := engine.RunOnce(engine.Config{Machine: g.Machine, Parts: g.Parts}, engine.Options{},
		engine.Spec{Algo: engine.AlgoKCore, K: 0})
	if err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestCoreSize(t *testing.T) {
	edges := simpleUndirected(64, 300, 13)
	want := ref.CoreSize(ref.KCore(ref.BuildAdj(edges, 64), 3))
	res, _ := algotest.Build(t, edges, 64, 4, partition.EdgeList, false).Run(t, defaultCfg,
		engine.Spec{Algo: engine.AlgoKCore, K: 3})
	if res.CoreSize != want {
		t.Fatalf("core size %d, want %d", res.CoreSize, want)
	}
}

// TestPreVisitSaturates: a notice carrying more than a master's counter —
// which no correct peer sends — takes the counter to 0 and removes the
// vertex, where subtracting would wrap it and keep the vertex in the core.
func TestPreVisitSaturates(t *testing.T) {
	square := graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
	part := algotest.Build(t, square, 4, 1, partition.EdgeList, false).Parts[0]
	a := kcore.New(part, 2, nil, nil)
	if !a.PreVisit(kcore.Visitor{V: 1, N: math.MaxUint32}) || a.Core[1] != 0 || a.Alive[1] {
		t.Fatalf("a notice of %d on a counter at 2: counter %d, alive %v", uint32(math.MaxUint32), a.Core[1], a.Alive[1])
	}
}

func TestVisitorCodecRoundTrip(t *testing.T) {
	a := &kcore.KCore{}
	v := kcore.Visitor{V: 9999999, N: 77}
	buf := a.Encode(v, nil)
	if got := a.Decode(buf); got != v {
		t.Fatalf("round trip %+v", got)
	}
}
