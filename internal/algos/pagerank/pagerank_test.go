package pagerank_test

import (
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

func runDistributed(t *testing.T, edges []graph.Edge, n uint64, p int, iters uint32,
	setup algotest.Setup) []uint64 {
	t.Helper()
	res, _ := algotest.Build(t, edges, n, p, partition.EdgeList, false).Run(t, setup,
		engine.Spec{Algo: engine.AlgoPageRank, Iters: iters})
	return res.Ranks
}

var defaultCfg = algotest.Setup{}

func randomMultigraph(n uint64, m int, seed uint64) []graph.Edge {
	rng := xrand.New(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(rng.Uint64n(n))}
	}
	return graph.Undirect(edges) // keeps duplicates and self-loops
}

// TestPageRankMatchesReference: the asynchronous counted-completion kernel
// must be bit-identical to the synchronous fixed-point reference — on
// multigraphs (duplicate edges and self-loops count with multiplicity),
// across rank counts.
func TestPageRankMatchesReference(t *testing.T) {
	edges := randomMultigraph(48, 150, 7)
	adj := ref.BuildAdj(edges, 48)
	want := ref.PageRank(adj, 10)
	for _, p := range []int{1, 2, 4, 8} {
		got := runDistributed(t, edges, 48, p, 10, defaultCfg)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("p=%d: rank(%d) = %d, ref says %d", p, v, got[v], want[v])
			}
		}
	}
}

// TestPageRankOnRMAT: the scale-free regime with hubs (split adjacency
// lists, replica-chain emits) and isolated vertices.
func TestPageRankOnRMAT(t *testing.T) {
	g := generators.NewGraph500(9, 8)
	edges := graph.Undirect(g.Generate())
	n := g.NumVertices()
	want := ref.PageRank(ref.BuildAdj(edges, n), pagerank.DefaultIters)
	got := runDistributed(t, edges, n, 4, 0, defaultCfg) // 0 → DefaultIters
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("rank(%d) = %d, ref says %d", v, got[v], want[v])
		}
	}
}

// TestPageRankCombinedMatchesReference: contributions merged at the sender
// (core.CombineAlgorithm) leave every rank bit-identical to the reference,
// because fixed-point sums are associative — with no ghost table (nothing
// merges), one slot and 256 (a few merge, the rest go out one by one) and
// every slot (the default).
func TestPageRankCombinedMatchesReference(t *testing.T) {
	gen := generators.NewGraph500(9, 8)
	edges := graph.Undirect(gen.Generate())
	n := gen.NumVertices()
	want := ref.PageRank(ref.BuildAdj(edges, n), 6)
	g := algotest.Build(t, edges, n, 4, partition.EdgeList, false)
	for _, ghosts := range []int{-1, 1, 256, 0} {
		res, stats := g.Run(t, algotest.Setup{Topology: "2d", Ghosts: ghosts}, engine.Spec{Algo: engine.AlgoPageRank, Iters: 6})
		var combined uint64
		for _, s := range stats {
			combined += s.Combined
		}
		if (combined > 0) != (ghosts >= 0) {
			t.Errorf("ghosts=%d: %d contributions combined", ghosts, combined)
		}
		for v := range want {
			if res.Ranks[v] != want[v] {
				t.Fatalf("ghosts=%d: rank(%d) = %d, ref says %d", ghosts, v, res.Ranks[v], want[v])
			}
		}
	}
}

func TestVisitorCodecRoundTrip(t *testing.T) {
	p := &pagerank.PR{}
	v := pagerank.Visitor{V: 1<<40 - 1, Val: 1<<63 + 5, Cnt: 123456, Iter: pagerank.MaxIters - 1, Kind: 1}
	if got := p.Decode(p.Encode(v, nil)); got != v {
		t.Fatalf("round trip %+v", got)
	}
}

// TestPageRankRoutedTopology: grid routing reorders message delivery; the
// counted-completion clock must still produce identical results.
func TestPageRankRoutedTopology(t *testing.T) {
	edges := randomMultigraph(64, 200, 21)
	want := ref.PageRank(ref.BuildAdj(edges, 64), 6)
	got := runDistributed(t, edges, 64, 4, 6, algotest.Setup{Topology: "2d", Core: core.Config{FlushBytes: 24}})
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("rank(%d) = %d, ref says %d", v, got[v], want[v])
		}
	}
}

// TestPageRankMassConservation: total fixed-point mass stays within the
// truncation envelope (each edge and base truncates at most 1 unit).
func TestPageRankMassConservation(t *testing.T) {
	edges := randomMultigraph(32, 100, 3)
	got := runDistributed(t, edges, 32, 2, 8, defaultCfg)
	var total uint64
	for _, rk := range got {
		total += rk
	}
	if total == 0 || total > ref.PRScale*2 {
		t.Fatalf("total mass %d outside sane envelope", total)
	}
}

// TestPageRankExecutesOnlyEmitsAndCompletions pins the kernel's visit count:
// an executed visitor is an emit (one per vertex, iteration and holder of a
// piece of the vertex's row) or the one contribution that completed an
// iteration — never a contribution that merely arrived while a completion
// trigger was still queued. A completion trigger can run several iterations
// at once when the next bucket filled while it waited, which would make the
// count depend on the schedule; a self-loop on every vertex rules that out
// (a vertex's next bucket needs its own next contribution, which only the
// trigger emits), so the count is exact on any rank count.
func TestPageRankExecutesOnlyEmitsAndCompletions(t *testing.T) {
	const n, iters = 40, 3
	edges := randomMultigraph(n, 120, 11)
	for v := graph.Vertex(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v})
	}
	for _, p := range []int{1, 4} {
		g := algotest.Build(t, edges, n, p, partition.EdgeList, false)
		var want uint64
		for v := graph.Vertex(0); v < n; v++ {
			holders := uint64(1)
			for part := g.Parts[g.Parts[0].Master(v)]; ; holders++ {
				next, ok := part.ShouldForward(v)
				if !ok {
					break
				}
				part = g.Parts[next]
			}
			want += iters * (holders + 1) // emits, and one completion per iteration
		}
		_, stats := g.Run(t, defaultCfg, engine.Spec{Algo: engine.AlgoPageRank, Iters: iters})
		var executed uint64
		for _, s := range stats {
			executed += s.Executed
		}
		if executed != want {
			t.Errorf("p=%d: executed %d visitors, emits + completions = %d", p, executed, want)
		}
	}
}
