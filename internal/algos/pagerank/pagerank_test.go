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

// protocolRecords is what a PageRank of iters iterations sends on parts:
// one run from every rank to every peer per iteration, and per iteration
// after the first one chain record to each of the fragments ranks whose
// first row is a piece of a split row mastered elsewhere.
func protocolRecords(parts []*partition.Part, iters uint64) (records, fragments uint64) {
	p := uint64(len(parts))
	for _, part := range parts {
		if part.StateLen > 0 && !part.IsMaster(part.StateStart) {
			fragments++
		}
	}
	return p*(p-1)*iters + (iters-1)*fragments, fragments
}

// TestPageRankRecordsExact pins the dense protocol's traffic: no visitor
// executes, and every record sent is a protocol record, exactly
// protocolRecords of them. Self-loops on every vertex make rows split
// across ranks, so the chain records are counted too.
func TestPageRankRecordsExact(t *testing.T) {
	const n, iters = 40, 3
	edges := randomMultigraph(n, 120, 11)
	for v := graph.Vertex(0); v < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v})
	}
	want := ref.PageRank(ref.BuildAdj(edges, n), iters)
	for _, p := range []int{1, 4} {
		g := algotest.Build(t, edges, n, p, partition.EdgeList, false)
		res, stats := g.Run(t, defaultCfg, engine.Spec{Algo: engine.AlgoPageRank, Iters: iters})
		var executed, protocol, records uint64
		for _, s := range stats {
			executed += s.Executed
			protocol += s.ProtocolSent
			records += s.Mailbox.RecordsSent
		}
		wantRecords, fragments := protocolRecords(g.Parts, iters)
		if p > 1 && fragments == 0 {
			t.Fatalf("p=%d: no row is split, so no chain record is counted", p)
		}
		if executed != 0 || protocol != wantRecords || records != wantRecords {
			t.Errorf("p=%d: executed %d visitors, sent %d records (%d protocol), want 0 and %d",
				p, executed, records, protocol, wantRecords)
		}
		for v := range want {
			if res.Ranks[v] != want[v] {
				t.Fatalf("p=%d: rank(%d) = %d, ref says %d", p, v, res.Ranks[v], want[v])
			}
		}
	}
}

// TestPageRankSplitHub: a star whose hub also carries a self-loop per leaf,
// so its row is two thirds of the edges and spans at least three ranks on
// four or more under edge-list partitioning — each of them sweeping its piece with
// the contribution the master sends down the chain. Every iteration count,
// rank count and layout must match the reference.
func TestPageRankSplitHub(t *testing.T) {
	const n, leaves = 64, 63
	var star []graph.Edge
	for leaf := graph.Vertex(1); leaf <= leaves; leaf++ {
		star = append(star, graph.Edge{Src: 0, Dst: leaf}, graph.Edge{Src: 0, Dst: 0})
	}
	edges := graph.Undirect(star)
	adj := ref.BuildAdj(edges, n)
	for _, layout := range []partition.Layout{partition.EdgeList, partition.OneD} {
		for _, p := range []int{1, 2, 4, 8} {
			g := algotest.Build(t, edges, n, p, layout, false)
			holders := 0
			for _, part := range g.Parts {
				if _, ok := part.LocalIndex(0); ok && part.CSR.Degree(0) > 0 {
					holders++
				}
			}
			if layout == partition.EdgeList && p >= 4 && holders < 3 {
				t.Fatalf("edge list p=%d: the hub's row spans %d ranks, want at least 3", p, holders)
			}
			for iters := uint32(1); iters <= 5; iters++ {
				res, _ := g.Run(t, defaultCfg, engine.Spec{Algo: engine.AlgoPageRank, Iters: iters})
				want := ref.PageRank(adj, int(iters))
				for v := range want {
					if res.Ranks[v] != want[v] {
						t.Fatalf("layout %d p=%d iters=%d: rank(%d) = %d, ref says %d", layout, p, iters, v, res.Ranks[v], want[v])
					}
				}
			}
		}
	}
}
