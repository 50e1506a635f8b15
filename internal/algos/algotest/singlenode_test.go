package algotest_test

// Single-node runs: every rank of the machine in one process, the
// configuration of Table II's Leviathan row. BFS, SSSP and connected
// components must match the sequential references for any rank count, with
// the edges in DRAM or on simulated NVRAM behind each rank's own page cache,
// where visits park on absent pages.

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/obs"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/xrand"
)

// singleNode builds edges over p ranks of one process and, with nv non-nil,
// moves each rank's CSR targets onto simulated NVRAM with its pager wired to
// the engine. The stores are closed when the test ends.
func singleNode(t *testing.T, edges []graph.Edge, n uint64, p int, nv *ooc.Config) (*algotest.Graph, ooc.Stores) {
	t.Helper()
	g := algotest.Build(t, edges, n, p, partition.EdgeList, false)
	if nv == nil {
		return g, nil
	}
	stores, err := ooc.ExternalizeAll(g.Parts, g.Machine.Obs(), func(*partition.Part) ooc.Config { return *nv })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stores.Close() })
	g.Pagers = engine.RowPagers(stores.Pagers())
	return g, stores
}

func randomEdges(seed, n uint64, pairs int) []graph.Edge {
	rng := xrand.New(seed)
	var es []graph.Edge
	for i := 0; i < pairs; i++ {
		es = append(es, graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(rng.Uint64n(n))})
	}
	return graph.Undirect(es)
}

func checkLevels(t *testing.T, edges []graph.Edge, n uint64, source graph.Vertex, got []uint32) {
	t.Helper()
	want, _ := ref.BFS(ref.BuildAdj(edges, n), source)
	for v := uint64(0); v < n; v++ {
		if got[v] != want[v] {
			t.Fatalf("level(%d) = %d, want %d", v, got[v], want[v])
		}
	}
}

func executed(stats []core.Stats) uint64 {
	var sum uint64
	for _, s := range stats {
		sum += s.Executed
	}
	return sum
}

func TestBFSMatchesReference(t *testing.T) {
	edges := randomEdges(7, 256, 800)
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			g, _ := singleNode(t, edges, 256, p, nil)
			res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: 9})
			checkLevels(t, edges, 256, 9, res.Levels)
		})
	}
}

func TestBFSOnRMAT(t *testing.T) {
	gen := generators.NewGraph500(11, 5)
	edges := graph.Undirect(gen.Generate())
	n := gen.NumVertices()
	g, _ := singleNode(t, edges, n, 4, nil)
	res, stats := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: 1})
	checkLevels(t, edges, n, 1, res.Levels)
	if executed(stats) == 0 {
		t.Fatal("no visitors executed")
	}
}

func TestBFSParentsValid(t *testing.T) {
	gen := generators.NewGraph500(9, 2)
	edges := graph.Undirect(gen.Generate())
	n := gen.NumVertices()
	adj := ref.BuildAdj(edges, n)
	g, _ := singleNode(t, edges, n, 4, nil)
	res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	for v := uint64(0); v < n; v++ {
		switch {
		case res.Levels[v] == bfs.Unreached:
			if res.Parents[v] != graph.Nil {
				t.Fatalf("unreached %d has parent", v)
			}
		case graph.Vertex(v) == 0:
			if res.Parents[v] != 0 {
				t.Fatalf("source parent = %d", res.Parents[v])
			}
		default:
			pv := res.Parents[v]
			if res.Levels[pv] != res.Levels[v]-1 || !adj.HasEdge(pv, graph.Vertex(v)) {
				t.Fatalf("bad parent %d for %d", pv, v)
			}
		}
	}
}

// TestBFSExternalMemoryViews: with the edges on simulated NVRAM, each rank
// reads its partition's targets through its own page cache, parking visits
// on absent pages, and the levels are those of the in-memory traversal.
func TestBFSExternalMemoryViews(t *testing.T) {
	gen := generators.NewGraph500(10, 3)
	edges := graph.Undirect(gen.Generate())
	n := gen.NumVertices()
	g, stores := singleNode(t, edges, n, 4, &ooc.Config{
		ResidentFraction: 1.0 / 4, Latency: time.Microsecond, QueueDepth: 16, PageSize: 512,
	})
	res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: 2})
	checkLevels(t, edges, n, 2, res.Levels)
	for r, store := range stores {
		if st := store.Stats().Cache; st.Hits+st.Misses == 0 {
			t.Fatalf("rank %d: external BFS never touched the cache", r)
		}
	}
	if g.Machine.Obs().Snapshot().Counter(obs.CoreParked) == 0 {
		t.Fatal("no visit parked on an absent page")
	}
}

func TestBFSDisconnected(t *testing.T) {
	edges := graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}})
	g, _ := singleNode(t, edges, 6, 3, nil)
	res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if res.Levels[3] != bfs.Unreached || res.Levels[1] != 1 {
		t.Fatalf("levels = %v", res.Levels)
	}
}

func TestBFSSingleVertexGraph(t *testing.T) {
	g, _ := singleNode(t, nil, 1, 2, nil)
	res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if res.Levels[0] != 0 {
		t.Fatal("source not at level 0")
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	const seed = 11
	edges := randomEdges(seed, 128, 600)
	want, _ := ref.Dijkstra(ref.BuildAdj(edges, 128), 3, func(u, v graph.Vertex) uint64 {
		return sssp.Weight(u, v, seed)
	})
	for _, p := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			g, _ := singleNode(t, edges, 128, p, nil)
			res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoSSSP, Source: 3, WeightSeed: seed})
			for v := uint64(0); v < 128; v++ {
				if res.Dist[v] != want[v] {
					t.Fatalf("dist(%d) = %d, want %d", v, res.Dist[v], want[v])
				}
			}
		})
	}
}

func TestCCMatchesReference(t *testing.T) {
	edges := randomEdges(13, 128, 80) // sparse: several components
	wantLabels, wantCount := ref.Components(ref.BuildAdj(edges, 128))
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			g, _ := singleNode(t, edges, 128, p, nil)
			res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoCC})
			if res.Components != wantCount {
				t.Fatalf("components = %d, want %d", res.Components, wantCount)
			}
			for v := range wantLabels {
				if res.Labels[v] != wantLabels[v] {
					t.Fatalf("label(%d) = %d, want %d", v, res.Labels[v], wantLabels[v])
				}
			}
		})
	}
}

func TestCCExternalViews(t *testing.T) {
	gen := generators.NewGraph500(9, 7)
	edges := graph.Undirect(gen.Generate())
	n := gen.NumVertices()
	g, _ := singleNode(t, edges, n, 3, &ooc.Config{
		ResidentFraction: 1.0 / 4, Latency: time.Microsecond, QueueDepth: 8, PageSize: 256,
	})
	res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoCC})
	if _, wantCount := ref.Components(ref.BuildAdj(edges, n)); res.Components != wantCount {
		t.Fatalf("components = %d, want %d", res.Components, wantCount)
	}
}

// TestQuickBFSThreadCountInvariance: BFS levels are independent of the rank
// count and of the (arbitrary) visitor interleaving, for any random graph.
func TestQuickBFSThreadCountInvariance(t *testing.T) {
	f := func(seed uint64, sizeSel, rankSel uint8) bool {
		n := uint64(sizeSel)%96 + 4
		p := int(rankSel)%6 + 1
		edges := randomEdges(seed, n, int(n)*3)
		src := graph.Vertex(xrand.New(seed ^ 1).Uint64n(n))
		g, _ := singleNode(t, edges, n, p, nil)
		res, _ := g.Run(t, algotest.Setup{}, engine.Spec{Algo: engine.AlgoBFS, Source: src})
		want, _ := ref.BFS(ref.BuildAdj(edges, n), src)
		for v := uint64(0); v < n; v++ {
			if res.Levels[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
