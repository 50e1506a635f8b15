package harness

import (
	"fmt"
	"time"

	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/rt"
)

// Sizing scales every experiment. Defaults reproduce the paper's series
// shapes at laptop scale; the paper's own parameters are recorded in the
// notes of each table.
type Sizing struct {
	Seed uint64
	// MaxP is the largest simulated rank count in weak-scaling sweeps.
	MaxP int
	// VertsPerRankLog2 is the weak-scaling vertices-per-rank exponent
	// (paper: 18 on BG/P).
	VertsPerRankLog2 uint
	// HubScaleMax is the largest RMAT scale in the hub-growth census
	// (paper: 30).
	HubScaleMax uint
	// Sources is the number of BFS roots per measurement.
	Sources int
}

// DefaultSizing targets tens of seconds for the full experiment suite.
func DefaultSizing() Sizing {
	return Sizing{
		Seed:             42,
		MaxP:             16,
		VertsPerRankLog2: 12,
		HubScaleMax:      20,
		Sources:          4,
	}
}

func (s Sizing) pSweep() []int {
	var ps []int
	for p := 1; p <= s.MaxP; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// Figure1 reproduces the hub-growth census: total edges belonging to the
// max-degree vertex and to vertices with degree >= 1,000 and >= 10,000, as
// RMAT scale grows.
func Figure1(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 1: hub growth for Graph500 (RMAT) graphs",
		Columns: []string{"scale", "vertices", "undirected-edges", "max-degree", "edges-deg>=1k", "edges-deg>=10k"},
		Notes: []string{
			"paper sweeps scale up to 30; average degree fixed at 16 (undirected 32)",
			"expected shape: all three hub series grow steadily with scale",
		},
	}
	for scale := s.HubScaleMax - 6; scale <= s.HubScaleMax; scale++ {
		g := generators.NewGraph500(scale, s.Seed)
		edges := graph.Undirect(g.Generate())
		deg := graph.OutDegrees(edges, g.NumVertices())
		c := graph.Census(deg)
		t.AddRow(scale, c.NumVertices, c.NumEdges/2, c.MaxDegree, c.EdgesDeg1K, c.EdgesDeg10K)
	}
	return t
}

// Figure2 reproduces the weak-scaled partition-imbalance comparison of 1D
// and 2D block partitioning (plus the paper's edge-list partitioning, which
// is balanced by construction).
func Figure2(s Sizing) *Table {
	// Imbalance is a pure counting model (no simulated machine), so the
	// sweep extends well past the traversal experiments' rank counts; the
	// 1D-vs-2D gap emerges once the max hub degree approaches |E|/p.
	verts := s.VertsPerRankLog2 - 2
	t := &Table{
		Title:   "Figure 2: weak scaling of partition imbalance (max/mean edges per partition)",
		Columns: []string{"p", "scale", "imbalance-1d", "imbalance-2d", "imbalance-edgelist"},
		Notes: []string{
			fmt.Sprintf("weak scaled at 2^%d vertices per partition (paper: 2^18)", verts),
			"expected shape: 1D grows with p, 2D stays low, edge-list is exactly balanced",
		},
	}
	var ps []int
	for p := 4; p <= 64*s.MaxP && verts+log2(p) <= s.HubScaleMax; p *= 4 {
		ps = append(ps, p)
	}
	for _, p := range ps {
		scale := verts + log2(p)
		g := generators.NewGraph500(scale, s.Seed)
		edges := graph.Undirect(g.Generate())
		n := g.NumVertices()
		t.AddRow(p, scale,
			partition.Imbalance(partition.OneDEdgeCounts(edges, n, p)),
			partition.Imbalance(partition.TwoDEdgeCounts(edges, n, p)),
			partition.Imbalance(partition.EdgeListEdgeCounts(uint64(len(edges)), p)),
		)
	}
	return t
}

// Figure3 demonstrates edge list partitioning on the paper's example graph
// (8 vertices, 16 edges, 4 partitions).
func Figure3() *Table {
	src := []graph.Vertex{0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 5, 5, 6, 7, 7}
	dst := []graph.Vertex{1, 0, 2, 1, 3, 4, 5, 6, 7, 2, 2, 2, 7, 2, 2, 5}
	edges := make([]graph.Edge, len(src))
	for i := range src {
		edges[i] = graph.Edge{Src: src[i], Dst: dst[i]}
	}
	const p = 4
	t := &Table{
		Title:   "Figure 3: edge list partitioning example (8 vertices, 16 edges, 4 partitions)",
		Columns: []string{"partition", "edges", "first-src", "last-src", "forwards-to", "min_owner(2)", "min_owner(5)"},
		Notes: []string{
			"expected: vertices 2 and 5 span partitions; min_owner(2)=0, max_owner(2)=2, min_owner(5)=2, max_owner(5)=3",
		},
	}
	parts, err := partition.Build(rt.NewMachine(p), 8, partition.RoundRobin(edges), partition.EdgeList, false)
	if err != nil {
		panic(err)
	}
	for rank, part := range parts {
		var first, last, fwd string = "-", "-", "-"
		if part.CSR.NumEdges() > 0 {
			for row := 0; row < part.CSR.NumRows(); row++ {
				if part.CSR.Degree(row) > 0 {
					if first == "-" {
						first = fmt.Sprint(part.Vertex(row))
					}
					last = fmt.Sprint(part.Vertex(row))
				}
			}
		}
		if part.HasForward {
			fwd = fmt.Sprintf("v%d->rank%d", part.ForwardVertex, part.ForwardTo)
		}
		t.AddRow(rank, part.LocalEdges(), first, last, fwd,
			part.Master(2), part.Master(5))
	}
	return t
}

// Figure4 demonstrates 2D communicator routing for 16 ranks, including the
// paper's example route 11 -> 9 -> 5, and the channel-count reductions of 2D
// and 3D routing.
func Figure4(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 4: routed mailbox topologies (channels per rank, hops)",
		Columns: []string{"p", "topology", "max-channels", "hops", "route 11->5 (p=16)"},
		Notes: []string{
			"expected: 2D routes rank 11 to rank 5 through rank 9; channels drop from p-1 to O(sqrt p) / O(p^(1/3))",
		},
	}
	for _, p := range []int{16, 64, 256} {
		for _, name := range []string{"1d", "2d", "3d"} {
			topo, err := mailbox.ByName(name, p)
			if err != nil {
				panic(err)
			}
			route := "-"
			if p == 16 {
				hops := []int{11}
				cur := 11
				for cur != 5 {
					cur = topo.NextHop(cur, 5)
					hops = append(hops, cur)
				}
				route = fmt.Sprint(hops)
			}
			t.AddRow(p, name, topo.MaxChannels(), topo.Diameter(), route)
		}
	}
	return t
}

// Figure5 reproduces the weak scaling of asynchronous BFS on RMAT graphs,
// with a sequential in-memory reference point (standing in for the Graph500
// reference series the paper compares against).
func Figure5(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 5: weak scaling of asynchronous BFS (RMAT)",
		Columns: []string{"p", "scale", "edges", "TEPS", "TEPS/rank", "visitors", "ghost-filtered", "seq-ref-TEPS"},
		Notes: []string{
			fmt.Sprintf("weak scaled at 2^%d vertices per rank (paper: 2^18, up to 131K cores)", s.VertsPerRankLog2),
			"256 ghosts per partition, 3d routed mailbox, as in the paper's BFS runs",
			"all ranks share one host: aggregate TEPS saturating at the core count is expected;",
			"the paper's shape claim is near-linear weak scaling of TEPS with p",
		},
	}
	for _, p := range s.pSweep() {
		scale := s.VertsPerRankLog2 + log2(p)
		spec := RMATSpec(scale, s.Seed)
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "3d", Seed: s.Seed},
			Graph:      spec,
			Sources:    s.Sources,
			Ghosts:     256,
		})
		if err != nil {
			panic(err)
		}
		seqTEPS := sequentialBFSTEPS(spec, s.Sources, s.Seed)
		t.AddRow(p, scale, res.GlobalEdges/2, res.TEPS, res.TEPS/float64(p),
			res.Stats.Executed, res.Stats.GhostFiltered, seqTEPS)
	}
	return t
}

// sequentialBFSTEPS times the in-memory reference BFS on the same graph.
func sequentialBFSTEPS(spec GraphSpec, sources int, seed uint64) float64 {
	edges := graph.Undirect(spec.GenChunk(0, 1))
	adj := ref.BuildAdj(edges, spec.NumVertices)
	var total time.Duration
	var traversed uint64
	for i := 0; i < sources; i++ {
		src := pickSequentialSource(adj, seed+uint64(i))
		start := time.Now()
		levels, _ := ref.BFS(adj, src)
		total += time.Since(start)
		traversed += ref.ReachedEdges(adj, levels)
	}
	if total == 0 {
		return 0
	}
	return float64(traversed) / total.Seconds()
}

// Figure6 reproduces the weak scaling of k-core decomposition on RMAT
// graphs, computing cores 4, 16, and 64.
func Figure6(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 6: weak scaling of k-core decomposition (RMAT), k = 4, 16, 64",
		Columns: []string{"p", "scale", "k", "time", "core-size", "visitors"},
		Notes: []string{
			fmt.Sprintf("weak scaled at 2^%d vertices per rank (paper: 2^18 vertices, 2^22 undirected edges per core)", s.VertsPerRankLog2),
			"expected shape: near-linear weak scaling (time roughly flat as p grows with the graph)",
		},
	}
	for _, p := range s.pSweep() {
		scale := s.VertsPerRankLog2 + log2(p)
		results, err := RunKCore(KCoreOpts{
			CommonOpts: CommonOpts{P: p, Topology: "3d", Seed: s.Seed},
			Graph:      RMATSpec(scale, s.Seed),
			Ks:         []uint32{4, 16, 64},
		})
		if err != nil {
			panic(err)
		}
		for _, res := range results {
			t.AddRow(p, scale, res.K, res.Time.Round(time.Millisecond), res.CoreSize, res.Stats.Executed)
		}
	}
	return t
}

// Figure7 reproduces the weak scaling of triangle counting on Small World
// graphs at rewire probabilities 0%, 10%, 20%, 30%.
func Figure7(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 7: weak scaling of triangle counting (Small World, degree 32)",
		Columns: []string{"p", "n", "rewire", "time", "triangles", "visitors"},
		Notes: []string{
			"small-world graphs isolate hub effects: uniform degree, rewire controls structure",
			"expected shape: rewiring destroys ring triangles; time stays near-flat under weak scaling",
		},
	}
	for _, p := range s.pSweep() {
		n := uint64(p) << (s.VertsPerRankLog2 - 1)
		for _, rw := range []float64{0, 0.1, 0.2, 0.3} {
			res, err := RunTriangles(TriangleOpts{
				CommonOpts: CommonOpts{P: p, Topology: "3d", Seed: s.Seed},
				Graph:      SWSpec(n, 32, rw, s.Seed),
			})
			if err != nil {
				panic(err)
			}
			t.AddRow(p, n, rw, res.Time.Round(time.Millisecond), res.Triangles, res.Stats.Executed)
		}
	}
	return t
}

// Figure10 reproduces the diameter effect on BFS: Small World graphs of
// fixed size whose rewire probability controls the diameter; BFS level depth
// is the x-axis as in the paper.
func Figure10(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 10: effect of graph diameter on BFS performance (Small World)",
		Columns: []string{"rewire", "bfs-depth", "time", "TEPS"},
		Notes: []string{
			"fixed graph size and rank count; decreasing rewire increases diameter",
			"expected shape: BFS time grows (TEPS falls) with BFS level depth",
		},
	}
	p := min(8, s.MaxP)
	n := uint64(1) << (s.VertsPerRankLog2 + 2)
	for _, rw := range []float64{0.3, 0.1, 0.03, 0.01, 0.003, 0.001} {
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", Seed: s.Seed},
			Graph:      SWSpec(n, 16, rw, s.Seed),
			Sources:    1,
			Ghosts:     256,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(rw, res.MaxLevel, res.TotalTime.Round(time.Millisecond), res.TEPS)
	}
	return t
}

// Figure11 reproduces the max-degree effect on triangle counting:
// preferential-attachment graphs of fixed size whose rewire probability
// flattens the hubs; maximum vertex degree is the x-axis.
func Figure11(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 11: effect of max vertex degree on triangle counting (PA + rewire)",
		Columns: []string{"rewire", "max-degree", "time", "triangles", "visitors"},
		Notes: []string{
			"fixed graph size and rank count; lower rewire -> heavier hubs",
			"expected shape: time grows with maximum vertex degree",
		},
	}
	p := min(8, s.MaxP)
	n := uint64(1) << s.VertsPerRankLog2
	for _, rw := range []float64{1.0, 0.75, 0.5, 0.25, 0.0} {
		res, err := RunTriangles(TriangleOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", Seed: s.Seed},
			Graph:      PASpec(n, 8, rw, s.Seed),
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(rw, res.MaxDegree, res.Time.Round(time.Millisecond), res.Triangles, res.Stats.Executed)
	}
	return t
}

// Figure12 reproduces the edge list partitioning vs 1D comparison for BFS on
// RMAT graphs (the paper reduces graph sizes so 1D does not run out of
// memory).
func Figure12(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 12: edge list partitioning vs 1D (BFS on RMAT)",
		Columns: []string{"p", "scale", "TEPS-edgelist", "TEPS-1d", "edgelist/1d", "imbalance-1d"},
		Notes: []string{
			fmt.Sprintf("weak scaled at 2^%d vertices per rank (paper: 2^17, reduced for 1D feasibility)", s.VertsPerRankLog2-1),
			"expected shape: edge-list stays near-linear; 1D slows down as hub imbalance grows",
		},
	}
	for _, p := range s.pSweep() {
		scale := s.VertsPerRankLog2 - 1 + log2(p)
		spec := RMATSpec(scale, s.Seed)
		el, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", Partition: partition.EdgeList, Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: 256,
		})
		if err != nil {
			panic(err)
		}
		oned, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", Partition: partition.OneD, Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: 256,
		})
		if err != nil {
			panic(err)
		}
		g := generators.NewGraph500(scale, s.Seed)
		und := graph.Undirect(g.Generate())
		imb := partition.Imbalance(partition.OneDEdgeCounts(und, g.NumVertices(), p))
		ratio := 0.0
		if oned.TEPS > 0 {
			ratio = el.TEPS / oned.TEPS
		}
		t.AddRow(p, scale, el.TEPS, oned.TEPS, ratio, imb)
	}
	return t
}

// Figure13 reproduces the ghost-vertex sweep: percent BFS improvement of k
// ghosts per partition over no ghosts. The paper stops at 512; the sweep goes
// on to "all", every remote vertex a rank holds two or more edges to, which
// is the library's default.
func Figure13(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 13: percent improvement of ghost vertices vs no ghosts (BFS, RMAT)",
		Columns: []string{"ghosts", "TEPS", "improvement-%", "ghost-filtered-visitors"},
		Notes: []string{
			"paper: 4096 cores, 2^30 vertices; 1 ghost already gives >12%, 512 gives 19.5%",
			"expected shape: monotone-ish improvement; on a few ranks holding many edges each it keeps growing past the paper's 512, up to full coverage",
		},
	}
	p := min(8, s.MaxP)
	scale := s.VertsPerRankLog2 + 3
	spec := RMATSpec(scale, s.Seed)
	base, err := RunBFS(BFSOpts{
		CommonOpts: CommonOpts{P: p, Topology: "2d", Seed: s.Seed},
		Graph:      spec, Sources: s.Sources, Ghosts: -1,
	})
	if err != nil {
		panic(err)
	}
	t.AddRow(0, base.TEPS, 0.0, 0)
	for _, k := range []int{1, 4, 16, 64, 256, 512, 1024, 4096, 0} {
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: k,
		})
		if err != nil {
			panic(err)
		}
		imp := 0.0
		if base.TEPS > 0 {
			imp = 100 * (res.TEPS - base.TEPS) / base.TEPS
		}
		label := any(k)
		if k == 0 {
			label = "all"
		}
		t.AddRow(label, res.TEPS, imp, res.Stats.GhostFiltered)
	}
	return t
}

// log2 of a positive power of two (or floor(log2) otherwise).
func log2(p int) uint {
	var l uint
	for p > 1 {
		p >>= 1
		l++
	}
	return l
}

// pickSequentialSource returns the first vertex with edges at or after a
// seeded offset — deterministic per (graph, seed).
func pickSequentialSource(adj ref.Adj, seed uint64) graph.Vertex {
	n := uint64(len(adj))
	start := (seed*2654435761 + 12345) % n
	for i := uint64(0); i < n; i++ {
		v := graph.Vertex((start + i) % n)
		if len(adj[v]) > 0 {
			return v
		}
	}
	return 0
}
