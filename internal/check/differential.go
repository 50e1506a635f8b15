package check

import (
	"fmt"
	"time"

	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/faults"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

// Algos lists the algorithms the differential harness exercises: every
// query type, in the engine's table order (which RandomCase's draw depends
// on).
func Algos() []engine.Algo { return engine.Algos() }

// Topologies lists the routing topologies the harness sweeps.
func Topologies() []string { return []string{"1d", "2d", "3d"} }

// Case is one randomized differential run: an algorithm on a random graph,
// executed on the simulated machine through the one executor
// (engine.RunOnce) under a routing topology, a flush threshold, a ghost
// setting and a resident fraction, compared against the sequential reference
// in internal/ref, with the conservation invariants asserted on the query's
// per-rank stats.
type Case struct {
	Algo       engine.Algo // one of Algos()
	Seed       uint64      // graph shape, source vertex and edge weights
	N          uint64      // vertices
	EdgeFactor int         // ≈ directed edges per vertex before undirecting
	Ranks      int         // simulated machine size
	Topo       string      // "1d", "2d", "3d"
	FlushBytes int         // mailbox aggregation threshold (1 = degenerate)
	K          uint32      // k-core parameter (kcore only)
	// Ghosts is the ghost setting handed to core.BuildGhostTables: 0 the
	// default tables, negative none. bfs and cc filter on the table; sssp,
	// kcore and pagerank do not read it, so their results must not move.
	Ghosts int
	// Resident, when in (0, 1), moves every rank's adjacency out of core at
	// that resident fraction (ooc.ExternalizeAll, 64-byte pages so these tiny
	// graphs span many) and hands the pagers to the engine, so the traversal
	// parks and unparks. 0 runs fully resident.
	Resident float64
	// Graph, when non-nil, is the edge list over N vertices used as it is
	// instead of the seeded random one: a shape a test pins by hand. It is
	// undirected (both directions listed) unless the case's algorithm reads
	// edge direction and the test means it — pagerank pushes along stored
	// out-edges, and so does its reference.
	Graph []graph.Edge

	// Fault, when non-nil, arms a deterministic injector on the machine's
	// transport for the traversal phase only — graph construction runs
	// clean, because the fault model covers the query-time message plane,
	// not the bulk-synchronous build collectives.
	Fault *faults.Plan
	// Reliable runs the mailbox's seq/ack/retransmit protocol underneath
	// the traversal so the case survives drop/duplicate/corrupt rules on
	// the mailbox plane. Delay/reorder-only plans do not need it.
	Reliable        bool
	RTOBase, RTOMax time.Duration
}

func (c Case) String() string {
	s := fmt.Sprintf("%s/seed=%d/n=%d/ef=%d/p=%d/%s/flush=%d/ghosts=%d/resident=%.3g",
		c.Algo, c.Seed, c.N, c.EdgeFactor, c.Ranks, c.Topo, c.FlushBytes, c.Ghosts, c.Resident)
	if c.Graph != nil {
		s += fmt.Sprintf("/pinned=%d-edges", len(c.Graph))
	}
	return s
}

// flushGrid holds the threshold sweep, including the degenerate 1-byte
// threshold (every record ships alone) and a huge one (nothing ships until
// FlushAll).
var flushGrid = []int{1, 24, 256, 4096, 1 << 20}

// ghostGrid holds the ghost settings swept: off, and the default tables.
var ghostGrid = []int{-1, 0}

// residentGrid holds the resident-fraction sweep: fully resident, and two
// budgets tight enough that visits park on absent pages.
var residentGrid = []float64{0, 0.5, 0.125}

// RandomCase draws a case from rng. Sizes stay small so thousands of cases
// run in seconds; the coverage comes from the cross product, not the scale.
func RandomCase(rng *xrand.Rand) Case {
	algos, topos := Algos(), Topologies()
	return Case{
		Algo:       algos[rng.Intn(len(algos))],
		Seed:       rng.Uint64(),
		N:          8 + rng.Uint64n(56),
		EdgeFactor: 1 + rng.Intn(4),
		Ranks:      []int{1, 2, 3, 4, 5, 8, 9}[rng.Intn(7)],
		Topo:       topos[rng.Intn(len(topos))],
		FlushBytes: flushGrid[rng.Intn(len(flushGrid))],
		K:          1 + uint32(rng.Intn(4)),
		Resident:   residentGrid[rng.Intn(len(residentGrid))],
		Ghosts:     ghostGrid[rng.Intn(len(ghostGrid))],
	}
}

// Edges returns the case's pinned graph, or its deterministic random edge
// list. kcore requires a simple undirected graph; the rest — triangle
// counting included, which dedupes internally — tolerate duplicates and
// self-loops, which the partition builder keeps.
func (c Case) Edges() []graph.Edge {
	if c.Graph != nil {
		return c.Graph
	}
	rng := xrand.New(c.Seed)
	m := int(c.N) * c.EdgeFactor
	pairs := make([]graph.Edge, m)
	for i := range pairs {
		pairs[i] = graph.Edge{
			Src: graph.Vertex(rng.Uint64n(c.N)),
			Dst: graph.Vertex(rng.Uint64n(c.N)),
		}
	}
	if c.Algo == engine.AlgoKCore {
		return graph.Simplify(graph.Undirect(pairs))
	}
	return graph.Undirect(pairs)
}

// source derives the deterministic source vertex for BFS/SSSP (0 on a graph
// with no vertex, which only cc's shapes use).
func (c Case) source() graph.Vertex {
	return graph.Vertex(xrand.Mix64(c.Seed^0xA5A5) % max(c.N, 1))
}

// iters derives the deterministic pagerank iteration count.
func (c Case) iters() uint32 {
	return 1 + uint32(xrand.Mix64(c.Seed^0x5151)%12)
}

// spec is the case's query: every parameter derived, the ones its type does
// not read dropped.
func (c Case) spec() engine.Spec {
	return engine.Canonical(engine.Spec{Algo: c.Algo, Source: c.source(), WeightSeed: c.Seed, K: c.K, Iters: c.iters()})
}

// Run executes the case and returns a non-nil error describing any
// divergence from the reference implementation or any violated conservation
// invariant.
func (c Case) Run() error {
	_, err := c.run()
	return err
}

// run is Run, also returning the query's per-rank stats.
func (c Case) run() (stats []core.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", c, r)
		}
	}()
	fail := func(err error) ([]core.Stats, error) { return nil, fmt.Errorf("%s: %w", c, err) }
	topo, err := mailbox.ByName(c.Topo, c.Ranks)
	if err != nil {
		return fail(err)
	}
	edges := c.Edges()

	// Build phase: clean transport, fully resident.
	cfg := engine.Config{Machine: rt.NewMachine(c.Ranks), Topology: c.Topo}
	if cfg.Parts, err = partition.Build(cfg.Machine, c.N, partition.RoundRobin(edges), partition.EdgeList, false); err != nil {
		return fail(err)
	}
	cfg.Ghosts = core.BuildGhostTables(cfg.Parts, c.Ghosts)
	if c.Resident > 0 && c.Resident < 1 {
		stores, err := ooc.ExternalizeAll(cfg.Parts, cfg.Machine.Obs(), func(*partition.Part) ooc.Config {
			return ooc.Config{ResidentFraction: c.Resident, PageSize: 64, Latency: time.Microsecond}
		})
		if err != nil {
			return fail(err)
		}
		defer stores.Close()
		cfg.Pagers = engine.RowPagers(stores.Pagers())
	}
	for _, part := range cfg.Parts {
		if err := Error(EdgeTags(part)); err != nil {
			return fail(err)
		}
	}
	if c.Fault != nil {
		inj := faults.New(*c.Fault, cfg.Machine.Obs())
		cfg.Machine.SetTransport(inj)
		inj.Arm()
	}
	res, stats, err := engine.RunOnce(cfg, engine.Options{Core: core.Config{FlushBytes: c.FlushBytes,
		Reliable: c.Reliable, RTOBase: c.RTOBase, RTOMax: c.RTOMax}}, c.spec())
	if err != nil {
		return fail(err)
	}

	adj := ref.BuildAdj(edges, c.N)
	switch c.Algo {
	case engine.AlgoBFS, engine.AlgoBFSDO:
		want, _ := ref.BFS(adj, c.source())
		err = diff("bfs level", res.Levels, want)
	case engine.AlgoSSSP:
		want, _ := ref.Dijkstra(adj, c.source(), func(u, v graph.Vertex) uint64 {
			return sssp.Weight(u, v, c.Seed)
		})
		err = diff("sssp dist", res.Dist, want)
	case engine.AlgoCC:
		want, count := ref.Components(adj)
		if err = diff("cc label", res.Labels, want); err == nil && res.Components != count {
			err = fmt.Errorf("cc counted %d components, ref says %d", res.Components, count)
		}
	case engine.AlgoKCore:
		err = diff("kcore in-core", res.InCore, ref.KCore(adj, c.K))
	case engine.AlgoTriangles:
		// The distributed counter dedupes internally, so its answer on the
		// raw multigraph must equal the reference on the simplified graph.
		if want := ref.CountTriangles(ref.BuildAdj(graph.Simplify(edges), c.N)); res.Triangles != want {
			err = fmt.Errorf("counted %d triangles, ref says %d", res.Triangles, want)
		}
	case engine.AlgoPageRank:
		err = diff("pagerank rank", res.Ranks, ref.PageRank(adj, int(c.iters())))
	}
	if err != nil {
		return fail(err)
	}

	// The strict conservation laws describe a clean transport: an armed
	// injector legitimately perturbs the raw envelope/hop counters (dropped
	// frames are re-sent, corrupt frames are CRC-rejected), so under faults
	// the correctness bar is the reference comparison above, not the
	// transport-level ledger.
	if c.Fault == nil {
		if err := Error(Traversal(topo, stats)); err != nil {
			return fail(err)
		}
		if err := Error(LedgerMirrored(cfg.Machine.Obs(), stats)); err != nil {
			return fail(err)
		}
	}
	return stats, nil
}

// diff compares a per-vertex result array with the reference's.
func diff[T comparable](what string, got, want []T) error {
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s(%d) = %v, ref says %v", what, v, got[v], want[v])
		}
	}
	return nil
}
