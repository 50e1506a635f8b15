// Package harness runs the paper's experiments end to end on the simulated
// distributed machine: it generates graphs in parallel (one chunk per rank),
// builds the partitioned representation, optionally moves edge storage out
// of core (ooc: simulated NVRAM behind the user-space page cache, visits
// parked on missing pages), runs the distributed algorithms — each timed
// traversal is one engine.RunOnce from outside the machine's SPMD set-up
// phase — and aggregates timings and counters into result rows.
//
// Every figure and table of the paper's evaluation section (§VII) has a
// runner in figures.go; cmd/experiments and the root benchmarks are thin
// wrappers around this package.
package harness

import (
	"fmt"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

// GraphSpec describes a synthetic input graph that every rank can generate
// its own chunk of.
type GraphSpec struct {
	Name        string
	NumVertices uint64
	// GenChunk returns rank's share of the directed generator edges.
	GenChunk func(rank, size int) []graph.Edge
	// NumGenEdges is the number of directed generator edges (before
	// undirecting).
	NumGenEdges uint64
}

// RMATSpec is a Graph500-parameter RMAT graph of the given scale.
func RMATSpec(scale uint, seed uint64) GraphSpec {
	g := generators.NewGraph500(scale, seed)
	return GraphSpec{
		Name:        fmt.Sprintf("rmat-s%d", scale),
		NumVertices: g.NumVertices(),
		GenChunk:    g.GenerateChunk,
		NumGenEdges: g.NumEdges(),
	}
}

// PASpec is a preferential-attachment graph with optional rewiring.
func PASpec(n, m uint64, rewire float64, seed uint64) GraphSpec {
	g := generators.NewPA(n, m, rewire, seed)
	return GraphSpec{
		Name:        fmt.Sprintf("pa-n%d-m%d-r%.2f", n, m, rewire),
		NumVertices: n,
		GenChunk:    g.GenerateChunk,
		NumGenEdges: g.NumEdges(),
	}
}

// SWSpec is a Watts–Strogatz small-world graph with the given ring degree
// and rewire probability.
func SWSpec(n, k uint64, rewire float64, seed uint64) GraphSpec {
	g := generators.NewSmallWorld(n, k, rewire, seed)
	return GraphSpec{
		Name:        fmt.Sprintf("sw-n%d-k%d-r%.4f", n, k, rewire),
		NumVertices: n,
		GenChunk:    g.GenerateChunk,
		NumGenEdges: g.NumEdges(),
	}
}

// PartitionKind selects the graph partitioning strategy.
type PartitionKind string

const (
	EdgeList PartitionKind = "edgelist" // the paper's edge list partitioning
	OneD     PartitionKind = "1d"       // traditional 1D baseline
)

// CommonOpts configure a distributed run.
type CommonOpts struct {
	P          int           // number of simulated ranks
	Topology   string        // "1d", "2d", "3d" (default "1d")
	Partition  PartitionKind // default EdgeList
	Simplify   bool          // globally remove self loops + duplicates
	OOC        *ooc.Config   // non-nil: every rank's adjacency out of core (Rank and Obs are set per rank)
	FlushBytes int
	Seed       uint64
}

func (o CommonOpts) topologyName() string {
	if o.Topology == "" {
		return "1d"
	}
	return o.Topology
}

func (o CommonOpts) build(r *rt.Rank, local []graph.Edge, n uint64) (*partition.Part, error) {
	switch {
	case o.Partition == OneD:
		return partition.Build1D(r, local, n)
	case o.Simplify:
		return partition.BuildEdgeListSimple(r, local, n)
	default:
		return partition.BuildEdgeList(r, local, n)
	}
}

// env is the machine-wide state a runner builds, SPMD, before its timed
// sections: the machine, every rank's partition and (out-of-core runs) its
// store and pager.
type env struct {
	o      CommonOpts
	graph  string
	m      *rt.Machine
	parts  []*partition.Part
	stores []*ooc.Store    // nil in DRAM runs
	pagers []core.RowPager // stores[r].Pager(), for engine.Config.Pagers
}

// setup generates every rank's chunk, builds the partitions, and applies the
// storage configuration — one collective phase on a fresh machine.
func (o CommonOpts) setup(spec GraphSpec) (*env, error) {
	e := &env{o: o, graph: spec.Name, m: rt.NewMachine(o.P), parts: make([]*partition.Part, o.P)}
	if o.OOC != nil {
		e.stores = make([]*ooc.Store, o.P)
	}
	errs := make([]error, o.P)
	e.m.Run(func(r *rt.Rank) {
		local := graph.Undirect(spec.GenChunk(r.Rank(), r.Size()))
		part, err := o.build(r, local, spec.NumVertices)
		if err == nil && o.OOC != nil {
			cfg := *o.OOC
			cfg.Rank, cfg.Obs = r.Rank(), e.m.Obs()
			e.stores[r.Rank()], err = ooc.Externalize(part, cfg)
		}
		e.parts[r.Rank()], errs[r.Rank()] = part, err
	})
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	for _, st := range e.stores {
		e.pagers = append(e.pagers, st.Pager())
	}
	return e, nil
}

func (e *env) close() {
	for _, st := range e.stores {
		if st != nil {
			st.Close()
		}
	}
}

// run is one timed traversal: the machine's counters restart from a coherent
// zero across rt/mailbox/termination, the query runs on a transient engine
// (engine.RunOnce), and the phase's communication profile is recorded under
// the given phase name.
func (e *env) run(ghosts []*core.GhostTable, spec engine.Spec, phase string) (*engine.Result, AggStats, time.Duration, error) {
	e.m.ResetStats()
	span := e.m.Obs().StartPhase(string(spec.Algo)+".run", 0)
	start := time.Now()
	res, stats, err := engine.RunOnce(
		engine.Config{Machine: e.m, Parts: e.parts, Ghosts: ghosts, Topology: e.o.topologyName(), Pagers: e.pagers},
		engine.Options{Core: core.Config{FlushBytes: e.o.FlushBytes}},
		spec)
	elapsed := time.Since(start)
	span.End()
	if err != nil {
		return nil, AggStats{}, 0, err
	}
	RecordProfile(PhaseProfile{
		Graph: e.graph, Algo: string(spec.Algo), Phase: phase,
		Topology: e.o.topologyName(), P: e.o.P,
		WallNS:  elapsed.Nanoseconds(),
		Metrics: e.m.Obs().Snapshot(),
	})
	return res, sumStats(stats), elapsed, nil
}

// pickSources selects n distinct source vertices with at least one edge,
// deterministically from the seed.
func pickSources(parts []*partition.Part, n int, seed uint64) []graph.Vertex {
	rng := xrand.New(xrand.Mix64(seed) ^ 0xb105f00d)
	var sources []graph.Vertex
	seen := map[graph.Vertex]bool{}
	for attempts := 0; len(sources) < n && attempts < 10000; attempts++ {
		v := graph.Vertex(rng.Uint64n(parts[0].NumVertices))
		if seen[v] {
			continue
		}
		seen[v] = true
		if parts[parts[0].Master(v)].GlobalDegree(v) > 0 {
			sources = append(sources, v)
		}
	}
	return sources
}

// AggStats are cluster-wide sums of the per-rank queue counters.
type AggStats struct {
	VisitorsExecuted uint64
	VisitorsPushed   uint64
	GhostFiltered    uint64
	Forwarded        uint64
	EnvelopesSent    uint64
	RecordsSent      uint64
	DetectorWaves    uint64
}

// sumStats folds one query's per-rank counters (Ticket.Stats).
func sumStats(stats []core.Stats) AggStats {
	var a AggStats
	for _, s := range stats {
		a.add(AggStats{
			VisitorsExecuted: s.Executed,
			VisitorsPushed:   s.Pushed,
			GhostFiltered:    s.GhostFiltered,
			Forwarded:        s.Forwarded,
			EnvelopesSent:    s.Mailbox.EnvelopesSent,
			RecordsSent:      s.Mailbox.RecordsSent,
			DetectorWaves:    s.DetectorWaves,
		})
	}
	return a
}

// add accumulates b: sums, except the wave count, which is a maximum.
func (a *AggStats) add(b AggStats) {
	a.VisitorsExecuted += b.VisitorsExecuted
	a.VisitorsPushed += b.VisitorsPushed
	a.GhostFiltered += b.GhostFiltered
	a.Forwarded += b.Forwarded
	a.EnvelopesSent += b.EnvelopesSent
	a.RecordsSent += b.RecordsSent
	a.DetectorWaves = max(a.DetectorWaves, b.DetectorWaves)
}

// CacheAgg aggregates page-cache statistics across ranks.
type CacheAgg struct {
	Hits, Misses uint64
}

// HitRate returns the cluster-wide cache hit rate.
func (c CacheAgg) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 1
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

func (e *env) cacheStats() CacheAgg {
	var c CacheAgg
	for _, store := range e.stores {
		st := store.Stats().Cache
		c.Hits += st.Hits
		c.Misses += st.Misses
	}
	return c
}

// BFSResult summarizes a BFS experiment.
type BFSResult struct {
	Graph          string
	P              int
	NumVertices    uint64
	GlobalEdges    uint64 // stored directed edges
	BuildTime      time.Duration
	Sources        int
	TotalTime      time.Duration // summed traversal time over sources
	TraversedEdges uint64        // summed over sources (undirected count)
	TEPS           float64
	MaxLevel       uint32
	Stats          AggStats
	Cache          CacheAgg
}

// BFSOpts configure a BFS experiment.
type BFSOpts struct {
	CommonOpts
	Graph    GraphSpec
	Sources  int  // BFS roots to run and sum (Graph500 style)
	Ghosts   int  // ghost table cap per partition (core.BuildGhostTables: 0 = every candidate, negative = none)
	Validate bool // run Graph500-style validation per source
}

// TraversedEdges returns the Graph500 traversed-edge count of a BFS: the
// stored directed edges incident to reached vertices, halved.
func TraversedEdges(parts []*partition.Part, levels []uint32) uint64 {
	var sum uint64
	for _, part := range parts {
		for i := 0; i < part.StateLen; i++ {
			if levels[part.Vertex(i)] != bfs.Unreached {
				sum += part.CSR.Degree(i)
			}
		}
	}
	return sum / 2
}

// RunBFS executes the experiment and returns aggregate results.
func RunBFS(o BFSOpts) (BFSResult, error) {
	if o.Sources <= 0 {
		o.Sources = 1
	}
	res := BFSResult{Graph: o.Graph.Name, P: o.P, NumVertices: o.Graph.NumVertices, Sources: o.Sources}
	buildStart := time.Now()
	e, err := o.setup(o.Graph)
	if err != nil {
		return res, err
	}
	defer e.close()
	res.BuildTime = time.Since(buildStart)
	res.GlobalEdges = e.parts[0].GlobalEdges
	sources := pickSources(e.parts, o.Sources, o.Seed)
	if len(sources) == 0 {
		return res, fmt.Errorf("harness: no BFS source with edges found")
	}
	ghosts := core.BuildGhostTables(e.parts, o.Ghosts)
	for _, store := range e.stores {
		store.ResetStats()
	}
	for si, src := range sources {
		out, stats, elapsed, err := e.run(ghosts, engine.Spec{Algo: engine.AlgoBFS, Source: src}, fmt.Sprintf("bfs.src%d", si))
		if err != nil {
			return res, err
		}
		if o.Validate {
			if err := ValidateBFS(e.parts, out.Levels, out.Parents, src); err != nil {
				return res, fmt.Errorf("BFS validation failed: %w", err)
			}
		}
		res.TotalTime += elapsed
		res.TraversedEdges += TraversedEdges(e.parts, out.Levels)
		_, depth := bfs.Summary(out.Levels)
		res.MaxLevel = max(res.MaxLevel, depth)
		res.Stats.add(stats)
	}
	res.Cache = e.cacheStats()
	if res.TotalTime > 0 {
		res.TEPS = float64(res.TraversedEdges) / res.TotalTime.Seconds()
	}
	return res, nil
}

// KCoreResult summarizes one k of a k-core experiment.
type KCoreResult struct {
	Graph       string
	P           int
	K           uint32
	GlobalEdges uint64
	Time        time.Duration
	CoreSize    uint64
	Stats       AggStats
}

// KCoreOpts configure a k-core experiment (one traversal per k).
type KCoreOpts struct {
	CommonOpts
	Graph GraphSpec
	Ks    []uint32
}

// RunKCore executes the experiment for each k.
func RunKCore(o KCoreOpts) ([]KCoreResult, error) {
	o.Simplify = true // k-core requires a simple graph
	e, err := o.setup(o.Graph)
	if err != nil {
		return nil, err
	}
	defer e.close()
	results := make([]KCoreResult, len(o.Ks))
	for i, k := range o.Ks {
		// No ghost table, so no combiner: Fig. 6 measures the paper's k-core,
		// one notice per removed edge.
		out, stats, elapsed, err := e.run(nil, engine.Spec{Algo: engine.AlgoKCore, K: k}, fmt.Sprintf("kcore.k%d", k))
		if err != nil {
			return nil, err
		}
		results[i] = KCoreResult{
			Graph: o.Graph.Name, P: o.P, K: k,
			GlobalEdges: e.parts[0].GlobalEdges,
			Time:        elapsed, CoreSize: out.CoreSize, Stats: stats,
		}
	}
	return results, nil
}

// TriangleResult summarizes a triangle-counting experiment.
type TriangleResult struct {
	Graph       string
	P           int
	GlobalEdges uint64
	MaxDegree   uint64
	Time        time.Duration
	Triangles   uint64
	Stats       AggStats
}

// TriangleOpts configure a triangle-counting experiment.
type TriangleOpts struct {
	CommonOpts
	Graph GraphSpec
}

// RunTriangles executes the experiment.
func RunTriangles(o TriangleOpts) (TriangleResult, error) {
	o.Simplify = true // the paper counts on simple graphs
	e, err := o.setup(o.Graph)
	if err != nil {
		return TriangleResult{}, err
	}
	defer e.close()
	// Max degree (over masters) for the Figure 11 x-axis.
	var maxDeg uint64
	for _, part := range e.parts {
		lo, hi := part.Owners.MasterRange(part.Rank)
		for v := lo; v < hi; v++ {
			maxDeg = max(maxDeg, part.GlobalDegree(graph.Vertex(v)))
		}
	}
	// Triangle counting cannot use ghosts.
	out, stats, elapsed, err := e.run(nil, engine.Spec{Algo: engine.AlgoTriangles}, "triangle.count")
	if err != nil {
		return TriangleResult{}, err
	}
	return TriangleResult{
		Graph: o.Graph.Name, P: o.P,
		GlobalEdges: e.parts[0].GlobalEdges, MaxDegree: maxDeg,
		Time: elapsed, Triangles: out.Triangles, Stats: stats,
	}, nil
}
