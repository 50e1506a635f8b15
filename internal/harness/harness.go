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
	"havoqgt/internal/pagecache"
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

// CommonOpts configure a distributed run.
type CommonOpts struct {
	P          int              // number of simulated ranks
	Topology   string           // "1d", "2d", "3d" (default "1d")
	Partition  partition.Layout // default partition.EdgeList
	Simplify   bool             // globally remove self loops + duplicates
	OOC        *ooc.Config      // non-nil: every rank's adjacency out of core (Rank and Obs are set per rank)
	FlushBytes int
	Seed       uint64
}

func (o CommonOpts) topologyName() string {
	if o.Topology == "" {
		return "1d"
	}
	return o.Topology
}

// env is the machine-wide state a runner builds before its timed sections:
// the machine, every rank's partition and (out-of-core runs) its store.
type env struct {
	o      CommonOpts
	graph  string
	m      *rt.Machine
	parts  []*partition.Part
	stores ooc.Stores // nil in DRAM runs
}

// setup generates every rank's chunk and builds the partitions on a fresh
// machine, then applies the storage configuration.
func (o CommonOpts) setup(spec GraphSpec) (*env, error) {
	e := &env{o: o, graph: spec.Name, m: rt.NewMachine(o.P)}
	var err error
	e.parts, err = partition.Build(e.m, spec.NumVertices, partition.Undirected(spec.GenChunk), o.Partition, o.Simplify)
	if err == nil && o.OOC != nil {
		e.stores, err = ooc.ExternalizeAll(e.parts, e.m.Obs(), func(*partition.Part) ooc.Config { return *o.OOC })
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { e.stores.Close() }

// run is one timed traversal: the machine's counters restart from a coherent
// zero across rt/mailbox/termination, the query runs on a transient engine
// (engine.RunOnce), and the phase's communication profile is recorded under
// the given phase name.
func (e *env) run(ghosts []*core.GhostTable, spec engine.Spec, phase string) (*engine.Result, core.Stats, time.Duration, error) {
	e.m.ResetStats()
	span := e.m.Obs().StartPhase(string(spec.Algo)+".run", 0)
	start := time.Now()
	res, stats, err := engine.RunOnce(
		engine.Config{Machine: e.m, Parts: e.parts, Ghosts: ghosts, Topology: e.o.topologyName(), Pagers: engine.RowPagers(e.stores.Pagers())},
		engine.Options{Core: core.Config{FlushBytes: e.o.FlushBytes}},
		spec)
	elapsed := time.Since(start)
	span.End()
	if err != nil {
		return nil, core.Stats{}, 0, err
	}
	RecordProfile(PhaseProfile{
		Graph: e.graph, Algo: string(spec.Algo), Phase: phase,
		Topology: e.o.topologyName(), P: e.o.P,
		WallNS:  elapsed.Nanoseconds(),
		Metrics: e.m.Obs().Snapshot(),
	})
	return res, core.Sum(stats), elapsed, nil
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
		if parts[0].GlobalDegree(v) > 0 {
			sources = append(sources, v)
		}
	}
	return sources
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
	Stats          core.Stats
	Cache          pagecache.Stats // summed over ranks
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
		res.Stats.Add(stats)
	}
	res.Cache = e.stores.Stats().Cache
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
	Stats       core.Stats
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
		// Fig. 6's cascade sends the paper's one notice per removed edge (its
		// dense first round a count per peer and vertex); k-core reads no
		// ghost table, so none is built.
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
	Stats       core.Stats
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
	// Max degree for the Figure 11 x-axis: the hub's, from the replicated
	// degree table.
	maxDeg := e.parts[0].GlobalDegree(e.parts[0].Hub)
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
