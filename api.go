// Package havoqgt is the high-level facade over the distributed asynchronous
// graph framework: build (or generate) a graph once, partitioned with the
// paper's edge list partitioning across a simulated distributed machine, and
// run BFS (top-down or direction-optimizing), SSSP, connected components,
// k-core decomposition, PageRank, and triangle counting against it with
// single calls.
//
//	g, _ := havoqgt.GenerateRMAT(16, 42, havoqgt.Options{Ranks: 8})
//	bfs, _ := g.BFS(0)
//	fmt.Println(bfs.MaxLevel, bfs.Levels[17])
//
// Every query runs on the one executor, internal/engine's rank loop: through
// the engine attached with StartEngine when there is one — concurrent callers
// then interleave over one message plane — and otherwise through a transient
// engine that lives for the single call. The results are gathered into global
// arrays, which is convenient up to tens of millions of vertices. For per-rank
// state, NVRAM-backed storage or validation, use the internal packages
// directly the way cmd/ and examples/ do.
package havoqgt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// Edge is a directed edge; store both directions (or set Options.Undirect)
// for undirected semantics.
type Edge = graph.Edge

// Vertex is a vertex identifier in [0, NumVertices).
type Vertex = graph.Vertex

// Nil is the "no vertex" sentinel used for unreached parents.
const Nil = graph.Nil

// Unreached is the BFS level of vertices the traversal did not reach.
const Unreached = bfs.Unreached

// MaxPageRankIters bounds a single PageRank query's iteration count.
const MaxPageRankIters = pagerank.MaxIters

// DefaultPageRankIters is the iteration count a PageRank query with iters = 0
// actually runs.
const DefaultPageRankIters = pagerank.DefaultIters

// Options configure the simulated machine and framework features.
type Options struct {
	// Ranks is the number of simulated distributed ranks (default 4).
	Ranks int
	// Topology routes the visitor mailbox: "1d" (direct, default), "2d", "3d".
	Topology string
	// GhostsPerPartition bounds each rank's ghost table, the sender-side
	// filter the monotone visitor algorithms consult (BFS, CC). The
	// default, 0, keeps every remote vertex the rank holds at least two edges
	// to; a positive value caps the table at that many of the most repeated
	// (the paper's experiments use 256); negative disables the filter.
	GhostsPerPartition int
	// Undirect stores both directions of every input edge.
	Undirect bool
	// Simplify removes self loops and duplicate edges globally at build
	// time. KCore and EstimateTriangles need a simple graph and nothing
	// simplifies it for them: set this when the input may hold duplicates or
	// self loops. CountTriangles ignores both and does not need it.
	Simplify bool
}

func (o Options) normalized() Options {
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.Topology == "" {
		o.Topology = "1d"
	}
	return o
}

// Graph is a partitioned graph bound to a simulated machine. Build once,
// query many times. All query methods are safe for concurrent use: with no
// engine attached each call runs on a transient engine of its own and the
// calls serialize on an internal mutex; while an Engine is attached
// (StartEngine) they route through it instead — bypassing the mutex — so
// concurrent callers genuinely interleave.
type Graph struct {
	opts    Options
	n       uint64
	machine *rt.Machine
	parts   []*partition.Part
	ghosts  []*core.GhostTable

	// mu serializes machine phases: a rt.Machine hosts one engine (or one
	// collective phase) at a time, so one-shot calls hold it for the life of
	// their transient engine. eng, when non-nil, is the attached engine the
	// query methods submit to instead.
	mu  sync.Mutex
	eng *Engine

	// stores, when non-nil, hold each rank's out-of-core adjacency backing
	// (SetMemoryBudget). Indexed like parts.
	stores ooc.Stores

	// version is the graph's monotone snapshot version, starting at 1.
	// Today the partitioned graph is immutable, so the version only moves
	// when BumpVersion is called explicitly; the streaming-ingest path
	// (ROADMAP's parked "Live graphs") will bump it on every compacted
	// snapshot swap. The serving layer keys its result cache on this value,
	// so a bump invalidates every cached answer.
	version atomic.Uint64
}

// query answers one spec on the one executor: submitted to the attached
// engine, or run on a transient one under g.mu when none is attached.
func (g *Graph) query(spec engine.Spec) (*QueryResult, error) {
	g.mu.Lock()
	if e := g.eng; e != nil {
		g.mu.Unlock()
		q, err := e.submit(spec)
		if err != nil {
			return nil, err
		}
		return q.Wait()
	}
	defer g.mu.Unlock()
	res, _, err := engine.RunOnce(g.engineConfig(), engine.Options{}, spec)
	if err != nil {
		return nil, err
	}
	return convert(spec, res), nil
}

// NewGraph partitions the given edge list across a fresh simulated machine.
func NewGraph(edges []Edge, numVertices uint64, opts Options) (*Graph, error) {
	opts = opts.normalized()
	if opts.Undirect {
		edges = graph.Undirect(edges)
	}
	return build(partition.RoundRobin(edges), numVertices, opts)
}

// GenerateRMAT builds a Graph500-parameter RMAT graph of the given scale,
// stored undirected.
func GenerateRMAT(scale uint, seed uint64, opts Options) (*Graph, error) {
	opts = opts.normalized()
	g := generators.NewGraph500(scale, seed)
	return build(partition.Undirected(g.GenerateChunk), g.NumVertices(), opts)
}

// build runs the collective construction.
func build(chunk partition.Chunk, n uint64, opts Options) (*Graph, error) {
	if _, err := mailbox.ByName(opts.Topology, opts.Ranks); err != nil {
		return nil, err
	}
	m := rt.NewMachine(opts.Ranks)
	parts, err := partition.Build(m, n, chunk, partition.EdgeList, opts.Simplify)
	if err != nil {
		return nil, err
	}
	g := &Graph{opts: opts, n: n, machine: m, parts: parts,
		ghosts: core.BuildGhostTables(parts, opts.GhostsPerPartition)}
	g.version.Store(1)
	return g, nil
}

// Version returns the graph's current snapshot version (1 for a freshly
// built graph). Result caches key on it: answers computed at version v are
// valid exactly while Version() == v.
func (g *Graph) Version() uint64 { return g.version.Load() }

// BumpVersion advances the snapshot version and returns the new value. This
// is the invalidation hook for mutation paths (streaming ingest, snapshot
// swap — ROADMAP's parked "Live graphs"): bump after the new snapshot is
// visible and every
// version-keyed cache entry from before it becomes stale atomically.
func (g *Graph) BumpVersion() uint64 { return g.version.Add(1) }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() uint64 { return g.n }

// NumEdges returns the number of stored directed edges.
func (g *Graph) NumEdges() uint64 { return g.parts[0].GlobalEdges }

// Ranks returns the simulated rank count.
func (g *Graph) Ranks() int { return g.opts.Ranks }

// SetSimLatency configures a simulated interconnect latency: every
// rank-to-rank message takes at least d of wall-clock time to become
// visible at its destination, emulating the network / external-memory
// transfer costs a real distributed machine pays. By default the simulated
// transport is instantaneous, which flatters serialized one-query-at-a-time
// execution — there is no latency for the asynchronous framework to hide.
// Takes effect for messages sent after the call; safe for concurrent use.
func (g *Graph) SetSimLatency(d time.Duration) { g.machine.SetSimLatency(d) }

// Degree returns the (stored, directed) degree of a vertex.
func (g *Graph) Degree(v Vertex) (uint64, error) {
	if uint64(v) >= g.n {
		return 0, fmt.Errorf("havoqgt: vertex %d out of range", v)
	}
	return g.parts[0].GlobalDegree(v), nil
}

// BFSResult holds a breadth-first search over the whole graph.
type BFSResult struct {
	Source   Vertex
	Levels   []uint32 // Unreached where not reached
	Parents  []Vertex // Nil where not reached
	MaxLevel uint32
	Reached  uint64
}

// BFS runs the distributed asynchronous BFS from source. Safe for concurrent
// use; with an attached engine, concurrent calls interleave as independent
// queries.
func (g *Graph) BFS(source Vertex) (*BFSResult, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoBFS, Source: source})
	if err != nil {
		return nil, err
	}
	return r.BFS, nil
}

// BFSDirOpt runs the direction-optimizing BFS from source: top-down sparse
// phases switch to bottom-up dense-bitmap scans when the frontier grows past
// the Beamer heuristic thresholds, and back once it shrinks. Levels and
// parent validity are bit-identical to BFS; only the traversal schedule (and
// on low-diameter scale-free graphs, the edge examination count) differs.
// Safe for concurrent use.
func (g *Graph) BFSDirOpt(source Vertex) (*BFSResult, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoBFSDO, Source: source})
	if err != nil {
		return nil, err
	}
	return r.BFS, nil
}

// SSSPResult holds single-source shortest paths under the synthesized
// deterministic edge weights (see sssp.Weight).
type SSSPResult struct {
	Source    Vertex
	Distances []uint64 // sssp.Unreached where not reached
	Parents   []Vertex
}

// UnreachedDistance is the distance of vertices SSSP did not reach.
const UnreachedDistance = sssp.Unreached

// ShortestPaths runs distributed SSSP from source with weights keyed by
// weightSeed. Safe for concurrent use.
func (g *Graph) ShortestPaths(source Vertex, weightSeed uint64) (*SSSPResult, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoSSSP, Source: source, WeightSeed: weightSeed})
	if err != nil {
		return nil, err
	}
	return r.SSSP, nil
}

// ComponentsResult labels every vertex with the smallest vertex id in its
// connected component.
type ComponentsResult struct {
	Labels []Vertex
	Count  uint64
}

// Components runs distributed connected components. Safe for concurrent use.
func (g *Graph) Components() (*ComponentsResult, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		return nil, err
	}
	return r.Components, nil
}

// KCoreResult holds a k-core membership query.
type KCoreResult struct {
	K        uint32
	InCore   []bool
	CoreSize uint64
}

// KCore computes the k-core (k >= 1). The graph must be simple (set
// Options.Simplify when building from inputs with duplicates or self loops).
func (g *Graph) KCore(k uint32) (*KCoreResult, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoKCore, K: k})
	if err != nil {
		return nil, err
	}
	return r.KCore, nil
}

// PageRankResult holds fixed-point PageRank scores scaled by
// ref.PRScale (2^40); Ranks[v] / float64(1<<40) recovers the usual
// probability. The fixed-point arithmetic makes the output bit-identical
// across rank counts, topologies, and schedules.
type PageRankResult struct {
	Iters uint32
	Ranks []uint64
}

// PageRank runs the given number of damped PageRank iterations (0 = the
// default count, at most MaxPageRankIters). Safe for concurrent use.
func (g *Graph) PageRank(iters uint32) (*PageRankResult, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoPageRank, Iters: iters})
	if err != nil {
		return nil, err
	}
	return r.PageRank, nil
}

// TrianglesResult holds an exact triangle count.
type TrianglesResult struct {
	Count uint64
}

// CountTriangles counts triangles exactly. Duplicate edges and self loops are
// ignored, so the graph need not be simplified. Safe for concurrent use.
func (g *Graph) CountTriangles() (uint64, error) {
	r, err := g.query(engine.Spec{Algo: engine.AlgoTriangles})
	if err != nil {
		return 0, err
	}
	return r.Triangles.Count, nil
}

// EstimateTriangles approximates the triangle count by Bernoulli wedge
// sampling with the given probability (0 < p < 1). The graph must be simple.
// Safe for concurrent use.
func (g *Graph) EstimateTriangles(sampleProb float64, seed uint64) (float64, error) {
	if !(sampleProb > 0 && sampleProb < 1) {
		return 0, fmt.Errorf("havoqgt: sample probability must be in (0, 1)")
	}
	r, err := g.query(engine.Spec{Algo: engine.AlgoTriangles, SampleProb: sampleProb, SampleSeed: seed})
	if err != nil {
		return 0, err
	}
	return triangle.Options{SampleProb: sampleProb}.Estimate(r.Triangles.Count), nil
}
