package main

import (
	"fmt"

	"havoqgt"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

// Result hashing. Only deterministic outputs are hashed — levels, distances,
// labels, the alive set, fixed-point ranks — never BFS or SSSP parents, which
// legitimately differ between two correct asynchronous runs.

const hashSeed = 0xcbf29ce484222325

func hashWord(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

func hashU32s(vals []uint32) uint64 {
	h := uint64(hashSeed)
	for _, v := range vals {
		h = hashWord(h, uint64(v))
	}
	return h
}

func hashU64s(vals []uint64) uint64 {
	h := uint64(hashSeed)
	for _, v := range vals {
		h = hashWord(h, v)
	}
	return h
}

func hashVertices(vals []graph.Vertex, count uint64) uint64 {
	h := uint64(hashSeed)
	for _, v := range vals {
		h = hashWord(h, uint64(v))
	}
	return hashWord(h, count)
}

func hashBools(vals []bool, count uint64) uint64 {
	h := uint64(hashSeed)
	for _, v := range vals {
		if v {
			h = hashWord(h, 1)
		} else {
			h = hashWord(h, 0)
		}
	}
	return hashWord(h, count)
}

// hashResult digests whichever result the query produced.
func hashResult(res *havoqgt.QueryResult) uint64 {
	switch {
	case res.BFS != nil:
		return hashU32s(res.BFS.Levels)
	case res.SSSP != nil:
		return hashU64s(res.SSSP.Distances)
	case res.Components != nil:
		return hashVertices(res.Components.Labels, res.Components.Count)
	case res.KCore != nil:
		return hashBools(res.KCore.InCore, res.KCore.CoreSize)
	case res.PageRank != nil:
		return hashU64s(res.PageRank.Ranks)
	}
	return 0
}

// expected is the reference's answer to one query and the work the answer
// depends on, which is what teps and core.useful_visit_ratio count.
type expected struct {
	hash uint64
	// edges follows the Graph500 convention: the undirected edges of the
	// source's component for a point query (0 for an isolated source), all
	// of them for cc and kcore, once per iteration for pagerank. It does not
	// depend on how the implementation traverses, unlike core.pushed.
	edges uint64
	// vertices is the number of vertices the answer had to reach.
	vertices uint64
}

// reference answers queries sequentially with internal/ref over the same
// edges the facade partitioned. It is built after the measured phase, so it
// costs the workload neither time nor resident memory.
type reference struct {
	adj   ref.Adj
	edges uint64 // undirected
	cache map[query]expected
}

func newReference(shape graphShape) *reference {
	gen := generators.NewGraph500(shape.scale, graphSeed)
	edges := graph.Simplify(graph.Undirect(gen.Generate()))
	return &reference{
		adj:   ref.BuildAdj(edges, gen.NumVertices()),
		edges: uint64(len(edges)) / 2,
		cache: make(map[query]expected),
	}
}

func countReached(levels []uint32) uint64 {
	var n uint64
	for _, l := range levels {
		if l != ref.Unreached {
			n++
		}
	}
	return n
}

// answer computes (and caches) the reference answer for q.
func (r *reference) answer(q query) (expected, error) {
	key := q
	if key.algo == "bfs_do" {
		key.algo = "bfs" // same levels by contract, so one reference BFS serves both
	}
	if exp, ok := r.cache[key]; ok {
		return exp, nil
	}
	n := uint64(len(r.adj))
	var exp expected
	switch key.algo {
	case "bfs":
		levels, _ := ref.BFS(r.adj, q.source)
		exp = expected{hash: hashU32s(levels), edges: ref.ReachedEdges(r.adj, levels), vertices: countReached(levels)}
	case "sssp":
		dist, _ := ref.Dijkstra(r.adj, q.source, func(u, v graph.Vertex) uint64 { return sssp.Weight(u, v, q.weightSeed) })
		// Dijkstra reaches exactly the source's component; a BFS from the
		// same source (usually cached) gives its size.
		comp, err := r.answer(query{algo: "bfs", source: q.source})
		if err != nil {
			return expected{}, err
		}
		exp = expected{hash: hashU64s(dist), edges: comp.edges, vertices: comp.vertices}
	case "cc":
		labels, count := ref.Components(r.adj)
		exp = expected{hash: hashVertices(labels, count), edges: r.edges, vertices: n}
	case "kcore":
		alive := ref.KCore(r.adj, q.k)
		exp = expected{hash: hashBools(alive, ref.CoreSize(alive)), edges: r.edges, vertices: n}
	case "pagerank":
		ranks := ref.PageRank(r.adj, int(q.iters))
		exp = expected{hash: hashU64s(ranks), edges: uint64(q.iters) * r.edges, vertices: uint64(q.iters) * n}
	default:
		return expected{}, fmt.Errorf("no reference for algorithm %q", q.algo)
	}
	r.cache[key] = exp
	return exp, nil
}

// verdict is the outcome of checking a phase's samples.
type verdict struct {
	failed   int      // errors, rejections and hash mismatches
	edges    uint64   // Σ expected.edges over correct queries (the teps numerator)
	vertices uint64   // Σ expected.vertices over correct queries
	reasons  []string // first few failures, for the log
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.reasons) < 8 {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
}

// check compares every sample's hash with the reference.
func (r *reference) check(samples []sample) verdict {
	var v verdict
	for _, s := range samples {
		if s.err != nil {
			v.fail("query %d (%s from %d): %v", s.idx, s.q.algo, s.q.source, s.err)
			continue
		}
		exp, err := r.answer(s.q)
		if err != nil {
			v.fail("query %d: %v", s.idx, err)
			continue
		}
		if s.hash != exp.hash {
			v.fail("query %d (%s from %d): result hash %016x, reference %016x", s.idx, s.q.algo, s.q.source, s.hash, exp.hash)
			continue
		}
		v.edges += exp.edges
		v.vertices += exp.vertices
	}
	return v
}

// residentInvariant is the other half of verification: a workload with no
// memory budget must not have touched the pager or the page cache at all.
// mem and trav are deltas over the whole run of a fully resident workload.
func residentInvariant(mem havoqgt.MemoryStats, trav havoqgt.TraversalCounters) error {
	if mem.CacheHits+mem.CacheMisses+mem.CacheStalls+mem.CacheEvictions+mem.BytesRead+
		mem.Retries+mem.Exhausted+mem.DemandFetches+mem.Prefetches+mem.PrefetchDropped != 0 {
		return fmt.Errorf("resident workload touched the page cache or pager: %+v", mem)
	}
	if trav.Parked != 0 || trav.Unparked != 0 {
		return fmt.Errorf("resident workload parked %d and unparked %d visitors", trav.Parked, trav.Unparked)
	}
	return nil
}
