package partition

import (
	"errors"

	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
)

// Layout selects how Build places adjacency lists on ranks.
type Layout uint8

const (
	EdgeList Layout = iota // the paper's edge list partitioning (BuildEdgeList)
	OneD                   // the traditional 1D baseline (build1D)
)

// Chunk returns one rank's share of the directed edge list on a machine of
// size ranks. Any decomposition works: the build routes every edge to where
// its layout puts it.
type Chunk func(rank, size int) ([]graph.Edge, error)

// RoundRobin deals edges out round robin: rank r's chunk is edges r, r+size,
// r+2·size, ….
func RoundRobin(edges []graph.Edge) Chunk {
	return func(rank, size int) ([]graph.Edge, error) {
		var local []graph.Edge
		for i := rank; i < len(edges); i += size {
			local = append(local, edges[i])
		}
		return local, nil
	}
}

// Undirected turns a generator's per-rank chunks into a Chunk holding both
// directions of every generated edge.
func Undirected(generate func(rank, size int) []graph.Edge) Chunk {
	return func(rank, size int) ([]graph.Edge, error) {
		return graph.Undirect(generate(rank, size)), nil
	}
}

// Build is the one machine-wide partition build: in one collective phase on
// m, every rank takes its chunk and builds its Part of the n-vertex graph
// under layout, with self loops and duplicate edges removed globally when
// simplify is set. A rank whose chunk fails still enters the collectives
// with what the chunk returned, so the others do not hang; the first failing
// rank's error is returned. On a machine whose Run covers only some ranks (a cluster
// worker's mesh machine) the other ranks' entries stay nil.
func Build(m *rt.Machine, n uint64, chunk Chunk, layout Layout, simplify bool) ([]*Part, error) {
	parts := make([]*Part, m.Size())
	errs := make([]error, m.Size())
	m.Run(func(r *rt.Rank) {
		build := buildEdgeList
		if layout == OneD {
			build = build1D
		}
		local, err := chunk(r.Rank(), r.Size())
		part, buildErr := build(r, local, n, simplify)
		parts[r.Rank()], errs[r.Rank()] = part, errors.Join(err, buildErr)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}
