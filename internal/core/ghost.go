package core

import (
	"slices"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// DefaultGhostsPerPartition is the ghost-table size used throughout the
// paper's BFS experiments ("All other BFS experiments in this work use 256
// ghost vertices per partition", §VII-E2).
const DefaultGhostsPerPartition = 256

// GhostTable maps a small set of high in-degree remote hub vertices to dense
// indices. Each partition identifies its ghosts locally, from its own edges'
// targets — ghost information represents only the local partition's view of
// remote hubs and is never globally synchronized (§IV-B).
type GhostTable struct {
	idx      map[graph.Vertex]int
	vertices []graph.Vertex
}

// BuildGhostTable scans the rank's local edge targets and selects up to k
// remote vertices with the highest local in-edge count. Only vertices that
// appear at least twice locally are candidates: a ghost can only filter when
// the partition has multiple edges to the hub (the paper's degree(v) > p
// observation).
func BuildGhostTable(part *partition.Part, k int) *GhostTable {
	t := &GhostTable{idx: make(map[graph.Vertex]int)}
	if k <= 0 {
		return t
	}
	counts := make(map[graph.Vertex]uint32)
	m := part.CSR
	for row := 0; row < m.NumRows(); row++ {
		for _, tgt := range m.Row(row) {
			if part.Master(tgt) != part.Rank {
				counts[tgt]++
			}
		}
	}
	type cand struct {
		v graph.Vertex
		c uint32
	}
	cands := make([]cand, 0, len(counts))
	for v, c := range counts {
		if c >= 2 {
			cands = append(cands, cand{v, c})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.c > b.c:
			return -1
		case a.c < b.c:
			return 1
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	for i, c := range cands {
		t.idx[c.v] = i
		t.vertices = append(t.vertices, c.v)
	}
	return t
}

// BuildGhostTables builds every rank's table of up to k ghosts, indexed like
// parts (engine.Config.Ghosts); k <= 0 returns nil: no hub filtering.
func BuildGhostTables(parts []*partition.Part, k int) []*GhostTable {
	if k <= 0 {
		return nil
	}
	tables := make([]*GhostTable, len(parts))
	for rank, part := range parts {
		if part != nil { // a cluster process holds only its own ranks' parts
			tables[rank] = BuildGhostTable(part, k)
		}
	}
	return tables
}

// Lookup returns the ghost index of v, if v is ghosted on this rank.
func (t *GhostTable) Lookup(v graph.Vertex) (int, bool) {
	i, ok := t.idx[v]
	return i, ok
}

// Len returns the number of ghosts in the table.
func (t *GhostTable) Len() int { return len(t.vertices) }

// Vertices returns the ghosted vertices in index order.
func (t *GhostTable) Vertices() []graph.Vertex { return t.vertices }
