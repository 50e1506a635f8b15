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
	// slots is an open-addressed index over vertices — a power of two at
	// least 4x the entries, multiplicative hash (the top bits, >> shift),
	// linear probe — holding index+1, 0 for empty. Lookup runs for every
	// non-local push against at most a few hundred entries, where a probe or
	// two in a 4 KB array beats a general-purpose map. nil when empty.
	slots    []uint32
	shift    uint
	vertices []graph.Vertex
}

// ghostHashMul is the 64-bit golden-ratio multiplier of the slot hash.
const ghostHashMul = 0x9E3779B97F4A7C15

// BuildGhostTable scans the rank's local edge targets and selects up to k
// remote vertices with the highest local in-edge count. Only vertices that
// appear at least twice locally are candidates: a ghost can only filter when
// the partition has multiple edges to the hub (the paper's degree(v) > p
// observation).
func BuildGhostTable(part *partition.Part, k int) *GhostTable {
	if k <= 0 {
		return newGhostTable(nil)
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
	vertices := make([]graph.Vertex, len(cands))
	for i, c := range cands {
		vertices[i] = c.v
	}
	return newGhostTable(vertices)
}

// newGhostTable indexes the given distinct vertices in the given order.
func newGhostTable(vertices []graph.Vertex) *GhostTable {
	t := &GhostTable{vertices: vertices}
	if len(vertices) == 0 {
		return t
	}
	bits := uint(2)
	for 1<<bits < 4*len(vertices) {
		bits++
	}
	t.slots, t.shift = make([]uint32, 1<<bits), 64-bits
	mask := uint64(len(t.slots) - 1)
	for i, v := range vertices {
		s := uint64(v) * ghostHashMul >> t.shift
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = uint32(i + 1)
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
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for s := uint64(v) * ghostHashMul >> t.shift; ; s = (s + 1) & mask {
		i := t.slots[s]
		if i == 0 {
			return 0, false
		}
		if t.vertices[i-1] == v {
			return int(i - 1), true
		}
	}
}

// Len returns the number of ghosts in the table.
func (t *GhostTable) Len() int { return len(t.vertices) }

// Vertices returns the ghosted vertices in index order.
func (t *GhostTable) Vertices() []graph.Vertex { return t.vertices }
