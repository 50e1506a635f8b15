package core

import (
	"math"
	"slices"
	"sync"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// DefaultGhostsPerPartition is the default cap on a rank's ghost table: none.
// The table then holds every candidate (see BuildGhostTable), which is at most
// half the rank's local edges. The paper fixes 256 ("All other BFS
// experiments in this work use 256 ghost vertices per partition", §VII-E2)
// because on 4096 cores a rank rarely holds two edges to anything but a hub;
// on a few ranks holding many edges each, a rank holds several edges to most
// targets it can see and the filter pays on all of them. The figure runs pass
// the paper's literal 256.
const DefaultGhostsPerPartition = math.MaxInt

// GhostTable maps the remote vertices a rank holds repeated edges to onto
// dense indices, and remembers each one's master rank. Each partition
// identifies its ghosts locally, from its own edges' targets — ghost
// information represents only the local partition's view of remote vertices
// and is never globally synchronized (§IV-B).
type GhostTable struct {
	// slots is an open-addressed index over vertices — a power of two at
	// least 2x the entries, multiplicative hash (the top bits, >> shift),
	// linear probe. A slot holds everything a push needs of its vertex, so a
	// lookup that hits on its first probe touches one cache line. nil when
	// empty.
	slots    []ghostSlot
	shift    uint
	vertices []graph.Vertex
}

// ghostSlot is one 16-byte entry of the probe table.
type ghostSlot struct {
	vertex graph.Vertex
	index  uint32 // ghost index + 1; 0 marks an empty slot
	owner  uint32 // the vertex's master rank
}

// ghostHashMul is the 64-bit golden-ratio multiplier of the slot hash.
const ghostHashMul = 0x9E3779B97F4A7C15

// BuildGhostTable scans the rank's local edge targets and selects up to k
// remote vertices with the highest local in-edge count (k <= 0: none). Only
// vertices that appear at least twice locally are candidates: a ghost can
// only filter when the partition has multiple edges to the vertex (the
// paper's degree(v) > p observation).
func BuildGhostTable(part *partition.Part, k int) *GhostTable {
	if k <= 0 {
		return newGhostTable(part.Owners, nil)
	}
	counts := make(map[graph.Vertex]uint32)
	m := part.CSR
	for row := 0; row < m.NumRows(); row++ {
		for _, tgt := range m.Row(row) {
			if !part.IsMaster(tgt) {
				counts[tgt]++
			}
		}
	}
	type cand struct {
		v graph.Vertex
		c uint32
	}
	var cands []cand
	for v, c := range counts {
		if c >= 2 {
			cands = append(cands, cand{v, c})
		}
	}
	// Highest count first, so the hottest ghosts' per-query state sits
	// together at the low indices.
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
	return newGhostTable(part.Owners, vertices)
}

// newGhostTable indexes the given distinct vertices in the given order.
func newGhostTable(owners partition.OwnerTable, vertices []graph.Vertex) *GhostTable {
	t := &GhostTable{vertices: vertices}
	if len(vertices) == 0 {
		return t
	}
	bits := uint(2)
	for 1<<bits < 2*len(vertices) {
		bits++
	}
	t.slots, t.shift = make([]ghostSlot, 1<<bits), 64-bits
	mask := uint64(len(t.slots) - 1)
	for i, v := range vertices {
		s := uint64(v) * ghostHashMul >> t.shift
		for t.slots[s].index != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = ghostSlot{vertex: v, index: uint32(i + 1), owner: uint32(owners.Master(v))}
	}
	return t
}

// BuildGhostTables builds every rank's table, indexed like parts
// (engine.Config.Ghosts), each on a goroutine of its own. This is the one
// place the ghost setting is interpreted: k == 0 is the default
// (DefaultGhostsPerPartition), k > 0 caps each table at the k highest counts,
// k < 0 returns nil: no filtering.
func BuildGhostTables(parts []*partition.Part, k int) []*GhostTable {
	if k < 0 {
		return nil
	}
	if k == 0 {
		k = DefaultGhostsPerPartition
	}
	tables := make([]*GhostTable, len(parts))
	var wg sync.WaitGroup
	for rank, part := range parts {
		if part == nil { // a cluster process holds only its own ranks' parts
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[rank] = BuildGhostTable(part, k)
		}()
	}
	wg.Wait()
	return tables
}

// Lookup returns the ghost index and the master rank of v, if v is ghosted
// on this rank.
func (t *GhostTable) Lookup(v graph.Vertex) (index, owner int, ok bool) {
	if len(t.slots) == 0 {
		return 0, 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for s := uint64(v) * ghostHashMul >> t.shift; ; s = (s + 1) & mask {
		e := &t.slots[s]
		if e.index == 0 {
			return 0, 0, false
		}
		if e.vertex == v {
			return int(e.index - 1), int(e.owner), true
		}
	}
}

// Len returns the number of ghosts in the table.
func (t *GhostTable) Len() int { return len(t.vertices) }

// Vertices returns the ghosted vertices in index order.
func (t *GhostTable) Vertices() []graph.Vertex { return t.vertices }
