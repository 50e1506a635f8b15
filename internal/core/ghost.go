package core

import (
	"math"

	"havoqgt/internal/csr"
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

// GhostTable is the set of remote vertices a rank filters pushes to: a prefix
// of the partition's remote slots (partition.Part.SlotVertex), so a ghost's
// index is its slot and the edge's target word already names it. Each
// partition identifies its ghosts locally, from its own edges' targets — ghost
// information represents only the local partition's view of remote vertices
// and is never globally synchronized (§IV-B).
type GhostTable struct {
	vertices []graph.Vertex
}

// BuildGhostTable selects the up to k remote vertices with the highest local
// in-edge count (k <= 0: none). Only vertices that appear at least twice
// locally are candidates: a ghost can only filter when the partition has
// multiple edges to the vertex (the paper's degree(v) > p observation). The
// partition build has already counted and ordered them; this is a slice.
func BuildGhostTable(part *partition.Part, k int) *GhostTable {
	return &GhostTable{vertices: part.SlotVertex[:min(max(k, 0), len(part.SlotVertex))]}
}

// BuildGhostTables builds every rank's table, indexed like parts
// (engine.Config.Ghosts). This is the one place the ghost setting is
// interpreted: k == 0 is the default (DefaultGhostsPerPartition), k > 0 caps
// each table at the k highest counts, k < 0 returns nil: no filtering.
func BuildGhostTables(parts []*partition.Part, k int) []*GhostTable {
	if k < 0 {
		return nil
	}
	if k == 0 {
		k = DefaultGhostsPerPartition
	}
	tables := make([]*GhostTable, len(parts))
	for rank, part := range parts {
		if part != nil { // a cluster process holds only its own ranks' parts
			tables[rank] = BuildGhostTable(part, k)
		}
	}
	return tables
}

// Len returns the number of ghosts in the table.
func (t *GhostTable) Len() int { return len(t.vertices) }

// Vertices returns the ghosted vertices in index order.
func (t *GhostTable) Vertices() []graph.Vertex { return t.vertices }

// GhostFilter is one query's ghost copies on one rank (§IV-B): per slot of the
// rank's ghost table, the best key a push to that ghost has carried. The key
// is the algorithm's improvement order, lower is better — BFS's level, CC's
// label — so one filter serves every monotone visitor algorithm. A ghost is
// never synchronized with its master, so it can only fail to drop a push,
// never drop one that improves on what the master was sent: an algorithm
// tolerant of stale state (BFS, CC) may call Drop in its push loop, and
// calling it is the opt-in. A counted algorithm (k-core, triangle counting)
// needs every visitor's effect and must not. SSSP runs no visitor queue: its
// rounds keep an exact per-slot copy of their own (sssp.SSSP). Queue.Ghosts
// hands the filter out.
type GhostFilter struct {
	best    []uint64 // per ghost slot; ^0 until a push to it passes
	dropped uint64   // pushes dropped since Queue.publish last folded them into Stats
}

// Drop reports whether a push along the edge whose target word is t,
// carrying key, is dropped: its ghost has already passed a key at least as
// good. A dropped push counts as pushed and ghost-filtered. A word with no
// slot, or a slot at or past the ghost table's length, is never dropped; any
// other key below the slot's best becomes its best, and the push goes on.
func (f *GhostFilter) Drop(t csr.Target, key uint64) bool {
	slot := t.Slot()
	if uint(slot) >= uint(len(f.best)) {
		return false
	}
	if key >= f.best[slot] {
		f.dropped++
		return true
	}
	f.best[slot] = key
	return false
}
