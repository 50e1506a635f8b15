// Package kcore implements k-core decomposition as a visitor over the
// distributed asynchronous visitor queue (paper §VI-B, Algorithms 4 and 5):
// vertices whose remaining degree drops below k are asynchronously removed,
// each removal notifying the neighbors, cascading until the k-core is fixed.
//
// K-core requires precise counts of removal events, so it cannot filter on
// ghost vertices (§IV-B): every notification must reach the master's counter.
// It can combine them (core.CombineAlgorithm): notices bound for one remote
// vertex merge at the sender into one visitor carrying their number, and the
// master subtracts that number at once.
//
// Replica semantics. Every count-bearing visitor routes to the vertex's
// master (Algorithm 1 PUSH), so only the master's counter tracks the true
// remaining degree. The master's pre_visit returns true exactly once per
// vertex — at the removal event — and only that visitor flows down the
// replica chain. A replica therefore treats an arriving visitor as an
// authoritative removal notice: it marks its copy dead and lets its portion
// of the (split) adjacency list notify the neighbors. This keeps the
// replicated state loosely consistent without double-counting decrements.
package kcore

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// Visitor notifies a vertex that N of its neighbors left the k-core
// (Algorithm 4 state: the target vertex, and how many notices it carries).
type Visitor struct {
	V graph.Vertex
	N uint32
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// KCore is one rank's algorithm state.
type KCore struct {
	part *partition.Part
	K    uint32

	Alive []bool
	Core  []uint32 // remaining degree + 1, master rows only meaningful
}

var _ core.CombineAlgorithm[Visitor] = (*KCore)(nil)

// New initializes the state per Algorithm 5: alive, with core counters at
// degree(v)+1 (global degree, which for partition-boundary vertices comes
// from the exchanged boundary-degree table).
func New(part *partition.Part, k uint32) *KCore {
	a := &KCore{
		part:  part,
		K:     k,
		Alive: make([]bool, part.StateLen),
		Core:  make([]uint32, part.StateLen),
	}
	for i := 0; i < part.StateLen; i++ {
		a.Alive[i] = true
		a.Core[i] = uint32(part.GlobalDegree(part.Vertex(i))) + 1
	}
	return a
}

// PreVisit implements Algorithm 4 lines 3–12 on the master, and the
// removal-notice semantics on replicas (see package comment). The master's
// counter cannot wrap: a live vertex receives at most one notice per edge
// plus its seed, deg + 1 in all, which is where the counter starts.
func (a *KCore) PreVisit(v Visitor) bool {
	i, ok := a.part.LocalIndex(v.V)
	if !ok {
		return false
	}
	if !a.Alive[i] {
		return false
	}
	if a.part.IsMaster(v.V) {
		a.Core[i] -= v.N
		if a.Core[i] < a.K {
			a.Alive[i] = false
			return true
		}
		return false
	}
	// Replica: the master already decided removal.
	a.Alive[i] = false
	return true
}

// Visit notifies every (locally stored) neighbor that this vertex left the
// core (Algorithm 4 lines 13–17).
func (a *KCore) Visit(v Visitor, q *core.Queue[Visitor]) {
	for _, t := range q.OutEdges(v.V) {
		q.PushEdge(t, Visitor{V: t.Vertex(), N: 1})
	}
}

// Combine adds up two notices for one vertex (core.CombineAlgorithm).
func (a *KCore) Combine(acc *Visitor, v Visitor) bool {
	acc.N += v.N
	return true
}

// Encode appends the 12-byte wire form.
func (a *KCore) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.V))
	return binary.LittleEndian.AppendUint32(buf, v.N)
}

// Decode parses one visitor record.
func (a *KCore) Decode(buf []byte) Visitor {
	return Visitor{V: graph.Vertex(binary.LittleEndian.Uint64(buf)), N: binary.LittleEndian.Uint32(buf[8:])}
}

// LocalCoreSize returns the number of this rank's master vertices remaining
// in the core (summed over ranks, the global core size).
func (a *KCore) LocalCoreSize() uint64 {
	lo, hi := a.part.Owners.MasterRange(a.part.Rank)
	var n uint64
	for v := lo; v < hi; v++ {
		i, _ := a.part.LocalIndex(graph.Vertex(v))
		if a.Alive[i] {
			n++
		}
	}
	return n
}
