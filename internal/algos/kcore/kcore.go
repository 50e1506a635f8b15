// Package kcore implements k-core decomposition (paper §VI-B, Algorithms 4
// and 5): vertices whose remaining degree drops below k are removed, each
// removal notifying the neighbors, cascading until the k-core is fixed.
//
// The first peel is dense. Every rank holds the global degree table, so
// every rank knows, without a message, which vertices leave in the first
// round — those of degree < k — and every local state of one, master or
// replica, starts dead. Round 0 of a counted exchange (core.RoundExchange,
// the one PageRank's iterations run on) tells the survivors: each rank sweeps
// its stored rows of dead vertices, a split row's fragments included, and
// counts one notice per edge into a target of degree ≥ k — into a flat
// per-master array for a target the rank masters, one counter per remote slot
// (the partition's Target.Slot numbering), or the owner's run for the few
// other remote edges — then sends each peer one record of (vertex, count)
// pairs, possibly empty. When round 0 completes on a rank, each master it
// holds subtracts its count from its counter, which starts at its degree, and
// the runner seeds the visitor queue with one visitor carrying no notice for
// every master still alive whose counter is below k (Seed). Out of core, the
// sweep parks its rows as PageRank's does (core.Parking).
//
// The queue runs only the cascade. A master's pre_visit returns true exactly
// once per vertex — at the removal event — and only that visitor flows down
// the replica chain; a replica treats an arriving visitor as an authoritative
// removal notice, marks its copy dead and lets its portion of the (split)
// adjacency list notify the neighbors. A neighbor of degree < k has been dead
// since round 0 and is not notified. K-core requires precise counts, so it
// cannot filter on ghost vertices (§IV-B): every removed edge sends one
// notice, a visitor carrying N = 1, as the paper's does. A notice can
// overtake round 0 on its way to a master: counts subtract in any order, and
// a master whose cascade notices did not yet take it below k is seeded when
// round 0 ends.
package kcore

import (
	"encoding/binary"
	"math"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// Record kinds (first payload byte).
const (
	kindRound = 1 // [header][count u32][count × pair (vertex, notices)]
	// KindVisitor starts every visitor record: [kind][vertex u64][notices u32].
	KindVisitor = 2
)

// sliceEdges is how many edges one TryAdvance sweeps before it returns, so
// the rank loop interleaves other queries with the sweep.
const sliceEdges = 256

// Visitor notifies a vertex that N of its neighbors left the k-core
// (Algorithm 4 state: the target vertex, and how many notices it carries): 1
// for a cascade notice, 0 for the seed of a master round 0 took below k.
type Visitor struct {
	V graph.Vertex
	N uint32
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// KCore is one rank's algorithm state: the round-0 machine (Handle,
// TryAdvance, Idle, Done) and then the cascade's visitor algorithm.
type KCore struct {
	part   *partition.Part
	K      uint32
	send   func(dest int, payload []byte)
	lo, hi uint64 // master range

	Alive []bool
	Core  []uint32 // remaining degree, master rows only meaningful

	// notices exchanges round 0: per master, indexed by vertex − lo, the
	// notices its dead neighbors' rows hold. Its second accumulator is empty,
	// so a record naming round 1 merges nothing. nil once round 0 completed.
	notices   *core.RoundExchange[[]uint32]
	slotCount []uint32 // per remote slot: the sweep's notices
	runs      [][]byte // per peer: the record the sweep is building
	row       int      // next row of the sweep
	swept     bool     // the sweep's records sent
	done      bool     // round 0 complete

	// Out of core, the sweep's rows waiting on their pages: Unpark sweeps
	// those of a pager Drain batch.
	core.Parking[int]
}

// New initializes the state: a local state is alive, and a master's counter
// at its degree, when its (global) degree is at least k. send transmits one
// round record to a peer rank (never to self); pager is nil when the
// adjacency is resident.
func New(part *partition.Part, k uint32, send func(dest int, payload []byte), pager core.RowPager) *KCore {
	lo, hi := part.Owners.MasterRange(part.Rank)
	a := &KCore{
		part:      part,
		K:         k,
		send:      send,
		lo:        lo,
		hi:        hi,
		Alive:     make([]bool, part.StateLen),
		Core:      make([]uint32, part.StateLen),
		notices:   core.NewRoundExchange[[]uint32](part.P, part.Rank, 0, make([]uint32, hi-lo), nil),
		slotCount: make([]uint32, len(part.SlotVertex)),
		runs:      make([][]byte, part.P),
	}
	a.Parking = core.NewParking(pager, func(i int) { a.sweepRow(*a.notices.Acc(0), i) })
	for i := 0; i < part.StateLen; i++ {
		a.Core[i] = part.Degrees[part.Vertex(i)]
		a.Alive[i] = a.Core[i] >= k
	}
	// Each peer's record holds at most a pair per remote slot it owns whose
	// vertex survives round 0, and is allocated at that size. A pair for an
	// untagged edge from a dead row to a survivor the peer masters grows it:
	// a rank gives a slot to every remote vertex it stores two edges to, and
	// survivors have the highest degrees (at scale 15 and k = 64, no rank
	// stores such an edge).
	pairs := make([]int, part.P)
	for s, v := range part.SlotVertex {
		if part.Degrees[v] >= k {
			pairs[part.SlotOwner[s]]++
		}
	}
	for r, n := range pairs {
		if r != part.Rank {
			run := core.AppendRoundHeader(make([]byte, 0, core.RoundHeader+4+n*core.PairBytes), kindRound, part.Rank, 0)
			a.runs[r] = append(run, 0, 0, 0, 0) // the pair count, set when sent
		}
	}
	return a
}

// Handle applies one delivered round record. A record the protocol cannot
// have sent — out of its window, a duplicate, from a sender that is no peer —
// is dropped, and a pair naming a vertex the rank does not master is skipped.
func (a *KCore) Handle(payload []byte) {
	if a.notices == nil || len(payload) < core.RoundHeader+4 || payload[0] != kindRound {
		return
	}
	acc, body, ok := a.notices.Accept(payload)
	if !ok {
		return
	}
	counts := *acc
	n := int(binary.LittleEndian.Uint32(body))
	pairs := body[4:]
	for i := 0; i < n && (i+1)*core.PairBytes <= len(pairs); i++ {
		if v, c := core.ReadPair(pairs[i*core.PairBytes:]); v-a.lo < uint64(len(counts)) {
			counts[v-a.lo] = uint32(min(uint64(counts[v-a.lo])+c, math.MaxUint32))
		}
	}
}

// TryAdvance performs whatever step is possible — a slice of the sweep, or
// completing round 0 — and reports whether anything happened.
func (a *KCore) TryAdvance() bool {
	switch {
	case a.done:
		return false
	case !a.swept:
		return a.sweep()
	}
	counts, ok := a.notices.Ready()
	if !ok {
		return false
	}
	a.peel(*counts)
	return true
}

// Idle reports whether round 0 has no local step to make (waiting on peers,
// or complete).
func (a *KCore) Idle() bool {
	if a.done {
		return true
	}
	_, ready := a.notices.Ready()
	return a.swept && !ready
}

// Done reports whether round 0 is complete on this rank.
func (a *KCore) Done() bool { return a.done }

// sweep runs one slice of round 0's sweep over the rows of dead vertices,
// parking the rows whose pages are absent, and sends the rank's records once
// the last row is done and nothing is parked. It reports whether it did
// anything: a sweep waiting on pages has nothing to do until Unpark.
func (a *KCore) sweep() bool {
	if a.row == a.part.StateLen && a.Parking.Len() > 0 {
		return false
	}
	counts := *a.notices.Acc(0)
	for edges := 0; a.row < a.part.StateLen && edges < sliceEdges; a.row++ {
		edges++
		if !a.Alive[a.row] && !a.Parking.Absent(a.row, a.row) {
			edges += a.sweepRow(counts, a.row)
		}
	}
	a.Parking.Park()
	if a.row < a.part.StateLen || a.Parking.Len() > 0 {
		return true
	}
	for s, c := range a.slotCount {
		if c > 0 {
			o := a.part.SlotOwner[s]
			a.runs[o] = core.AppendPair(a.runs[o], uint64(a.part.SlotVertex[s]), uint64(c))
		}
	}
	for r, run := range a.runs {
		if r != a.part.Rank {
			binary.LittleEndian.PutUint32(run[core.RoundHeader:], uint32((len(run)-core.RoundHeader-4)/core.PairBytes))
			a.send(r, run)
		}
	}
	a.notices.Contribute()
	a.swept = true
	return true
}

// sweepRow counts dead row i's notices to its targets of degree ≥ k, into
// counts for the masters of this rank, and returns how many targets it has.
func (a *KCore) sweepRow(counts []uint32, i int) int {
	row := a.part.CSR.Row(i)
	for _, t := range row {
		u := t.Vertex()
		if a.part.Degrees[u] < a.K {
			continue // dead too: nothing to tell it
		}
		switch v := uint64(u); {
		case v-a.lo < a.hi-a.lo: // local, or an untagged word the rank masters
			counts[v-a.lo]++
		case t.Slot() >= 0:
			a.slotCount[t.Slot()]++
		default:
			o := a.part.Master(u)
			a.runs[o] = core.AppendPair(a.runs[o], v, 1)
		}
	}
	return len(row)
}

// peel subtracts round 0's notices from the counters of the masters still
// alive and retires the exchange.
func (a *KCore) peel(counts []uint32) {
	for j, c := range counts {
		if i := int(a.lo + uint64(j) - uint64(a.part.StateStart)); a.Alive[i] {
			a.Core[i] -= min(a.Core[i], c)
		}
	}
	a.notices, a.slotCount, a.runs = nil, nil, nil
	a.done = true
}

// Seed pushes, once round 0 is complete on this rank, a visitor carrying no
// notice for every master still alive whose counter is below k: its removal,
// which the cascade then runs from.
func (a *KCore) Seed(q *core.Queue[Visitor]) {
	for v := a.lo; v < a.hi; v++ {
		if i := int(v - uint64(a.part.StateStart)); a.Alive[i] && a.Core[i] < a.K {
			q.Push(Visitor{V: graph.Vertex(v)})
		}
	}
}

// PreVisit implements Algorithm 4 lines 3–12 on the master, and the
// removal-notice semantics on replicas (see package comment). The master's
// counter subtracts with saturation at 0: a live vertex receives at most one
// notice per edge, which is where its counter starts, so only a record no
// correct peer sends could take it further.
func (a *KCore) PreVisit(v Visitor) bool {
	i, ok := a.part.LocalIndex(v.V)
	if !ok {
		return false
	}
	if !a.Alive[i] {
		return false
	}
	if a.part.IsMaster(v.V) {
		a.Core[i] -= min(a.Core[i], v.N)
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

// Visit notifies every (locally stored) neighbor still in the running that
// this vertex left the core (Algorithm 4 lines 13–17).
func (a *KCore) Visit(v Visitor, q *core.Queue[Visitor]) {
	for _, t := range q.OutEdges(v.V) {
		if a.part.Degrees[t.Vertex()] >= a.K {
			q.PushEdge(t, Visitor{V: t.Vertex(), N: 1})
		}
	}
}

// Encode appends the 13-byte wire form.
func (a *KCore) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(append(buf, KindVisitor), uint64(v.V))
	return binary.LittleEndian.AppendUint32(buf, v.N)
}

// Decode parses one visitor record.
func (a *KCore) Decode(buf []byte) Visitor {
	return Visitor{V: graph.Vertex(binary.LittleEndian.Uint64(buf[1:])), N: binary.LittleEndian.Uint32(buf[9:])}
}

// LocalCoreSize returns the number of this rank's master vertices remaining
// in the core (summed over ranks, the global core size).
func (a *KCore) LocalCoreSize() uint64 {
	var n uint64
	for v := a.lo; v < a.hi; v++ {
		if a.Alive[v-uint64(a.part.StateStart)] {
			n++
		}
	}
	return n
}
