// Package sssp implements single-source shortest path as bulk-synchronous
// Δ-stepping (Meyer & Sanders; the way GBBS runs SSSP) on the counted round
// exchange direction-optimizing BFS, PageRank and k-core's first peel run on
// (core.RoundExchange).
//
// Vertices fall into buckets of width Delta by tentative distance. Round r
// relaxes bucket B_r, the same on every rank: each rank takes its pending
// states — those whose distance improved since they were last relaxed — in
// a bucket at most B_r, and relaxes their stored out-edges with the distance
// they had when the round took them. A target the rank masters improves in
// place and becomes pending. A remote target's candidate folds into its slot
// (the partition's Target.Slot numbering): the slot keeps the best (dist,
// parent) the rank has offered the vertex over the whole query and is sent
// again only when a candidate beats it, so a slot is the ghost filter's
// per-query copy, exact instead of advisory. The few untagged remote edges
// go to their owner's run as they are relaxed. Each rank then sends every
// peer one record — its triples for that peer, possibly none, and the
// smallest bucket the rank still has pending or has just sent — and, once a
// round's p−1 peer records have arrived, merges their triples. B_{r+1} is
// the smallest bucket any rank announced in round r, which every rank
// computes alike; the query ends when it is ∞.
//
// No rank runs ahead: a vertex is relaxed only at a distance within the
// bucket every rank agreed on, so no rank relaxes a distance a slower one is
// about to beat. Each round's state is a function of the previous round's:
// the frontier is taken before any relaxation of the round, triples merge by
// minimum, and on equal distances the smaller parent wins. So the rounds, the
// relaxations and the records — exactly rounds·p(p−1) — do not depend on the
// schedule.
//
// A split row's fragment (edge-list partitioning puts at most one on a rank,
// its first row) is relaxed with the master's distance. Every chain member is
// a peer of the master, and the master sends every peer a record each round,
// so the distance rides it: a master that relaxes the split row it masters
// writes that distance into all of the round's records, and a rank holding a
// fragment of it takes the distance from its master's record when the round
// completes and relaxes the fragment in the next, within the same bucket
// (the master's announcement includes it). No extra record is sent.
//
// Out of core, a frontier row whose adjacency is not resident is parked on
// its page, as the visitor queue parks a visitor (core.Parking), and the
// round relaxes it when the page arrives; it sends its records once the
// frontier is relaxed and nothing is parked. Relaxations merge by minimum,
// so the order pages arrive in changes nothing the round computes.
//
// Edge weights are synthesized deterministically from the endpoint pair (the
// CSR stores no weights), symmetric for undirected graphs, so every rank and
// the sequential reference agree.
package sssp

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/xrand"
)

// Unreached is the distance of vertices not reached by the traversal (∞).
const Unreached = ^uint64(0)

// Summary folds a global distance array into the traversal's reached-vertex
// count and its longest finite distance.
func Summary(dist []uint64) (reached, maxDist uint64) {
	for _, d := range dist {
		if d != Unreached {
			reached++
			maxDist = max(maxDist, d)
		}
	}
	return reached, maxDist
}

// MaxWeight bounds synthesized edge weights to [1, MaxWeight].
const MaxWeight = 255

// MaxDist bounds any legitimate tentative distance: the longest simple path
// is under 2^32 edges at any simulated scale and each edge weighs at most
// MaxWeight < 2^8, so real distances stay below 2^40. A distance above it
// can only come from corruption, and Handle drops it before it can take part
// in an improvement test. Everything a rank holds is then at most MaxDist
// plus a path's weight, so no relaxation's sum can wrap past Unreached.
const MaxDist = uint64(1) << 40

// Delta is the bucket width. Meyer and Sanders choose about the largest
// weight over the mean degree — 255 / 27 ≈ 9 on the benchmark's graph. A
// serial count of this protocol there, over 8 sources, gave per query 0.91 M
// relaxations in 110 rounds at Δ = 4, 1.02 M in 70 at 8, 1.31 M in 46 at 16
// and 3.11 M in 16 at 256 (every edge light: Bellman–Ford). Narrower buckets
// relax less and wait on more rounds, and under concurrent queries rounds
// are what costs: at the benchmark's serve_points mix Δ = 8 served as many
// queries per second as 16, at a p95 31% higher (DESIGN.md §3).
const Delta = 16

// Weight returns the deterministic, symmetric weight of edge {u, v}.
func Weight(u, v graph.Vertex, seed uint64) uint64 {
	if u > v {
		u, v = v, u
	}
	h := xrand.Mix64(uint64(u)*0x9e3779b97f4a7c15 ^ xrand.Mix64(uint64(v)+seed))
	return h%MaxWeight + 1
}

// kindRound is the first byte of a round record:
//
//	[header][next u64][split u64][count u32][count × triple]
//
// next is the sender's smallest bucket still pending or just sent (^0:
// none); split is the distance at which the sender relaxed the split row it
// masters this round (Unreached: it did not); a triple is a core pair
// (vertex, parent) and the distance, a u64.
const kindRound = 1

const (
	recordHeader = core.RoundHeader + 8 + 8 + 4
	tripleBytes  = core.PairBytes + 8
)

// blank holds a record's next, split and count until the round fills them in.
var blank [recordHeader - core.RoundHeader]byte

// noBucket is the bucket of nothing: no state pending, no triple sent.
const noBucket = ^uint64(0)

// sliceEdges is how many edges one TryAdvance relaxes before it returns, so
// the rank loop interleaves other queries with a round.
const sliceEdges = 256

// SSSP is one rank's state machine. Drive it with Handle (one delivered
// payload), TryAdvance (a slice of a round's relaxation, or a completed
// round) and Unpark (parked rows whose pages arrived); once the rounds have
// run out it stays Idle. Sends go through the injected send function, as
// bfs.DO's do.
type SSSP struct {
	part   *partition.Part
	seed   uint64
	send   func(dest int, payload []byte)
	lo, hi uint64 // master range

	// Dist and Parent are per local state; a fragment's Parent is unused.
	Dist   []uint64
	Parent []graph.Vertex

	// Relaxed counts the edges this rank relaxed.
	Relaxed uint64

	// pending lists the states whose distance improved since they were last
	// relaxed, each once (queued).
	pending []int32
	queued  []bool

	// The round in progress: bucket is B_r; frontier the states it relaxes,
	// at the distance they had when it took them, next its own index; next
	// the smallest bucket pending or sent so far; split the distance of the
	// split row this rank masters (splitRow), if the round relaxes it.
	rounds   *core.RoundExchange[roundAcc]
	bucket   uint64
	frontier []relaxation
	fi       int
	started  bool // frontier taken, records not yet sent
	sent     bool // the round's records sent
	next     uint64
	split    uint64
	done     bool

	splitRow int32 // state of the split row this rank masters; -1 if none
	fragment bool  // the first row is a fragment mastered elsewhere
	fragFrom int   // that fragment's master

	// Per remote slot: the best candidate offered so far, its distance and
	// its parent apart, since most relaxations read only the distance; dirty
	// lists the slots it improved for this round.
	slotDist   []uint64
	slotParent []graph.Vertex
	slotDirty  []bool
	dirty      []int32

	runs [][]byte // per peer: the record the round is building

	// Out of core, the frontier entries waiting on their rows' pages: Unpark
	// relaxes those of a pager Drain batch.
	core.Parking[relaxation]
}

// relaxation is one frontier entry: a state and the distance it is relaxed at.
type relaxation struct {
	i int32
	d uint64
}

// roundAcc is one round's accumulator: the triples of the peers' records
// that name a master of this rank, the smallest bucket announced, and the
// fragment's distance from its master's record.
type roundAcc struct {
	triples []byte
	next    uint64
	split   uint64
}

func (a *roundAcc) reset() { a.triples, a.next, a.split = a.triples[:0], noBucket, Unreached }

// New builds rank state for a query from source with weights keyed by
// weightSeed: every vertex at ∞ but the source, at 0 and pending on its
// master, and round 0 relaxing bucket 0. send transmits one record to a peer
// rank (never to self); pager is nil when the adjacency is resident.
func New(part *partition.Part, source graph.Vertex, weightSeed uint64, send func(dest int, payload []byte), pager core.RowPager) *SSSP {
	lo, hi := part.Owners.MasterRange(part.Rank)
	s := &SSSP{
		part:       part,
		seed:       weightSeed,
		send:       send,
		lo:         lo,
		hi:         hi,
		Dist:       make([]uint64, part.StateLen),
		Parent:     make([]graph.Vertex, part.StateLen),
		queued:     make([]bool, part.StateLen),
		rounds:     core.NewRoundExchange(part.P, part.Rank, 0, roundAcc{next: noBucket, split: Unreached}, roundAcc{next: noBucket, split: Unreached}),
		splitRow:   -1,
		fragment:   part.StateLen > 0 && !part.IsMaster(part.StateStart),
		slotDist:   make([]uint64, len(part.SlotVertex)),
		slotParent: make([]graph.Vertex, len(part.SlotVertex)),
		slotDirty:  make([]bool, len(part.SlotVertex)),
		runs:       make([][]byte, part.P),
	}
	s.Parking = core.NewParking(pager, func(f relaxation) { s.relaxRow(f) })
	for i := range s.Dist {
		s.Dist[i] = Unreached
		s.Parent[i] = graph.Nil
	}
	for i := range s.slotDist {
		s.slotDist[i] = Unreached
		s.slotParent[i] = graph.Nil
	}
	if s.fragment {
		s.fragFrom = part.Master(part.StateStart)
	}
	if v := part.ForwardVertex; part.HasForward && part.IsMaster(v) {
		s.splitRow = int32(v - part.StateStart)
	}
	if part.IsMaster(source) {
		s.improve(int32(source-part.StateStart), 0, source)
	}
	return s
}

// Resume seeds the state from a checkpoint's global arrays: every local
// state — a fragment too, at its master's distance — with a finite distance
// no corrupt record could carry takes it, and is pending.
func (s *SSSP) Resume(dist []uint64, parents []graph.Vertex) {
	for i := range s.Dist {
		v := s.part.Vertex(i)
		if d := dist[v]; d <= MaxDist {
			s.improve(int32(i), d, parents[v])
		}
	}
}

// improve offers state i the distance d through parent: a shorter distance
// wins and makes the state pending, an equal one takes the smaller parent.
func (s *SSSP) improve(i int32, d uint64, parent graph.Vertex) {
	switch {
	case d < s.Dist[i]:
		s.Dist[i], s.Parent[i] = d, parent
		if !s.queued[i] {
			s.queued[i] = true
			s.pending = append(s.pending, i)
		}
		s.next = min(s.next, d/Delta)
	case d == s.Dist[i] && parent < s.Parent[i]:
		s.Parent[i] = parent
	}
}

// Handle applies one delivered round record. A record the protocol cannot
// have sent — out of its window, a duplicate, from a sender that is no peer,
// shorter than its header — is dropped; so is a triple naming a vertex the
// rank does not master, a parent outside the graph or a distance above
// MaxDist, and a count that overruns the record reads only the triples it
// holds.
func (s *SSSP) Handle(payload []byte) {
	if len(payload) < recordHeader || payload[0] != kindRound {
		return
	}
	acc, body, ok := s.rounds.Accept(payload)
	if !ok {
		return
	}
	acc.next = min(acc.next, binary.LittleEndian.Uint64(body))
	if d := binary.LittleEndian.Uint64(body[8:]); s.fragment && d <= MaxDist &&
		int(binary.LittleEndian.Uint32(payload[1:])) == s.fragFrom {
		acc.split = min(acc.split, d)
	}
	n := int(binary.LittleEndian.Uint32(body[16:]))
	triples := body[20:]
	for i := 0; i < n && (i+1)*tripleBytes <= len(triples); i++ {
		t := triples[i*tripleBytes : (i+1)*tripleBytes]
		v, parent := core.ReadPair(t)
		if v-s.lo < s.hi-s.lo && parent < s.part.NumVertices && binary.LittleEndian.Uint64(t[core.PairBytes:]) <= MaxDist {
			acc.triples = append(acc.triples, t...)
		}
	}
}

// TryAdvance performs whatever step is possible — a slice of the round's
// relaxation (taking its frontier first), or completing the round — and
// reports whether anything happened.
func (s *SSSP) TryAdvance() bool {
	switch {
	case s.done:
		return false
	case !s.sent:
		return s.relax()
	}
	acc, ok := s.rounds.Ready()
	if !ok {
		return false
	}
	s.complete(acc)
	return true
}

// Idle reports whether this rank has no local step to make (waiting on
// peers, or finished). A round with rows parked is not idle: its records are
// still to be sent.
func (s *SSSP) Idle() bool {
	if s.done {
		return true
	}
	_, ready := s.rounds.Ready()
	return s.sent && !ready
}

// Done reports whether the traversal has finished on this rank.
func (s *SSSP) Done() bool { return s.done }

// relax runs one slice of the round: it takes the frontier when the round
// starts, relaxes frontier rows until a slice's worth of edges, parking the
// ones whose pages are absent, and sends the round's records once the
// frontier is relaxed and nothing is parked. It reports whether it did
// anything: a round waiting on pages has nothing to do until Unpark.
func (s *SSSP) relax() bool {
	if !s.started {
		s.take()
	} else if s.fi == len(s.frontier) && s.Parking.Len() > 0 {
		return false
	}
	for edges := 0; s.fi < len(s.frontier) && edges < sliceEdges; s.fi++ {
		if f := s.frontier[s.fi]; !s.Parking.Absent(int(f.i), f) {
			edges += s.relaxRow(f) + 1
		}
	}
	s.Parking.Park()
	if s.fi == len(s.frontier) && s.Parking.Len() == 0 {
		s.flush()
	}
	return true
}

// relaxRow relaxes the stored out-edges of one frontier entry and returns
// how many there were. Every weight is at least 1, so a target already at
// the entry's distance or nearer cannot improve, nor tie, and its weight is
// not computed.
func (s *SSSP) relaxRow(f relaxation) int {
	lo, span, start := s.lo, s.hi-s.lo, uint64(s.part.StateStart)
	u := s.part.Vertex(int(f.i))
	row := s.part.CSR.Row(int(f.i))
	for _, t := range row {
		v := t.Vertex()
		switch x := uint64(v); {
		case x-lo < span: // local, or an untagged word the rank masters
			if i := int32(x - start); s.Dist[i] > f.d {
				s.improve(i, f.d+Weight(u, v, s.seed), u)
			}
		case t.Slot() >= 0:
			sl := t.Slot()
			if s.slotDist[sl] <= f.d {
				continue
			}
			if d := f.d + Weight(u, v, s.seed); d < s.slotDist[sl] || d == s.slotDist[sl] && u < s.slotParent[sl] {
				s.slotDist[sl], s.slotParent[sl] = d, u
				if !s.slotDirty[sl] {
					s.slotDirty[sl] = true
					s.dirty = append(s.dirty, int32(sl))
				}
			}
		default:
			d := f.d + Weight(u, v, s.seed)
			o := s.part.Master(v)
			s.runs[o] = appendTriple(s.runs[o], x, d, u)
			s.next = min(s.next, d/Delta)
		}
	}
	s.Relaxed += uint64(len(row))
	return len(row)
}

// take starts the round: it moves the pending states in a bucket at most
// B_r to the frontier, at their current distance, and starts the records.
func (s *SSSP) take() {
	s.started, s.fi, s.next, s.split = true, 0, noBucket, Unreached
	s.frontier = s.frontier[:0]
	keep := s.pending[:0]
	for _, i := range s.pending {
		d := s.Dist[i]
		if b := d / Delta; b > s.bucket {
			keep = append(keep, i)
			s.next = min(s.next, b)
			continue
		}
		s.queued[i] = false
		s.frontier = append(s.frontier, relaxation{i, d})
		if i == s.splitRow {
			s.split = d
		}
	}
	s.pending = keep
	r := s.rounds.Round()
	for peer := range s.runs {
		if peer != s.part.Rank {
			s.runs[peer] = append(core.AppendRoundHeader(s.runs[peer][:0], kindRound, s.part.Rank, r), blank[:]...)
		}
	}
}

// flush ends the round's relaxation: the slots it improved join their
// owners' runs, every peer gets its record, and the rank's announcement
// merges into the round's own accumulator.
func (s *SSSP) flush() {
	for _, sl := range s.dirty {
		s.slotDirty[sl] = false
		o := s.part.SlotOwner[sl]
		s.runs[o] = appendTriple(s.runs[o], uint64(s.part.SlotVertex[sl]), s.slotDist[sl], s.slotParent[sl])
		s.next = min(s.next, s.slotDist[sl]/Delta)
	}
	s.dirty = s.dirty[:0]
	if s.split != Unreached {
		s.next = min(s.next, s.split/Delta) // the fragments relax it next round
	}
	for peer, run := range s.runs {
		if peer != s.part.Rank {
			binary.LittleEndian.PutUint64(run[core.RoundHeader:], s.next)
			binary.LittleEndian.PutUint64(run[core.RoundHeader+8:], s.split)
			binary.LittleEndian.PutUint32(run[core.RoundHeader+16:], uint32((len(run)-recordHeader)/tripleBytes))
			s.send(peer, run)
		}
	}
	acc := s.rounds.Acc(s.rounds.Round())
	acc.next = min(acc.next, s.next)
	s.rounds.Contribute()
	s.started, s.sent = false, true
}

// complete merges a completed round — the peers' triples and, for a
// fragment, its master's distance — and starts the next round at the
// smallest bucket announced, or ends the query when there is none.
func (s *SSSP) complete(acc *roundAcc) {
	start := uint64(s.part.StateStart)
	for t := acc.triples; len(t) >= tripleBytes; t = t[tripleBytes:] {
		v, parent := core.ReadPair(t)
		s.improve(int32(v-start), binary.LittleEndian.Uint64(t[core.PairBytes:]), graph.Vertex(parent))
	}
	if s.fragment && acc.split < s.Dist[0] {
		s.improve(0, acc.split, graph.Nil)
	}
	s.bucket = acc.next
	acc.reset()
	s.rounds.Advance()
	s.sent = false
	s.done = s.bucket == noBucket
}

// appendTriple appends the triple (v, d, parent) to a run.
func appendTriple(run []byte, v, d uint64, parent graph.Vertex) []byte {
	return binary.LittleEndian.AppendUint64(core.AppendPair(run, v, uint64(parent)), d)
}
