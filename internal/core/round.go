package core

import "encoding/binary"

// RoundHeader is the length of the header every round record starts with:
// [kind u8][sender u32][round u32]. The kind byte is the protocol's own; the
// exchange reads the sender and the round.
const RoundHeader = 9

// AppendRoundHeader appends a round record's header to buf.
func AppendRoundHeader(buf []byte, kind byte, sender int, round uint32) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(sender))
	return binary.LittleEndian.AppendUint32(buf, round)
}

// PairBytes is the length of a round pair, the unit a dense kernel's round
// record carries: a vertex and a value. It is a u64 holding the vertex in
// its low 40 bits — every vertex fits them (csr.MaxVertices) — and the
// value's low 24 bits above it, then a u16 holding the value's top 16 bits.
// The value must fit 40 bits; each protocol says why its values do.
const PairBytes = 10

const pairVertexBits = 40

// AppendPair appends the pair (v, x) to buf.
func AppendPair(buf []byte, v, x uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, v|x<<pairVertexBits)
	return binary.LittleEndian.AppendUint16(buf, uint16(x>>(64-pairVertexBits)))
}

// ReadPair parses the pair at the start of b (at least PairBytes long).
func ReadPair(b []byte) (v, x uint64) {
	w := binary.LittleEndian.Uint64(b)
	return w & (1<<pairVertexBits - 1), w>>pairVertexBits | uint64(binary.LittleEndian.Uint16(b[8:]))<<(64-pairVertexBits)
}

// RoundExchange is one rank's end of a counted round exchange, the protocol a
// dense kernel runs on instead of a visitor queue (direction-optimizing BFS's
// levels, PageRank's iterations, k-core's first peel). In each round every
// rank sends exactly one record to every peer — its contribution, possibly
// empty — and merges its own contribution directly; a round is complete on a
// rank when its p−1 peer records and its own contribution have arrived. No
// barrier or reduction is needed: every rank that merges the same records
// computes the same thing.
//
// A rank sends its contribution to round r+1 only after it has completed
// round r, which takes this rank's contribution to r. So while a rank waits
// on round r, a peer's record names r or r+1, never another round, and two
// accumulators, reused alternately, hold everything in flight. A record
// outside that window, from a sender outside the machine or this rank itself,
// or a second one from the same sender for the same round, cannot come from
// a correct peer and is dropped: the exchange's state is bounded by its two
// slots whatever arrives.
//
// A is the protocol's accumulator (a bitmap, an array of sums); the exchange
// owns the two and counts arrivals, and the protocol merges record bodies
// into them and clears one when it has consumed its round.
type RoundExchange[A any] struct {
	rank  int
	round uint32 // the round that completes next
	slots [2]roundSlot[A]
}

type roundSlot[A any] struct {
	seen []bool // by sender: contribution counted
	left int    // contributions still to arrive
	acc  A
}

// NewRoundExchange builds rank's end of a p-rank exchange whose first round
// is first, with a and b as the two accumulators.
func NewRoundExchange[A any](p, rank int, first uint32, a, b A) *RoundExchange[A] {
	x := &RoundExchange[A]{rank: rank, round: first}
	for i, acc := range [2]A{a, b} {
		x.slots[i] = roundSlot[A]{seen: make([]bool, p), left: p, acc: acc}
	}
	return x
}

// Round returns the round that completes next.
func (x *RoundExchange[A]) Round() uint32 { return x.round }

// slot returns round r's slot, or nil outside the window [Round, Round+1].
func (x *RoundExchange[A]) slot(r uint32) *roundSlot[A] {
	if r-x.round > 1 {
		return nil
	}
	return &x.slots[r&1]
}

// Acc returns round r's accumulator, or nil when r is outside the window.
func (x *RoundExchange[A]) Acc(r uint32) *A {
	if s := x.slot(r); s != nil {
		return &s.acc
	}
	return nil
}

// Accept counts one peer record. It returns the accumulator of the round the
// record names and the record's body after the header, for the protocol to
// merge; ok is false, and nothing is counted, when the record is to be
// dropped (see RoundExchange).
func (x *RoundExchange[A]) Accept(payload []byte) (acc *A, body []byte, ok bool) {
	if len(payload) < RoundHeader {
		return nil, nil, false
	}
	sender := binary.LittleEndian.Uint32(payload[1:])
	s := x.slot(binary.LittleEndian.Uint32(payload[5:]))
	if s == nil || uint64(sender) >= uint64(len(s.seen)) || int(sender) == x.rank || s.seen[sender] {
		return nil, nil, false
	}
	s.seen[sender] = true
	s.left--
	return &s.acc, payload[RoundHeader:], true
}

// Contribute counts this rank's own contribution to the current round, which
// the protocol has merged into Acc(Round()) itself. A second call is a no-op.
func (x *RoundExchange[A]) Contribute() {
	s := &x.slots[x.round&1]
	if !s.seen[x.rank] {
		s.seen[x.rank] = true
		s.left--
	}
}

// Ready returns the current round's accumulator when every contribution to
// it has arrived.
func (x *RoundExchange[A]) Ready() (*A, bool) {
	s := &x.slots[x.round&1]
	return &s.acc, s.left == 0
}

// Advance retires the current round, whose accumulator the protocol has
// consumed and cleared, and makes its slot the window's far end.
func (x *RoundExchange[A]) Advance() {
	s := &x.slots[x.round&1]
	clear(s.seen)
	s.left = len(s.seen)
	x.round++
}
