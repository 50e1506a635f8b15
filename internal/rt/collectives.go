package rt

import (
	"encoding/binary"
)

// Collectives are built from point-to-point messages, as in the paper's
// MPI-only implementation. Every rank must invoke the same sequence of
// collective calls; a per-rank sequence number tags each call so a fast
// rank's next collective cannot be confused with the current one.
//
// Reductions and broadcasts use a binomial-style binary tree rooted at rank
// 0 (O(lg p) depth); the barrier is a dissemination barrier (O(lg p) rounds).

// ReduceOp is a binary associative, commutative reduction operator on uint64.
type ReduceOp func(a, b uint64) uint64

// Predefined reduction operators.
var (
	Sum ReduceOp = func(a, b uint64) uint64 { return a + b }
	Min ReduceOp = func(a, b uint64) uint64 { return min(a, b) }
	Max ReduceOp = func(a, b uint64) uint64 { return max(a, b) }
)

// nextTag allocates the tag for the next collective call. Rounds within one
// collective are distinguished in the low 6 bits.
func (r *Rank) nextTag() uint32 {
	r.collSeq++
	return r.collSeq << 6
}

func (r *Rank) parent() int { return (r.rank - 1) / 2 }
func (r *Rank) children() []int {
	var c []int
	if l := 2*r.rank + 1; l < r.m.p {
		c = append(c, l)
	}
	if rr := 2*r.rank + 2; rr < r.m.p {
		c = append(c, rr)
	}
	return c
}

// Barrier blocks until every rank has entered the barrier.
func (r *Rank) Barrier() {
	tag := r.nextTag()
	p := r.m.p
	if p == 1 {
		return
	}
	for k, round := 1, uint32(0); k < p; k, round = k<<1, round+1 {
		to := (r.rank + k) % p
		from := (r.rank - k + p) % p
		rtag := tag | round
		r.Send(to, KindColl, rtag, nil)
		r.waitMatch(KindColl, func(m Msg) bool { return m.Tag == rtag && m.From == from })
	}
}

// AllReduceU64 combines x across all ranks with op and returns the result on
// every rank.
//
// Scratch discipline: the 8-byte payloads come from the rank's collective
// scratch pool. An up-phase contribution is built by one child and consumed
// by exactly one parent, so the parent recycles it into its own pool after
// reading the value — buffers circulate up the tree and interior ranks reach
// steady-state zero allocation. The down-phase result buffer is sent to up to
// two children (shared aliases) and is never recycled by anyone.
func (r *Rank) AllReduceU64(x uint64, op ReduceOp) uint64 {
	tag := r.nextTag()
	acc := x
	for _, c := range r.children() {
		m := r.waitMatch(KindColl, func(m Msg) bool { return m.Tag == tag && m.From == c })
		acc = op(acc, binary.LittleEndian.Uint64(m.Payload))
		r.collRecycle(m.Payload)
	}
	if r.rank != 0 {
		buf := r.collBuf()
		binary.LittleEndian.PutUint64(buf, acc)
		r.Send(r.parent(), KindColl, tag, buf)
		m := r.waitMatch(KindColl, func(m Msg) bool { return m.Tag == tag|1 && m.From == r.parent() })
		acc = binary.LittleEndian.Uint64(m.Payload)
	}
	if cs := r.children(); len(cs) > 0 {
		buf := r.collBuf()
		binary.LittleEndian.PutUint64(buf, acc)
		for _, c := range cs {
			r.Send(c, KindColl, tag|1, buf)
		}
	}
	return acc
}

// Broadcast distributes root's payload to every rank and returns it. Non-root
// callers may pass nil.
func (r *Rank) Broadcast(root int, payload []byte) []byte {
	tag := r.nextTag()
	// Rotate ranks so the tree is rooted at `root`.
	rel := (r.rank - root + r.m.p) % r.m.p
	parentRel := (rel - 1) / 2
	if rel != 0 {
		from := (parentRel + root) % r.m.p
		m := r.waitMatch(KindColl, func(m Msg) bool { return m.Tag == tag && m.From == from })
		payload = m.Payload
	}
	for _, cRel := range []int{2*rel + 1, 2*rel + 2} {
		if cRel < r.m.p {
			r.Send((cRel+root)%r.m.p, KindColl, tag, payload)
		}
	}
	return payload
}

// AllGatherU64 returns every rank's x, indexed by rank, on every rank.
func (r *Rank) AllGatherU64(x uint64) []uint64 {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, x)
	parts := r.AllGatherBytes(buf)
	out := make([]uint64, len(parts))
	for i, p := range parts {
		out[i] = binary.LittleEndian.Uint64(p)
	}
	return out
}

// AllGatherBytes returns every rank's payload, indexed by rank, on every
// rank. Gather to rank 0 then broadcast (simple and sufficient at simulated
// scales).
func (r *Rank) AllGatherBytes(payload []byte) [][]byte {
	tag := r.nextTag()
	p := r.m.p
	parts := make([][]byte, p)
	if r.rank == 0 {
		parts[0] = payload
		for n := 1; n < p; n++ {
			m := r.waitMatch(KindColl, func(m Msg) bool { return m.Tag == tag })
			parts[m.From] = m.Payload
		}
	} else {
		r.Send(0, KindColl, tag, payload)
	}
	// Broadcast the concatenation with a length table.
	var packed []byte
	if r.rank == 0 {
		packed = packParts(parts)
	}
	packed = r.Broadcast(0, packed)
	return unpackParts(packed, p)
}

// AllToAllv sends out[i] to rank i and returns in[i] received from rank i, on
// every rank. Entries may be nil/empty; a message is still exchanged so the
// collective synchronizes. out must have length Size().
func (r *Rank) AllToAllv(out [][]byte) [][]byte {
	p := r.m.p
	if len(out) != p {
		panic("rt: AllToAllv requires one (possibly empty) payload per rank")
	}
	tag := r.nextTag()
	in := make([][]byte, p)
	in[r.rank] = out[r.rank]
	for i := 1; i < p; i++ {
		to := (r.rank + i) % p
		r.Send(to, KindColl, tag, out[to])
	}
	for n := 1; n < p; n++ {
		m := r.waitMatch(KindColl, func(m Msg) bool { return m.Tag == tag })
		in[m.From] = m.Payload
	}
	return in
}

// packParts serializes a rank-indexed slice of byte slices.
func packParts(parts [][]byte) []byte {
	size := 8 * len(parts)
	for _, p := range parts {
		size += len(p)
	}
	buf := make([]byte, 0, size)
	var hdr [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(p)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	return buf
}

// unpackParts reverses packParts.
func unpackParts(buf []byte, p int) [][]byte {
	parts := make([][]byte, p)
	off := 0
	for i := 0; i < p; i++ {
		n := int(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		parts[i] = buf[off : off+n : off+n]
		off += n
	}
	return parts
}
