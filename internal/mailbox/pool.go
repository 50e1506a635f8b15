package mailbox

// Envelope-buffer pooling and arena-backed delivery: the allocation story of
// the message-plane hot path (DESIGN.md §9).
//
// Two kinds of memory dominate the Send→route→deliver→drain cycle:
//
//   - aggregation/envelope buffers: the per-destination byte buffers
//     records are staged into as runs; a hop's envelope is the first staged
//     destination's buffer with the other destinations' runs appended.
//     Buffers a Box consumes (inbound envelopes on the raw path,
//     post-frame-copy envelopes on the reliable path, staging buffers at
//     Close) feed a per-Box free-list that future outbound buffers are drawn
//     from, so at steady state envelope memory circulates between ranks
//     instead of being reallocated per shipment.
//
//   - delivered record payloads: previously one heap copy per record.
//     Box.deliver now copies each delivered run into the poll epoch's arena
//     in one append and hands out capacity-clamped sub-slices (appending to a
//     Record.Payload reallocates instead of running into a sibling). Two
//     arenas alternate across Poll calls, so a poll's records stay valid
//     while the caller processes them and expire at the next Poll or Close,
//     when their arena is reset and reused. An epoch is bounded
//     (pollEpochRecords), so an arena stays cache-sized however deep the
//     transport inbox was when Poll ran.
//
// Both outlive the Box: Close hands its arenas, Record batches and free-list
// (with the inbox and drain scratch) to the next box New builds, through a
// process-wide sync.Pool (box.go, storage). A one-shot query's transient
// engine therefore starts warm instead of regrowing all of it per rank.
//
// Safety rule: a buffer enters the pool only while it provably has a single
// live reference. On the raw path that is true for a drained envelope on the
// perfect transport (the sender shipped and forgot it; the transport held
// exactly one inbox entry); once a fault-injecting rt.Transport has been
// installed, a Duplicate fate can make two inbox entries alias one payload,
// so rt.Rank.ExclusiveDelivery latches false and inbound recycling stops for
// the machine's lifetime. Reliable-path frames are NEVER pooled in either
// direction: the sender retains (and retransmits) the very buffer it
// shipped, so both the receiver's drained frame and the sender's acked frame
// can still be aliased by in-flight retransmission copies.

// envPoolCap bounds the per-Box free-list; buffers offered beyond the cap
// are dropped for the garbage collector.
const envPoolCap = 64

// envPool is a per-Box LIFO free-list of envelope/aggregation buffers. It is
// rank-confined (Box is not concurrency-safe) so it needs no locking; LIFO
// keeps the hottest (cache-resident) buffer on top.
type envPool struct {
	free [][]byte
}

// get returns a recycled zero-length buffer with retained capacity, or nil
// when the pool is empty (the caller lets append allocate).
func (p *envPool) get() []byte {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	b := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return b[:0]
}

// put offers a consumed buffer to the pool, reporting whether it was kept.
// Zero-capacity buffers and offers beyond the cap are dropped.
func (p *envPool) put(b []byte) bool {
	if cap(b) == 0 || len(p.free) >= envPoolCap {
		return false
	}
	p.free = append(p.free, b)
	return true
}

// size returns the number of pooled buffers.
func (p *envPool) size() int { return len(p.free) }
