package mailbox

import (
	"encoding/binary"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// DefaultFlushBytes is the per-channel aggregation threshold, measured in
// framed envelope bytes — record payloads PLUS the 12-byte recordHeader each
// record carries — i.e. exactly the transport message size a shipped buffer
// produces. A channel's buffer is shipped once the framed bytes reach the
// threshold (a single record may overshoot it; the whole record still ships
// in one envelope). Idle ranks flush everything (FlushAll) so aggregation
// never stalls termination.
//
// The threshold deliberately counts framing, not raw payload: the quantity
// being bounded is the wire/transport unit. WithFlushBytes documents the
// same semantic, and TestFlushThresholdCountsFramedBytes pins the boundary.
const DefaultFlushBytes = 4096

// recordHeader is the per-record framing inside an aggregated envelope:
// [finalDest u32][tag u32][payloadLen u32]. The tag is a caller-defined
// record namespace — the multi-query engine stores a compact query ID there
// so one shared mailbox can interleave many concurrent traversals and
// demultiplex delivered records back to their queries. Single-traversal
// callers use tag 0.
const recordHeader = 12

// Stats counts mailbox activity on one rank for one Box lifetime (one
// traversal). The same counts are mirrored into the machine's obs.Registry
// under the mailbox.* names, where they accumulate machine-wide until
// obs.Registry.Reset; Stats stays per-Box so back-to-back traversals see
// fresh numbers.
type Stats struct {
	RecordsSent      uint64 // records entered via Send on this rank
	RecordsDelivered uint64 // records delivered to this rank (final dest)
	RecordsForwarded uint64 // records re-routed through this rank
	EnvelopesSent    uint64 // logical envelopes shipped (retransmits excluded)
	EnvelopesRecv    uint64 // envelopes accepted (duplicates excluded)
	Hops             uint64 // transport hops taken by routed records
	Flushes          uint64 // idle-driven FlushAll envelope shipments
	DecodeErrors     uint64 // malformed envelope contents rejected by Poll
	ChannelsUsed     int    // distinct next-hop ranks actually used

	// Reliable-delivery counters (zero unless the Box was built
	// WithReliable; see reliable.go for the protocol).
	Retransmits    uint64 // frames re-sent after an RTO expiry
	DupDropped     uint64 // already-delivered duplicate frames discarded
	CorruptDropped uint64 // frames/acks failing the CRC check
	StaleDropped   uint64 // frames/acks from a previous traversal's epoch
	AcksSent       uint64 // cumulative acks shipped

	// Envelope-buffer pool counters (see pool.go / DESIGN.md §9). The pool
	// hit rate PoolHits/PoolGets measures how close the plane runs to zero
	// steady-state allocation; PoolBytesRecycled is the capacity returned to
	// the pool over the Box lifetime.
	PoolGets          uint64 // requests for a fresh aggregation buffer
	PoolHits          uint64 // requests served from the free-list
	PoolBytesRecycled uint64 // buffer capacity accepted back into the pool
}

// AggregationRatio returns records per shipped envelope — the direct
// measure of how much the aggregation layer batches per topology.
func (s Stats) AggregationRatio() float64 {
	if s.EnvelopesSent == 0 {
		return 0
	}
	return float64(s.RecordsSent+s.RecordsForwarded) / float64(s.EnvelopesSent)
}

// metrics bundles the rank's obs handles for the hot paths.
type metrics struct {
	rank          int
	recordsSent   *obs.PerRank
	delivered     *obs.PerRank
	forwarded     *obs.PerRank
	envelopesSent *obs.PerRank
	envelopesRecv *obs.PerRank
	hops          *obs.PerRank
	flushes       *obs.PerRank
	decodeErrors  *obs.PerRank
	envelopeBytes *obs.Histogram

	poolGets     *obs.PerRank
	poolHits     *obs.PerRank
	poolRecycled *obs.PerRank
	poolFree     *obs.Gauge
	arenaBytes   *obs.Histogram

	retransmits    *obs.PerRank
	dupDropped     *obs.PerRank
	corruptDropped *obs.PerRank
	staleDropped   *obs.PerRank
	acksSent       *obs.PerRank
}

func newMetrics(r *rt.Rank) metrics {
	reg, p := r.Obs(), r.Size()
	return metrics{
		rank:          r.Rank(),
		recordsSent:   reg.PerRank(obs.MBRecordsSent, p),
		delivered:     reg.PerRank(obs.MBRecordsDelivered, p),
		forwarded:     reg.PerRank(obs.MBRecordsForwarded, p),
		envelopesSent: reg.PerRank(obs.MBEnvelopesSent, p),
		envelopesRecv: reg.PerRank(obs.MBEnvelopesRecv, p),
		hops:          reg.PerRank(obs.MBHops, p),
		flushes:       reg.PerRank(obs.MBFlushes, p),
		decodeErrors:  reg.PerRank(obs.MBDecodeErrors, p),
		envelopeBytes: reg.Histogram(obs.MBEnvelopeBytes),

		poolGets:     reg.PerRank(obs.MBPoolGets, p),
		poolHits:     reg.PerRank(obs.MBPoolHits, p),
		poolRecycled: reg.PerRank(obs.MBPoolRecycledBytes, p),
		poolFree:     reg.Gauge(obs.MBPoolFree),
		arenaBytes:   reg.Histogram(obs.MBArenaPollBytes),

		retransmits:    reg.PerRank(obs.MBRetransmits, p),
		dupDropped:     reg.PerRank(obs.MBDupDropped, p),
		corruptDropped: reg.PerRank(obs.MBCorruptDropped, p),
		staleDropped:   reg.PerRank(obs.MBStaleDropped, p),
		acksSent:       reg.PerRank(obs.MBAcksSent, p),
	}
}

// FlowCounter receives end-to-end record counts partitioned by record tag.
// The multi-query engine registers one to feed each in-flight query's
// termination detector independently; the single-traversal path wraps its
// lone detector in an adapter that ignores the tag. Implementations are
// invoked only from the owning rank's goroutine (Send/Poll are not
// concurrency-safe), so they need no internal locking.
type FlowCounter interface {
	// CountSent records n records entering the mailbox under tag (at the
	// originating rank).
	CountSent(tag uint32, n uint64)
	// CountReceived records n records delivered at their final destination
	// under tag.
	CountReceived(tag uint32, n uint64)
}

// detFlow adapts a single termination detector to the FlowCounter seam for
// a Box that serves one exchange alone (every record feeds the one detector,
// whatever its tag).
type detFlow struct{ det *termination.Detector }

func (f detFlow) CountSent(_ uint32, n uint64)     { f.det.CountSent(n) }
func (f detFlow) CountReceived(_ uint32, n uint64) { f.det.CountReceived(n) }

// Box is one rank's routed mailbox: the paper's `mailbox` abstraction with
// send(rank, data) and receive() (§V), implemented over the aggregation and
// routing network of §III-B.
type Box struct {
	r     *rt.Rank
	topo  Topology
	flows FlowCounter // nil = no flow accounting

	flushBytes int
	buffers    map[int][]byte   // next-hop rank -> pending aggregated records
	channels   map[int]struct{} // distinct next-hop ranks ever used (Stats.ChannelsUsed)
	stats      Stats
	met        metrics
	inFlush    bool // inside FlushAll (attributes shipments to MBFlushes)

	// pool is the per-Box free-list of aggregation/envelope buffers
	// (pool.go). It is fed by consumed inbound envelopes (raw path, exclusive
	// delivery only) and by aggregation buffers whose records the reliable
	// layer has copied into a frame; enqueue draws new outbound buffers from
	// it.
	pool envPool

	// Arena-backed delivery (pool.go): each poll epoch's delivered record
	// payloads are batch-copied into one grow-only arena and handed out as
	// capacity-clamped sub-slices. delivered/arena accumulate the current
	// epoch; deliveredPrev/arenaPrev hold the previous epoch's (possibly
	// still referenced by the caller) storage and are reset and reused when
	// Poll rolls the epoch over.
	delivered     []Record
	deliveredPrev []Record
	arena         []byte
	arenaPrev     []byte

	// msgScratch is the reusable rt.Msg drain buffer handed to
	// rt.Rank.RecvInto on the raw path.
	msgScratch []rt.Msg

	// rel, when non-nil, runs the seq/ack/retransmit protocol of reliable.go
	// under every envelope; wantRel and the RTO bounds stage the WithReliable
	// option until New can mint the box epoch.
	rel             *reliable
	wantRel         bool
	rtoBase, rtoMax time.Duration
}

// Record is one delivered visitor record. The payload is a copy carved from
// the Box's delivery arena: it never aliases transport buffers, and it is
// capacity-clamped so appending to it reallocates instead of running into a
// sibling record's bytes. Payloads are valid until the NEXT Poll on the same
// Box — at that point their arena is reset and reused for a new epoch — so a
// caller that parks a Record across polls must copy the payload out
// (append([]byte(nil), p...)). Mutating a payload in place within its epoch
// is safe and affects no other record. Tag is the record namespace stamped
// at Send time (query ID under the multi-query engine, 0 on the
// single-traversal path).
type Record struct {
	Tag     uint32
	Payload []byte
}

// Option configures a Box.
type Option func(*Box)

// WithFlushBytes sets the per-channel aggregation threshold, measured in
// framed envelope bytes — record payloads plus the 12-byte per-record
// header — exactly the size of the transport message a ship produces (see
// DefaultFlushBytes).
func WithFlushBytes(n int) Option {
	return func(b *Box) { b.flushBytes = n }
}

// WithFlows installs a tag-aware flow counter, replacing (or standing in
// for) the single-detector accounting. The multi-query engine uses this to
// route per-record send/receive counts to the record's query.
func WithFlows(fc FlowCounter) Option {
	return func(b *Box) { b.flows = fc }
}

// WithReliable enables sequence-numbered, acked, checksummed envelope
// delivery with capped exponential-backoff retransmission (see reliable.go).
// Must be set uniformly across all ranks of a machine — mailboxes are
// created collectively, and a reliable box speaks a framed wire format a
// raw box would reject as decode errors.
func WithReliable() Option {
	return func(b *Box) { b.wantRel = true }
}

// WithRTO overrides the reliable layer's retransmission-timeout bounds: the
// first retransmit of a frame fires after base, each further one doubles the
// backoff up to max. Zero values keep DefaultRTOBase/DefaultRTOMax. Only
// meaningful together with WithReliable.
func WithRTO(base, max time.Duration) Option {
	return func(b *Box) { b.rtoBase, b.rtoMax = base, max }
}

// New returns a mailbox for the rank using the given routing topology. The
// detector, if non-nil, is fed with end-to-end record counts: one send at the
// originating rank, one receive at the final destination (records parked in
// intermediate aggregation buffers are exactly the S−R in-flight gap the
// termination waves must see drain to zero).
func New(r *rt.Rank, topo Topology, det *termination.Detector, opts ...Option) *Box {
	b := &Box{
		r:          r,
		topo:       topo,
		flushBytes: DefaultFlushBytes,
		buffers:    make(map[int][]byte),
		channels:   make(map[int]struct{}),
		met:        newMetrics(r),
	}
	if det != nil {
		b.flows = detFlow{det: det}
	}
	for _, o := range opts {
		o(b)
	}
	if b.wantRel {
		// Minting the epoch advances the rank's machine-level generation
		// counter; done collectively (every rank constructs its box), all
		// ranks observe the same epoch for this traversal.
		b.rel = newReliable(r, b, b.rtoBase, b.rtoMax)
	}
	return b
}

// Reliable reports whether this box runs the reliable-delivery protocol.
func (b *Box) Reliable() bool { return b.rel != nil }

// Send routes one tag-0 record toward dest, buffering it for aggregation.
// The record bytes are copied; the caller may reuse its buffer.
func (b *Box) Send(dest int, record []byte) { b.SendTagged(dest, 0, record) }

// SendTagged routes one record toward dest under the given tag. The tag
// travels in the record header and comes back out on the delivered Record,
// letting one mailbox multiplex records of many concurrent traversals.
func (b *Box) SendTagged(dest int, tag uint32, record []byte) {
	b.stats.RecordsSent++
	b.met.recordsSent.Inc(b.met.rank)
	if b.flows != nil {
		b.flows.CountSent(tag, 1)
	}
	if dest == b.r.Rank() {
		// Loopback delivery, as MPI self-sends do.
		b.deliver(tag, record)
		return
	}
	b.enqueue(dest, tag, record)
}

// enqueue appends a framed record to the aggregation buffer of the next hop
// toward dest, shipping the buffer if it crossed the flush threshold.
func (b *Box) enqueue(dest int, tag uint32, record []byte) {
	hop := b.topo.NextHop(b.r.Rank(), dest)
	b.stats.Hops++
	b.met.hops.Inc(b.met.rank)
	buf := b.buffers[hop]
	if buf == nil {
		// A fresh outbound buffer: draw recycled capacity from the pool so
		// steady-state aggregation reallocates nothing.
		buf = b.getBuf()
	}
	// Count distinct next-hop channels, not buffer (re)creations: a buffer is
	// nil again after every ship/FlushAll, so keying the count off buffer
	// existence would inflate ChannelsUsed past Topology.MaxChannels.
	if _, seen := b.channels[hop]; !seen {
		b.channels[hop] = struct{}{}
		b.stats.ChannelsUsed++
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(dest))
	binary.LittleEndian.PutUint32(hdr[4:], tag)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(record)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, record...)
	if len(buf) >= b.flushBytes {
		b.ship(hop, buf)
		buf = nil
	}
	b.buffers[hop] = buf
}

// ship sends one aggregated envelope to the next hop. Stats count logical
// envelopes: a reliable box's retransmissions of the same envelope are
// accounted under Stats.Retransmits, not here, so envelope conservation
// (Σsent == Σrecv at quiescence) holds under faults too.
func (b *Box) ship(hop int, buf []byte) {
	if b.rel != nil {
		// rel.send copies the framed records into a fresh frame it retains
		// for retransmission; the aggregation buffer is exclusively ours
		// again the moment send returns, so it goes straight back to the
		// pool (safe even under fault injection — this buffer never entered
		// the transport).
		b.rel.send(hop, buf)
		b.recycle(buf)
	} else {
		b.r.Send(hop, rt.KindMailbox, 0, buf)
	}
	b.stats.EnvelopesSent++
	b.met.envelopesSent.Inc(b.met.rank)
	b.met.envelopeBytes.Observe(uint64(len(buf)))
	if b.inFlush {
		b.stats.Flushes++
		b.met.flushes.Inc(b.met.rank)
	}
}

// deliver appends a record addressed to this rank to the delivered queue.
// The bytes are always copied — delivered payloads must never alias the
// incoming envelope's backing array nor a loopback caller's reusable buffer
// — but instead of one heap allocation per record, the copy lands in the
// current poll epoch's grow-only arena and the Record gets a
// capacity-clamped sub-slice (appending to it reallocates rather than
// running into the next record's bytes). Arena storage is reclaimed at the
// next-plus-one Poll; see Record for the ownership contract.
func (b *Box) deliver(tag uint32, record []byte) {
	off := len(b.arena)
	b.arena = append(b.arena, record...)
	end := len(b.arena)
	b.delivered = append(b.delivered, Record{Tag: tag, Payload: b.arena[off:end:end]})
	b.stats.RecordsDelivered++
	b.met.delivered.Inc(b.met.rank)
	if b.flows != nil {
		b.flows.CountReceived(tag, 1)
	}
}

// getBuf returns an empty aggregation buffer, recycled from the pool when
// one is available. A pool miss allocates the buffer at full flush-threshold
// capacity (plus slack for the record that crosses the threshold) in one
// shot, instead of paying append's doubling chain on every fill.
func (b *Box) getBuf() []byte {
	b.stats.PoolGets++
	b.met.poolGets.Inc(b.met.rank)
	buf := b.pool.get()
	if buf == nil {
		return make([]byte, 0, b.flushBytes+b.flushBytes/4)
	}
	b.stats.PoolHits++
	b.met.poolHits.Inc(b.met.rank)
	b.met.poolFree.Add(-1)
	return buf
}

// recycle offers a consumed buffer to the pool. The caller is responsible
// for the safety rule in pool.go: the buffer must provably hold its only
// live reference.
func (b *Box) recycle(buf []byte) {
	if b.pool.put(buf) {
		b.stats.PoolBytesRecycled += uint64(cap(buf))
		b.met.poolRecycled.Add(b.met.rank, uint64(cap(buf)))
		b.met.poolFree.Add(1)
	}
}

// decodeError counts one malformed envelope datum (Stats.DecodeErrors and
// the mailbox.decode_errors obs metric).
func (b *Box) decodeError() {
	b.stats.DecodeErrors++
	b.met.decodeErrors.Inc(b.met.rank)
}

// Reliable-protocol accounting (invoked from reliable.go).

func (b *Box) retransmitted() {
	b.stats.Retransmits++
	b.met.retransmits.Inc(b.met.rank)
}

func (b *Box) dupDropped() {
	b.stats.DupDropped++
	b.met.dupDropped.Inc(b.met.rank)
}

func (b *Box) corruptDropped() {
	b.stats.CorruptDropped++
	b.met.corruptDropped.Inc(b.met.rank)
}

func (b *Box) staleDropped() {
	b.stats.StaleDropped++
	b.met.staleDropped.Inc(b.met.rank)
}

func (b *Box) ackSent() {
	b.stats.AcksSent++
	b.met.acksSent.Inc(b.met.rank)
}

// decodeEnvelope walks one envelope's framed records, delivering records
// addressed to this rank and re-forwarding the rest. Malformed framing never
// panics: a record whose header length exceeds the remaining bytes (or a
// truncated trailing header) discards the rest of the envelope, and a record
// whose dest is outside [0, p) is skipped — both counted as decode errors.
func (b *Box) decodeEnvelope(p []byte) {
	for len(p) > 0 {
		if len(p) < recordHeader {
			b.decodeError() // truncated header tail
			return
		}
		dest := int(binary.LittleEndian.Uint32(p[0:]))
		tag := binary.LittleEndian.Uint32(p[4:])
		n := int(binary.LittleEndian.Uint32(p[8:]))
		if n > len(p)-recordHeader {
			b.decodeError() // oversized length: would run past the envelope
			return
		}
		rec := p[recordHeader : recordHeader+n]
		p = p[recordHeader+n:]
		if dest < 0 || dest >= b.r.Size() {
			b.decodeError() // misrouted dest: NextHop preconditions violated
			continue
		}
		if dest == b.r.Rank() {
			b.deliver(tag, rec)
		} else {
			b.stats.RecordsForwarded++
			b.met.forwarded.Inc(b.met.rank)
			b.enqueue(dest, tag, rec)
		}
	}
}

// Poll drains incoming envelopes, re-forwards records routed through this
// rank, and returns the records whose final destination is this rank —
// including loopback records Sent since the previous Poll. The returned
// slice and every Record.Payload in it stay valid until the NEXT Poll on
// this Box, when their arena epoch is reclaimed; callers that park records
// longer must copy payloads out (see Record).
func (b *Box) Poll() []Record {
	if b.rel != nil {
		// Reliable path: the protocol layer validates, dedups, orders, acks,
		// and drives retransmission; only accepted envelopes reach decode.
		// Frames are never recycled here — the sender retains and
		// retransmits the very buffer it shipped (see pool.go).
		for _, payload := range b.rel.poll() {
			b.stats.EnvelopesRecv++
			b.met.envelopesRecv.Inc(b.met.rank)
			b.decodeEnvelope(payload)
		}
	} else {
		// Raw path: a drained envelope on the perfect transport is the
		// receiver's exclusive copy (the sender shipped and forgot it), so
		// after decode its buffer feeds this rank's aggregation pool.
		// ExclusiveDelivery latches false once a fault-injecting transport
		// has existed (Duplicate fates alias payloads) and recycling stops.
		exclusive := b.r.ExclusiveDelivery()
		b.msgScratch = b.r.RecvInto(rt.KindMailbox, b.msgScratch[:0])
		for i := range b.msgScratch {
			m := &b.msgScratch[i]
			b.stats.EnvelopesRecv++
			b.met.envelopesRecv.Inc(b.met.rank)
			b.decodeEnvelope(m.Payload)
			if exclusive {
				b.recycle(m.Payload)
			}
			m.Payload = nil // drop the reference either way
		}
	}
	if len(b.arena) > 0 {
		b.met.arenaBytes.Observe(uint64(len(b.arena)))
	}
	// Roll the delivery epoch: hand the current batch to the caller, reclaim
	// the previous batch's storage for the next one. Two epochs alternate so
	// the caller's records survive exactly one Poll boundary.
	out := b.delivered
	prev := b.deliveredPrev
	for i := range prev {
		prev[i] = Record{}
	}
	b.delivered = prev[:0]
	b.deliveredPrev = out
	b.arena, b.arenaPrev = b.arenaPrev[:0], b.arena
	return out
}

// PendingRecords counts records currently parked in this rank's aggregation
// buffers — the per-rank term of the machine-wide conservation law
// Σsent == Σdelivered + Σpending that internal/check asserts between flush
// rounds (buffers are self-framed and well-formed by construction).
func (b *Box) PendingRecords() int {
	total := 0
	for _, buf := range b.buffers {
		for len(buf) >= recordHeader {
			n := int(binary.LittleEndian.Uint32(buf[8:]))
			buf = buf[recordHeader+n:]
			total++
		}
	}
	return total
}

// PendingByTag counts records parked in this rank's aggregation buffers per
// record tag — the per-query pending term of the per-query conservation law
// the engine's invariant checks assert mid-flight.
func (b *Box) PendingByTag() map[uint32]int {
	out := make(map[uint32]int)
	for _, buf := range b.buffers {
		for len(buf) >= recordHeader {
			tag := binary.LittleEndian.Uint32(buf[4:])
			n := int(binary.LittleEndian.Uint32(buf[8:]))
			buf = buf[recordHeader+n:]
			out[tag]++
		}
	}
	return out
}

// FlushAll ships every non-empty aggregation buffer. Called when the rank
// runs out of local work so partially filled buffers cannot stall the
// traversal or termination detection.
func (b *Box) FlushAll() {
	b.inFlush = true
	for hop, buf := range b.buffers {
		if len(buf) > 0 {
			b.ship(hop, buf)
			b.buffers[hop] = nil
		}
	}
	b.inFlush = false
}

// Idle reports whether this rank's mailbox holds no buffered outbound
// records — and, on a reliable box, no unacknowledged frames: a rank stays
// non-idle (and keeps retransmitting via Poll) until its deliveries are
// confirmed, so quiescence implies the message plane is truly drained.
func (b *Box) Idle() bool {
	for _, buf := range b.buffers {
		if len(buf) > 0 {
			return false
		}
	}
	return b.rel == nil || b.rel.idle()
}

// Stats returns a snapshot of this rank's mailbox counters.
func (b *Box) Stats() Stats { return b.stats }
