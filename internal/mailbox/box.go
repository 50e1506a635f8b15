package mailbox

import (
	"encoding/binary"
	"sync"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
)

// DefaultFlushBytes is the per-hop aggregation threshold, measured in framed
// envelope bytes — record payloads PLUS the 16-byte runHeader of every run
// staged for the destinations routed through the hop — i.e. exactly the
// transport message size the hop's next shipment produces. The hop ships once
// its framed bytes reach the threshold (a single record or forwarded run may
// overshoot it; the whole run still ships in one envelope). Idle ranks flush
// everything (FlushAll) so aggregation never stalls termination.
//
// The threshold deliberately counts framing, not raw payload: the quantity
// being bounded is the wire/transport unit. WithFlushBytes documents the
// same semantic, and TestFlushThresholdCountsFramedBytes pins the boundary.
const DefaultFlushBytes = 4096

// runHeader frames one run of equal-width records inside an aggregated
// envelope: [finalDest u32][tag u32][width u32][count u32], then count×width
// payload bytes — record i is bytes [i·width, (i+1)·width) of the run. An
// envelope is a sequence of runs. The tag is a caller-defined record
// namespace — the multi-query engine stores a compact query ID there so one
// shared mailbox can interleave many concurrent traversals and demultiplex
// delivered records back to their queries; single-traversal callers use tag
// 0. The width rides in the header, so a record of any length is a run of
// one, and a stream of same-tag, same-width records to one destination (a
// traversal's visitors) pays the header once per run instead of once per
// record. A zero-width record is always a run of one, so no run holds more
// records than it has payload bytes, or one.
const runHeader = 16

// Stats counts mailbox activity on one rank for one Box lifetime. It is the
// one ledger the hot path writes: plain rank-confined fields, no atomics. The
// Box publishes none of it: the engine's rank loop, which owns the rank's
// box, gives the machine's obs.Registry the growth under the mailbox.* names
// from one table (internal/engine, ledger.go). A Box driven outside the
// engine keeps its Stats and leaves those registry cells alone.
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

// Add accumulates o's counters into s.
func (s *Stats) Add(o Stats) {
	s.RecordsSent += o.RecordsSent
	s.RecordsDelivered += o.RecordsDelivered
	s.RecordsForwarded += o.RecordsForwarded
	s.EnvelopesSent += o.EnvelopesSent
	s.EnvelopesRecv += o.EnvelopesRecv
	s.Hops += o.Hops
	s.Flushes += o.Flushes
	s.DecodeErrors += o.DecodeErrors
	s.ChannelsUsed += o.ChannelsUsed
	s.Retransmits += o.Retransmits
	s.DupDropped += o.DupDropped
	s.CorruptDropped += o.CorruptDropped
	s.StaleDropped += o.StaleDropped
	s.AcksSent += o.AcksSent
	s.PoolGets += o.PoolGets
	s.PoolHits += o.PoolHits
	s.PoolBytesRecycled += o.PoolBytesRecycled
}

// FlowCounter receives end-to-end record counts partitioned by record tag.
// The multi-query engine registers one to feed each in-flight query's
// termination detector independently; the single-traversal path wraps its
// lone detector in an adapter that ignores the tag. Implementations are
// invoked only from the owning rank's goroutine (Send/Poll are not
// concurrency-safe), so they need no internal locking.
//
// These counts are not statistics, published late in batches like Stats, but
// the detector's S and R: a sender whose S lags while its records are in
// flight lets ΣS == ΣR hold across two waves with work outstanding — a false
// termination. The two sides are not batched alike. SendTagged calls
// CountSent once per record, before the record can leave the rank. A
// delivered run calls CountReceived once with its count, where its records
// are delivered: R reaches the value the per-record calls would, at the same
// point of the same Poll, and only the owning rank reads it, between Polls.
type FlowCounter interface {
	// CountSent records n records entering the mailbox under tag (at the
	// originating rank).
	CountSent(tag uint32, n uint64)
	// CountReceived records n records delivered at their final destination
	// under tag.
	CountReceived(tag uint32, n uint64)
}

// Detector is the record-count face of the one termination detector
// (termination.Detector) of a Box that serves one exchange alone.
type Detector interface {
	CountSent(n uint64)
	CountReceived(n uint64)
}

// detFlow adapts a single detector to the FlowCounter seam (every record
// feeds the one detector, whatever its tag).
type detFlow struct{ det Detector }

func (f detFlow) CountSent(_ uint32, n uint64)     { f.det.CountSent(n) }
func (f detFlow) CountReceived(_ uint32, n uint64) { f.det.CountReceived(n) }

// Box is one rank's routed mailbox: the paper's `mailbox` abstraction with
// send(rank, data) and receive() (§V), implemented over the aggregation and
// routing network of §III-B.
type Box struct {
	r     *rt.Rank
	flows FlowCounter // nil = no flow accounting

	flushBytes int
	// route[dest] is the next hop toward dest, filled once in New from the
	// Topology (the single source of routing truth). stages is indexed by
	// final destination, hops by next-hop rank, and via[hops[h].lo:hops[h].hi]
	// lists the destinations routed through hop h. All are sized r.Size(), so
	// staging a record is slice loads: no interface call, no map.
	route   []int32
	stages  []stage
	hops    []hop
	via     []int32
	stats   Stats
	inFlush bool // inside FlushAll (attributes shipments to Stats.Flushes)

	// What the box observes itself, in the registry: distributions and a
	// gauge, not ledger counters.
	envelopeBytes, arenaBytes *obs.Histogram
	poolFree                  *obs.Gauge

	// pool is the per-Box free-list of aggregation/envelope buffers
	// (pool.go). It is fed by consumed inbound envelopes (raw path, exclusive
	// delivery only) and by aggregation buffers whose records the reliable
	// layer has copied into a frame; enqueue draws new outbound buffers from
	// it.
	pool envPool

	// Arena-backed delivery (pool.go): each poll epoch's delivered record
	// payloads are batch-copied into one arena and handed out as
	// capacity-clamped sub-slices. delivered/arena accumulate the current
	// epoch; deliveredPrev/arenaPrev hold the previous epoch's (possibly
	// still referenced by the caller) storage and are reset and reused when
	// Poll rolls the epoch over. An epoch is bounded (pollEpochRecords), so
	// none of the four grows with the depth of the transport inbox.
	delivered     []Record
	deliveredPrev []Record
	arena         []byte
	arenaPrev     []byte

	// inbox holds the envelopes (framed runs) taken off the transport
	// — accepted by the reliable layer, on a reliable box — and inbox[next:]
	// is the backlog Poll has not decoded yet. msgScratch is the reusable
	// rt.Msg drain buffer handed to rt.Rank.RecvInto.
	inbox      [][]byte
	next       int
	msgScratch []rt.Msg

	// rel, when non-nil, runs the seq/ack/retransmit protocol of reliable.go
	// under every envelope; wantRel and the RTO bounds stage the WithReliable
	// option until New can mint the box epoch.
	rel             *reliable
	wantRel         bool
	rtoBase, rtoMax time.Duration

	closed bool // Close has handed the storage on
}

// storage is what outlives a Box: the allocations it would otherwise regrow
// from empty — the two delivery arenas, the two Record batches, the envelope
// free-list, the inbox and the drain scratch. Close hands it to spare and New
// takes it back, so a one-shot query's transient engine starts from the last
// one's capacity. Nothing else carries over: stats, flows, routes, staged
// runs, reliable-layer state and the epoch are per box.
type storage struct {
	delivered, deliveredPrev []Record
	arena, arenaPrev         []byte
	free                     [][]byte
	inbox                    [][]byte
	msgScratch               []rt.Msg
}

// spare holds the storage of closed boxes, process-wide. Every buffer on a
// handed-on free-list has a single live reference (pool.go's safety rule), so
// moving it to another box, on any machine, keeps the rule.
var spare sync.Pool

// stage is the outbound runs of one final destination: records sent to it
// here and runs routed through this rank toward it, in arrival order, so
// per-(origin, dest) FIFO holds. The last run is open while records of its
// tag and width keep coming.
type stage struct {
	buf        []byte // framed runs; nil before its first record and after it carried an envelope
	at         int    // offset of the open run's count field in buf
	tag, width uint32 // the open run's
	count      uint32 // the open run's records; 0 = no open run
}

// hop is the aggregation state of one next-hop rank. Its envelope is the
// staged runs of every destination routed through it, shipped together.
type hop struct {
	lo, hi int32 // via[lo:hi] are the destinations routed through it
	framed int   // their staged bytes, headers included
	used   bool  // ever carried a record (Stats.ChannelsUsed counts these)
}

// Record is one delivered visitor record. The payload is a copy carved from
// the Box's delivery arena: it never aliases transport buffers, and it is
// capacity-clamped so appending to it reallocates instead of running into a
// sibling record's bytes. Payloads are valid until the next Poll or Close on
// the same Box — at the one their arena is reset and reused for a new epoch,
// at the other it passes to the next box built — so a caller that parks a
// Record across polls must copy the payload out
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

// WithFlushBytes sets the per-hop aggregation threshold, measured in framed
// envelope bytes — the record payloads plus the 16-byte header of every run
// staged for the destinations routed through the hop — exactly the size of
// the transport message the hop's shipment produces (see DefaultFlushBytes).
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
func New(r *rt.Rank, topo Topology, det Detector, opts ...Option) *Box {
	p := r.Size()
	b := &Box{
		r:          r,
		flushBytes: DefaultFlushBytes,
		route:      make([]int32, p),
		stages:     make([]stage, p),
		hops:       make([]hop, p),
		via:        make([]int32, 0, p),

		envelopeBytes: r.Obs().Histogram(obs.MBEnvelopeBytes),
		arenaBytes:    r.Obs().Histogram(obs.MBArenaPollBytes),
		poolFree:      r.Obs().Gauge(obs.MBPoolFree),
	}
	if st, _ := spare.Get().(*storage); st != nil {
		b.delivered, b.deliveredPrev = st.delivered, st.deliveredPrev
		b.arena, b.arenaPrev = st.arena, st.arenaPrev
		b.pool.free = st.free
		b.inbox, b.msgScratch = st.inbox, st.msgScratch
		b.poolFree.Add(int64(b.pool.size()))
	}
	for dest := range b.route {
		if dest != r.Rank() { // own rank is loopback, never routed
			b.route[dest] = int32(topo.NextHop(r.Rank(), dest))
		}
	}
	for h := range b.hops {
		b.hops[h].lo = int32(len(b.via))
		for dest, next := range b.route {
			if int(next) == h && dest != r.Rank() {
				b.via = append(b.via, int32(dest))
			}
		}
		b.hops[h].hi = int32(len(b.via))
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
// travels in the run header and comes back out on the delivered Record,
// letting one mailbox multiplex records of many concurrent traversals.
func (b *Box) SendTagged(dest int, tag uint32, record []byte) {
	b.stats.RecordsSent++
	if b.flows != nil {
		b.flows.CountSent(tag, 1)
	}
	if dest == b.r.Rank() {
		// Loopback delivery, as MPI self-sends do.
		b.deliver(tag, uint32(len(record)), 1, record)
		return
	}
	b.stage(dest, tag, uint32(len(record)), 1, record)
}

// stage appends count records of the given width — body, count×width bytes —
// to dest's staged runs, continuing the open run when tag and width match,
// and ships the next hop toward dest once its framed bytes cross the flush
// threshold. A zero-width record never continues a run, and a run whose
// count would wrap is closed and a new one begun.
func (b *Box) stage(dest int, tag, width, count uint32, body []byte) {
	// A dest outside [0, p) panics here, at the send site, with the rank in
	// the index-out-of-range message.
	next := int(b.route[dest])
	h, st := &b.hops[next], &b.stages[dest]
	b.stats.Hops += uint64(count)
	grown := len(body)
	if st.count != 0 && st.tag == tag && st.width == width && width != 0 && st.count+count > st.count {
		st.count += count
		binary.LittleEndian.PutUint32(st.buf[st.at:], st.count)
		st.buf = append(st.buf, body...)
	} else {
		buf := st.buf
		if buf == nil {
			// A fresh outbound buffer: draw recycled capacity from the pool so
			// steady-state aggregation reallocates nothing.
			buf = b.getBuf()
		}
		// The header goes straight into the buffer. Built in a stack array
		// and appended, it is narrow stores re-read by one wide load, which
		// the store buffer cannot forward: a stall per run.
		buf = binary.LittleEndian.AppendUint32(buf, uint32(dest))
		buf = binary.LittleEndian.AppendUint32(buf, tag)
		buf = binary.LittleEndian.AppendUint32(buf, width)
		st.at = len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, count)
		st.buf = append(buf, body...)
		st.tag, st.width, st.count = tag, width, count
		grown += runHeader
	}
	// Count distinct next hops, not staging buffers: several destinations
	// may share one hop, so keying the count off buffer creation would
	// inflate ChannelsUsed past Topology.MaxChannels.
	if !h.used {
		h.used = true
		b.stats.ChannelsUsed++
	}
	if h.framed += grown; h.framed >= b.flushBytes {
		b.shipHop(next)
	}
}

// shipHop ships hop h's envelope: the staged runs of the destinations routed
// through it, appended to the first staged destination's buffer, which ships
// and is replaced from the pool at that stage's next record. The other
// stages keep their capacity.
func (b *Box) shipHop(h int) {
	hp := &b.hops[h]
	var env []byte
	for _, d := range b.via[hp.lo:hp.hi] {
		st := &b.stages[d]
		switch {
		case len(st.buf) == 0:
			continue
		case env == nil:
			env, st.buf = st.buf, nil
		default:
			env = append(env, st.buf...)
			st.buf = st.buf[:0]
		}
		st.count = 0
	}
	hp.framed = 0
	b.ship(h, env)
}

// ship sends one aggregated envelope to the next hop. Stats count logical
// envelopes: a reliable box's retransmissions of the same envelope are
// accounted under Stats.Retransmits, not here, so envelope conservation
// (Σsent == Σrecv at quiescence) holds under faults too.
func (b *Box) ship(to int, buf []byte) {
	if b.rel != nil {
		// rel.send copies the framed runs into a fresh frame it retains for
		// retransmission; the aggregation buffer is exclusively ours again
		// the moment send returns, so it goes straight back to the pool (safe
		// even under fault injection — this buffer never entered the
		// transport).
		b.rel.send(to, buf)
		b.recycle(buf)
	} else {
		b.r.Send(to, rt.KindMailbox, 0, buf)
	}
	b.stats.EnvelopesSent++
	b.envelopeBytes.Observe(uint64(len(buf)))
	if b.inFlush {
		b.stats.Flushes++
	}
}

// deliver appends a run of count records of the given width addressed to
// this rank — body, count×width bytes — to the delivered queue, and counts
// them received under tag at once. The bytes are always copied — delivered
// payloads must never alias the incoming envelope's backing array nor a
// loopback caller's reusable buffer — but instead of one heap allocation per
// record, the run lands in the current poll epoch's grow-only arena in one
// copy and each Record gets a capacity-clamped sub-slice (appending to it
// reallocates rather than running into the next record's bytes). Arena
// storage is reclaimed at the next-plus-one Poll or at Close; see Record for
// the ownership contract.
func (b *Box) deliver(tag, width, count uint32, body []byte) {
	off := len(b.arena)
	b.arena = append(b.arena, body...)
	arena, w := b.arena, int(width)
	for range count {
		end := off + w
		b.delivered = append(b.delivered, Record{Tag: tag, Payload: arena[off:end:end]})
		off = end
	}
	b.stats.RecordsDelivered += uint64(count)
	if b.flows != nil {
		b.flows.CountReceived(tag, uint64(count))
	}
}

// maxPresize caps a pool miss's presize, so a huge WithFlushBytes is not
// allocated whole before the first record is written.
const maxPresize = 64 << 10

// getBuf returns an empty aggregation buffer, recycled from the pool when
// one is available. A pool miss allocates the buffer at full flush-threshold
// capacity (plus slack for the record that crosses the threshold, up to
// maxPresize) in one shot, instead of paying append's doubling chain.
func (b *Box) getBuf() []byte {
	b.stats.PoolGets++
	buf := b.pool.get()
	if buf == nil {
		return make([]byte, 0, min(b.flushBytes+b.flushBytes/4, maxPresize))
	}
	b.stats.PoolHits++
	b.poolFree.Add(-1)
	return buf
}

// recycle offers a consumed buffer to the pool. The caller is responsible
// for the safety rule in pool.go: the buffer must provably hold its only
// live reference.
func (b *Box) recycle(buf []byte) {
	if b.pool.put(buf) {
		b.stats.PoolBytesRecycled += uint64(cap(buf))
		b.poolFree.Add(1)
	}
}

// Close retires the Box: its storage goes to the next box New builds (see
// storage). Its pooled buffers leave this machine's mailbox.pool_free gauge
// here and join the adopting box's machine there, so the gauge reads 0 once
// every box is closed. Every Record is zeroed and every inbox slot nil'd
// first; an undecoded backlog (a forced abort's) and unshipped staged runs
// are dropped, and the staging buffers, ours alone, join the free-list handed
// on — uncounted, as the box's traffic did not return them, so Stats are
// final before Close. Records from the last Poll expire here, as at the next
// Poll. The owner calls it once the Box will send and poll no more; a second
// call does nothing, since two boxes sharing one arena would alias payloads.
func (b *Box) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.poolFree.Add(-int64(b.pool.size()))
	for i := range b.stages {
		if st := &b.stages[i]; st.buf != nil {
			b.pool.put(st.buf)
			*st = stage{}
		}
	}
	// Nothing past a slice's length holds a reference — Poll zeroes a Record
	// batch before refilling it and nils each inbox slot and drained message
	// as it takes them — so clearing to the lengths zeroes all of it without
	// sweeping idle capacity (up to two epochs of Records: swept whole, about
	// 1.4% of a one-shot BFS's CPU).
	clear(b.delivered)
	clear(b.deliveredPrev)
	clear(b.inbox)
	clear(b.msgScratch)
	spare.Put(&storage{
		delivered: b.delivered[:0], deliveredPrev: b.deliveredPrev[:0],
		arena: b.arena[:0], arenaPrev: b.arenaPrev[:0],
		free:  b.pool.free,
		inbox: b.inbox[:0], msgScratch: b.msgScratch[:0],
	})
	b.pool = envPool{}
	b.delivered, b.deliveredPrev, b.arena, b.arenaPrev = nil, nil, nil, nil
	b.inbox, b.next, b.msgScratch = nil, 0, nil
}

// runHdr is one run header read off an envelope.
type runHdr struct{ dest, tag, width, count uint32 }

// cutRun splits the run at the front of p into its header, its body and the
// rest of p; ok is false when the header or the body would run past p. The
// body's length is taken in 64 bits, so no count×width product wraps.
func cutRun(p []byte) (h runHdr, body, rest []byte, ok bool) {
	if len(p) < runHeader {
		return h, nil, nil, false
	}
	h = runHdr{
		dest:  binary.LittleEndian.Uint32(p[0:]),
		tag:   binary.LittleEndian.Uint32(p[4:]),
		width: binary.LittleEndian.Uint32(p[8:]),
		count: binary.LittleEndian.Uint32(p[12:]),
	}
	n := uint64(h.count) * uint64(h.width)
	if n > uint64(len(p)-runHeader) {
		return h, nil, nil, false
	}
	return h, p[runHeader : runHeader+int(n)], p[runHeader+int(n):], true
}

// wellFormed reports whether a run's count is one its sender could have
// framed: at least one record, and exactly one when the width is zero.
func (h runHdr) wellFormed() bool { return h.count != 0 && (h.width != 0 || h.count == 1) }

// decodeEnvelope walks one envelope's runs, delivering runs addressed to
// this rank and re-staging the rest toward their next hop. Malformed framing
// never panics: a run whose header or body would run past the envelope
// discards the rest of the envelope, and a run whose dest is outside [0, p)
// or whose count no sender frames (zero, or more than one zero-width record)
// is skipped — each counted as one decode error.
func (b *Box) decodeEnvelope(p []byte) {
	size, self := uint32(b.r.Size()), uint32(b.r.Rank())
	for len(p) > 0 {
		h, body, rest, ok := cutRun(p)
		if !ok {
			b.stats.DecodeErrors++ // truncated header, or a body past the envelope
			return
		}
		p = rest
		switch {
		case h.dest >= size || !h.wellFormed():
			b.stats.DecodeErrors++ // misrouted dest or forged count
		case h.dest == self:
			b.deliver(h.tag, h.width, h.count, body)
		default:
			b.stats.RecordsForwarded += uint64(h.count)
			b.stage(int(h.dest), h.tag, h.width, h.count, body)
		}
	}
}

// pollEpochRecords bounds one delivery epoch: Poll stops decoding envelopes
// once the epoch holds this many records and keeps the rest as a backlog. At
// 4096 visitor records the arena plus the []Record that describes it is about
// 230 KB, inside a core's L2, so a record is still cached when the caller
// applies it. Measured on one-shot scale-15 BFS (8 ranks on 2 cores, where a
// rank wakes to everything the other seven sent): flat from 512 to 4096
// records per epoch (58.6 and 58.9 ms per query), 20% slower at 16384 with
// 2.2x the bytes allocated, and at 65536 — in effect unbounded — 46% slower
// with 3.2x the bytes.
const pollEpochRecords = 4096

// Poll takes incoming envelopes off the transport, re-forwards records routed
// through this rank, and returns records whose final destination is this
// rank — including loopback records Sent since the previous Poll. One call
// returns one bounded delivery epoch: envelopes are decoded in arrival order
// until the epoch holds at least pollEpochRecords records, and the rest stay
// behind as a backlog (see Backlog), so a caller that wants everything that
// has arrived polls until Backlog is false. The returned slice and every
// Record.Payload in it stay valid until the next Poll or Close on this Box,
// when their arena epoch is reclaimed; callers that park records longer must
// copy payloads out (see Record).
func (b *Box) Poll() []Record {
	if b.next == len(b.inbox) {
		b.inbox, b.next = b.inbox[:0], 0
	}
	// EnvelopesRecv counts an envelope when it leaves the transport, not when
	// it is decoded, so envelope conservation holds at any poll-then-barrier
	// point whatever the backlog.
	taken := len(b.inbox)
	if b.rel != nil {
		// Reliable path: the protocol layer validates, dedups, orders, acks,
		// and drives retransmission for everything that arrived, every Poll;
		// only accepted envelopes join the inbox. Frames are never recycled —
		// the sender retains and retransmits the very buffer it shipped (see
		// pool.go).
		b.inbox = b.rel.poll(b.inbox)
	} else if taken == 0 {
		// Raw path: the transport inbox is left alone until the backlog from
		// the previous refill is gone.
		b.msgScratch = b.r.RecvInto(rt.KindMailbox, b.msgScratch[:0])
		for i := range b.msgScratch {
			b.inbox = append(b.inbox, b.msgScratch[i].Payload)
			b.msgScratch[i].Payload = nil
		}
	}
	b.stats.EnvelopesRecv += uint64(len(b.inbox) - taken)
	// A drained envelope on the perfect transport is the receiver's exclusive
	// copy (the sender shipped and forgot it), so right after its own decode
	// its buffer feeds this rank's aggregation pool. ExclusiveDelivery latches
	// false once a fault-injecting transport has existed (Duplicate fates
	// alias payloads) and recycling stops.
	exclusive := b.rel == nil && b.r.ExclusiveDelivery()
	for b.next < len(b.inbox) && len(b.delivered) < pollEpochRecords {
		env := b.inbox[b.next]
		b.inbox[b.next] = nil // drop the reference either way
		b.next++
		b.decodeEnvelope(env)
		if exclusive {
			b.recycle(env)
		}
	}
	if len(b.arena) > 0 {
		b.arenaBytes.Observe(uint64(len(b.arena)))
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

// Backlog reports whether envelopes taken off the transport still await
// decoding: the previous Poll filled its epoch before it reached them.
func (b *Box) Backlog() bool { return b.next < len(b.inbox) }

// PendingRecords counts the records this rank holds between transport and
// delivery — staged in its outbound runs or sitting in undecoded backlog
// envelopes — the per-rank term of the machine-wide conservation law
// Σsent == Σdelivered + Σpending that internal/check asserts between flush
// rounds. Staged runs are self-framed and well-formed by construction; a
// backlog envelope came off the transport, so its framing is checked as
// decodeEnvelope checks it, and a run it would reject is not counted.
func (b *Box) PendingRecords() int {
	size, total := uint32(b.r.Size()), 0
	walk := func(buf []byte) {
		for {
			h, _, rest, ok := cutRun(buf)
			if !ok {
				return
			}
			if h.dest < size && h.wellFormed() {
				total += int(h.count)
			}
			buf = rest
		}
	}
	for i := range b.stages {
		walk(b.stages[i].buf)
	}
	for _, env := range b.inbox[b.next:] {
		walk(env)
	}
	return total
}

// FlushAll ships every hop with staged runs. Called when the rank runs out
// of local work so partially filled envelopes cannot stall the traversal or
// termination detection.
func (b *Box) FlushAll() {
	b.inFlush = true
	for h := range b.hops {
		if b.hops[h].framed > 0 {
			b.shipHop(h)
		}
	}
	b.inFlush = false
}

// Idle reports whether this rank's mailbox holds no staged outbound runs
// and no undecoded backlog — and, on a reliable box, no
// unacknowledged frames: a rank stays non-idle (and keeps retransmitting via
// Poll) until its deliveries are confirmed, so quiescence implies the message
// plane is truly drained.
func (b *Box) Idle() bool {
	if b.Backlog() {
		return false
	}
	for i := range b.stages {
		if len(b.stages[i].buf) > 0 {
			return false
		}
	}
	return b.rel == nil || b.rel.idle()
}

// Stats returns a snapshot of this rank's mailbox counters.
func (b *Box) Stats() Stats { return b.stats }
