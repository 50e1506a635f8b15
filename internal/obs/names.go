package obs

// Canonical metric names. Every subsystem of the simulated machine reports
// under these names so the harness can build communication profiles without
// knowing subsystem internals. Per-rank metrics are PerRank vectors (the
// snapshot carries the per-rank breakdown and the total under the same
// name); the rest are plain counters or histograms.
const (
	// Transport (internal/rt), per source rank.
	RTMsgs  = "rt.msgs"  // transport messages sent
	RTBytes = "rt.bytes" // transport payload bytes sent

	// Transport, per message kind ("mailbox", "control", "coll"):
	// "rt.msgs.<kind>" and "rt.bytes.<kind>" via RTKindMsgs/RTKindBytes.

	// RTMsgLatencyNS is the histogram of simulated transport latency —
	// nanoseconds between a message's send and the destination rank
	// draining it.
	RTMsgLatencyNS = "rt.msg_latency_ns"

	// Collective scratch-pool accounting: 8-byte reduction payloads served
	// from recycled buffers (hits) vs freshly allocated (misses). Recycling
	// is disabled once a fault-injecting transport has been installed, so
	// chaos runs report only misses.
	RTCollScratchHits   = "rt.coll_scratch_hits"
	RTCollScratchMisses = "rt.coll_scratch_misses"

	// Routed mailbox (internal/mailbox), per rank.
	MBRecordsSent      = "mailbox.records_sent"      // records entered via Send
	MBRecordsDelivered = "mailbox.records_delivered" // records delivered at final dest
	MBRecordsForwarded = "mailbox.records_forwarded" // records re-routed through a rank
	MBEnvelopesSent    = "mailbox.envelopes_sent"    // aggregated transport messages shipped
	MBEnvelopesRecv    = "mailbox.envelopes_recv"
	MBFlushes          = "mailbox.flushes" // idle-driven FlushAll envelope shipments
	// MBDecodeErrors counts malformed envelope contents rejected by Box.Poll
	// (truncated headers, oversized record lengths, out-of-range dests). Any
	// nonzero value on a healthy traversal indicates envelope corruption.
	MBDecodeErrors = "mailbox.decode_errors"
	// MBHops counts transport hops taken by routed records: every enqueue
	// toward a next hop is one hop (loopback delivery is zero hops), so
	// hops = non-loopback records sent + records forwarded. The per-record
	// mean hop count is MBHops / MBRecordsSent; it approaches the
	// topology's diameter as routing indirection grows (1 for 1D, up to 2
	// for 2D, 3 for 3D).
	MBHops = "mailbox.hops"

	// MBEnvelopeBytes is the histogram of envelope size at ship time
	// (framed envelope bytes — record payloads plus one header per run):
	// how full envelopes are when they go out, the direct measure of
	// aggregation quality per topology.
	MBEnvelopeBytes = "mailbox.envelope_bytes"

	// Envelope-buffer pool accounting (DESIGN.md §9). A "get" is one request
	// for an empty aggregation buffer; a "hit" is a get served from the
	// per-box free-list (fed by consumed inbound envelopes on the raw path
	// and by post-frame-copy aggregation buffers on the reliable path).
	// RecycledBytes counts buffer capacity returned to the pool; PoolFree is
	// the machine-wide gauge of buffers currently parked in the pools of live
	// boxes (a box's share leaves with it at Box.Close). The pool
	// hit rate, hits/gets, is the direct measure of how close the message
	// plane runs to zero steady-state allocation.
	MBPoolGets          = "mailbox.pool_gets"
	MBPoolHits          = "mailbox.pool_hits"
	MBPoolRecycledBytes = "mailbox.pool_recycled_bytes"
	MBPoolFree          = "mailbox.pool_free"

	// MBArenaPollBytes is the histogram of delivery-arena occupancy at each
	// Poll handoff: the bytes of record payloads delivered in one poll epoch,
	// all carved from one arena instead of per-record allocations. An epoch
	// is bounded (4096 records plus one envelope's), and so is this.
	MBArenaPollBytes = "mailbox.arena_poll_bytes"

	// Reliable-delivery counters (mailbox.WithReliable): the recovery half
	// of the fault plane. Retransmits counts envelope re-sends after an RTO
	// expiry; the *Dropped counters classify inbound envelopes discarded by
	// the reliability layer (already-delivered duplicates, checksum
	// failures, and stale epochs from a previous traversal's channels).
	MBRetransmits    = "mailbox.retransmits"
	MBDupDropped     = "mailbox.dup_dropped"
	MBCorruptDropped = "mailbox.corrupt_dropped"
	MBStaleDropped   = "mailbox.stale_dropped"
	MBAcksSent       = "mailbox.acks_sent"

	// Networked byte transport (internal/net): the TCP fabric that carries
	// rt messages between cluster processes. Frames are the unit on the wire
	// (one rt message per frame, plus ping/pong probes); bytes count framed
	// payload + header. Reconnects counts dial attempts made after an
	// established connection broke or a previous attempt failed — zero on a
	// healthy localhost cluster.
	NetFramesOut  = "net.frames_out"
	NetFramesIn   = "net.frames_in"
	NetBytesOut   = "net.bytes_out"
	NetBytesIn    = "net.bytes_in"
	NetReconnects = "net.reconnects"

	// Termination detection (internal/termination).
	TermWaves   = "term.waves"   // completed quiescence-detection waves
	TermRetests = "term.retests" // waves that completed without detecting quiescence

	// Visitor queue (internal/core), per rank.
	CorePushed        = "core.pushed"
	CoreGhostFiltered = "core.ghost_filtered"
	CoreLocal         = "core.local"    // pushes applied in place on the master rank, never sent
	CoreReceived      = "core.received" // mailbox deliveries
	CoreQueued        = "core.queued"
	CoreExecuted      = "core.executed"
	CoreForwarded     = "core.forwarded"

	// CoreQueueDepth is the histogram of local priority-queue depth sampled
	// once per visit batch.
	CoreQueueDepth = "core.queue_depth"

	// Multi-query execution engine (internal/engine).
	EngineSubmitted = "engine.submitted" // queries accepted by Submit
	EngineCompleted = "engine.completed" // queries run to quiescence
	EngineCancelled = "engine.cancelled" // queries cancelled (incl. deadline expiry)
	EngineRejected  = "engine.rejected"  // queries refused by admission control

	// EngineInFlight / EngineWaiting are gauges of the admission controller's
	// current occupancy: traversals executing vs. parked in the wait queue.
	EngineInFlight = "engine.in_flight"
	EngineWaiting  = "engine.waiting"

	// EngineQueryNS is the histogram of end-to-end query latency
	// (submit→completion), nanoseconds.
	EngineQueryNS = "engine.query_ns"

	// EngineDeadlineExpired counts queries cancelled by their own deadline
	// (a subset of EngineCancelled); EngineResumed counts queries admitted
	// with a checkpoint from a previous attempt (the recovery path).
	EngineDeadlineExpired = "engine.deadline_expired"
	EngineResumed         = "engine.resumed"

	// Out-of-core serving (internal/ooc + core parking). When a partition's
	// CSR targets live behind the page cache, a visitor popped for a vertex
	// whose adjacency page is absent, or a counted sweep's row, is parked
	// (CoreParked) instead of executed, a demand fetch is issued, and the
	// visitor or row runs when the page arrives (CoreUnparked). Parked −
	// Unparked is the gauge of work currently pending on device I/O.
	CoreParked   = "core.parked"
	CoreUnparked = "core.unparked"

	// Pager fetch pipeline: demand fetches (a parked visitor or row needs
	// the page). The pager issues no read-ahead: OOCPrefetches and
	// OOCPrefetchDropped are never counted, and stay only because bench/
	// reads them.
	OOCDemandFetches   = "ooc.demand_fetches"
	OOCPrefetches      = "ooc.prefetches"
	OOCPrefetchDropped = "ooc.prefetch_dropped"

	// Device-retry plane (pagecache.RetryDevice) aggregated across ranks:
	// re-issued read attempts and reads that consumed their whole attempt
	// budget (each of which surfaced a pagecache.ErrExhausted upward).
	PCRetries   = "pagecache.retries"
	PCExhausted = "pagecache.exhausted"

	// Front-door traffic plane (internal/traffic): the admission layer in
	// front of the engine. Admitted counts requests that passed their
	// tenant's token bucket; QuotaShed counts requests refused by it (the
	// 429 + Retry-After path). CollapseLeaders counts engine executions led
	// on behalf of a collapse group; CollapseHits counts requests that
	// joined an identical in-flight execution instead of starting their
	// own. CacheHits/CacheMisses/CacheEvictions account the bounded result
	// cache, with CacheBytes/CacheEntries gauges of its current occupancy;
	// Tenants gauges the distinct token buckets installed.
	TrafficAdmitted        = "traffic.admitted"
	TrafficQuotaShed       = "traffic.quota_shed"
	TrafficCollapseLeaders = "traffic.collapse_leaders"
	TrafficCollapseHits    = "traffic.collapse_hits"
	TrafficCacheHits       = "traffic.cache_hits"
	TrafficCacheMisses     = "traffic.cache_misses"
	TrafficCacheEvictions  = "traffic.cache_evictions"
	TrafficCacheBytes      = "traffic.cache_bytes"
	TrafficCacheEntries    = "traffic.cache_entries"
	TrafficTenants         = "traffic.tenants"

	// TrafficRequestNS is the histogram of end-to-end served-request latency
	// at the HTTP front door (admission through response serialization),
	// nanoseconds.
	TrafficRequestNS = "traffic.request_ns"
)

// FaultInjected returns the injected-fault counter name for a fault kind
// ("drop", "duplicate", "delay", "reorder", "corrupt", "stall",
// "device_read_error", "device_torn_read", "device_torn_write"). Every fault
// the internal/faults injector actually fires is counted under one of these,
// so experiments can report fault rates alongside communication profiles.
func FaultInjected(kind string) string { return "faults.injected." + kind }

// NetPeerRTTNS returns the per-peer round-trip-time histogram name for the
// networked transport's ping/pong probes (nanoseconds, one histogram per
// remote cluster process).
func NetPeerRTTNS(peer int) string { return "net.rtt_ns.p" + itoa(peer) }

// itoa is a dependency-free positive-int formatter (names.go stays
// import-free).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// RTKindMsgs returns the per-kind transport message counter name.
func RTKindMsgs(kind string) string { return "rt.msgs." + kind }

// RTKindBytes returns the per-kind transport byte counter name.
func RTKindBytes(kind string) string { return "rt.bytes." + kind }
