package core

import (
	"slices"
	"time"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// Stats counts one rank's activity for one query. Like mailbox.Stats it is the
// one ledger the hot path writes — plain fields — and the machine's
// obs.Registry gets the growth of the queue's own counters (Pushed through
// Unparked) under the core.* names once per rank-loop iteration
// (Queue.publish). Every push ends one of four ways, a replica forward sends
// once more, and a runner may send and receive records of a protocol of its
// own beside its queue (a direction-optimizing BFS's level messages):
// Pushed − GhostFiltered − Local − Combined + Forwarded + ProtocolSent ==
// Mailbox.RecordsSent, and Received + ProtocolReceived ==
// Mailbox.RecordsDelivered (check.Traversal). The one exception is a
// cancelled query: the visitors its queue held unsent are discarded, like the
// deliveries it drops.
type Stats struct {
	Pushed        uint64 // visitors pushed on this rank
	GhostFiltered uint64 // visitors suppressed by the local ghost filter
	Local         uint64 // visitors pushed to a vertex this rank masters: applied in place, never sent
	Combined      uint64 // visitors merged into one already held for the same ghost slot, never sent
	Received      uint64 // visitors the mailbox delivered to this rank
	Queued        uint64 // visitors whose PreVisit returned true
	Executed      uint64 // visitors whose Visit ran
	Forwarded     uint64 // visitors forwarded along a replica chain
	Parked        uint64 // visitors parked waiting for an adjacency page
	Unparked      uint64 // parked visitors re-queued after their page arrived
	// ProtocolSent/ProtocolReceived count the records a runner sent, or was
	// delivered, outside its visitor queue. The runner fills them in; a Queue
	// leaves them zero.
	ProtocolSent     uint64
	ProtocolReceived uint64
	// Mailbox is filled in by the executor when the query retires on the rank
	// (see engine.Ticket.Stats for which of its counters are the query's own).
	Mailbox       mailbox.Stats
	DetectorWaves uint64
	// DetectorSent/DetectorReceived are the termination detector's monotone
	// S and R counters at quiescence. The mailbox's per-tag flow counts feed
	// the detector (one CountSent per Send, one CountReceived per delivery),
	// so after a quiesced query they must agree exactly with
	// Mailbox.RecordsSent and Mailbox.RecordsDelivered on every rank — the
	// S−R in-flight gap the four-counter waves watch drain. internal/check
	// asserts this.
	DetectorSent     uint64
	DetectorReceived uint64
}

// Config tunes the message plane of an executor: the engine builds every
// rank's shared mailbox from MailboxOptions. Per-rank resources (ghost table,
// pager) are not configuration and are passed to NewQueue directly.
type Config struct {
	// FlushBytes is the mailbox aggregation threshold (0 = default).
	FlushBytes int
	// Reliable runs the mailbox's seq/ack/retransmit protocol under every
	// envelope (mailbox.WithReliable), surviving message drop, duplication,
	// reordering, and corruption injected by a faulty transport. Must be set
	// uniformly across ranks.
	Reliable bool
	// RTOBase/RTOMax bound the reliable layer's retransmission backoff
	// (0 = mailbox defaults). Only meaningful with Reliable.
	RTOBase, RTOMax time.Duration
}

// MailboxOptions returns the mailbox construction options cfg implies.
func (cfg Config) MailboxOptions() []mailbox.Option {
	var opts []mailbox.Option
	if cfg.FlushBytes > 0 {
		opts = append(opts, mailbox.WithFlushBytes(cfg.FlushBytes))
	}
	if cfg.Reliable {
		opts = append(opts, mailbox.WithReliable(), mailbox.WithRTO(cfg.RTOBase, cfg.RTOMax))
	}
	return opts
}

// Queue is one rank's end of one query's distributed asynchronous visitor
// queue (Algorithm 1). It owns no loop: the rank's executor (internal/engine)
// polls the shared mailbox, routes records carrying this queue's tag into
// Deliver, gives it execution slices with Step, and pumps PumpTermination.
type Queue[V Visitor] struct {
	part *partition.Part
	algo Algorithm[V]

	ghostAlgo     GhostAlgorithm[V]   // nil when ghosts unused
	combAlgo      CombineAlgorithm[V] // nil when the algorithm does not combine or ghosts unused
	ghosts        *GhostTable
	nGhosts       int  // slots below this are filtered or combined; 0 when ghosts unused
	ghostAttached bool // ghostAlgo holds its filter state (sized on the first hit)

	// The combiner's accumulator: one pending visitor per ghost slot (sized on
	// the first hit), and the slots holding one, in the order they took it.
	held  []pending[V]
	dirty []int32

	mb  *mailbox.Box
	det *termination.Detector

	tag       uint32 // record tag stamped on every push (the query ID)
	cancelled bool   // drain without applying (see Cancel)

	cal    *calendar[V] // the local scheduler
	encBuf []byte

	// Out-of-core parking (non-nil pager): visitors whose adjacency page
	// missed the cache, indexed by the page they wait for; each page's slice
	// keeps its capacity across unparks. nParked is maintained alongside so
	// idle checks are O(1).
	pager   RowPager
	parked  [][]V
	nParked int
	// One Step slice's misses — rows, their visitors, and the park keys
	// RowPager.Park returns for them — reused across slices.
	missRows []int
	missVs   []V
	missKeys []int64

	stats    Stats
	mirrored Stats // what publish has already given the registry
	met      queueMetrics
}

// pending is one ghost slot's held visitor.
type pending[V Visitor] struct {
	v  V
	ok bool
}

// queueMetrics bundles the rank's obs handles for the visitor queue.
// Counters accumulate machine-wide (reset via obs.Registry.Reset); the Stats
// struct stays per-Queue for per-traversal reads.
type queueMetrics struct {
	rank          int
	pushed        *obs.PerRank
	ghostFiltered *obs.PerRank
	local         *obs.PerRank
	combined      *obs.PerRank
	received      *obs.PerRank
	queued        *obs.PerRank
	executed      *obs.PerRank
	forwarded     *obs.PerRank
	parked        *obs.PerRank
	unparked      *obs.PerRank
	queueDepth    *obs.Histogram
}

func newQueueMetrics(r *rt.Rank) queueMetrics {
	reg, p := r.Obs(), r.Size()
	return queueMetrics{
		rank:          r.Rank(),
		pushed:        reg.PerRank(obs.CorePushed, p),
		ghostFiltered: reg.PerRank(obs.CoreGhostFiltered, p),
		local:         reg.PerRank(obs.CoreLocal, p),
		combined:      reg.PerRank(obs.CoreCombined, p),
		received:      reg.PerRank(obs.CoreReceived, p),
		queued:        reg.PerRank(obs.CoreQueued, p),
		executed:      reg.PerRank(obs.CoreExecuted, p),
		forwarded:     reg.PerRank(obs.CoreForwarded, p),
		parked:        reg.PerRank(obs.CoreParked, p),
		unparked:      reg.PerRank(obs.CoreUnparked, p),
		queueDepth:    reg.Histogram(obs.CoreQueueDepth),
	}
}

// NewQueue builds one query's queue on one rank: visitors travel through the
// rank's shared mailbox stamped with tag (the query ID), and termination
// detection runs on the caller-minted per-query detector. ghosts enables the
// sender-side filter when the algorithm implements GhostAlgorithm and the
// combiner when it implements CombineAlgorithm (nil or empty disables both);
// the filter state and the combiner's accumulator are sized when a push first
// hits the table, so a query that never leaves its source's rank pays nothing
// for them. A non-nil pager marks the partition's CSR targets as out of
// core: Step parks visitors whose adjacency pages are absent instead of
// blocking on the device, and the caller must feed Pager.Drain results back
// through Unpark. The local scheduler is a calendar of FIFO buckets, keyed by
// the algorithm's BucketAlgorithm.Bucket, or one bucket when it declares none.
func NewQueue[V Visitor](r *rt.Rank, part *partition.Part, algo Algorithm[V],
	ghosts *GhostTable, pager RowPager, mb *mailbox.Box, det *termination.Detector, tag uint32) *Queue[V] {
	ba, _ := algo.(BucketAlgorithm[V])
	q := &Queue[V]{
		part:  part,
		algo:  algo,
		mb:    mb,
		det:   det,
		tag:   tag,
		cal:   newCalendar[V](ba),
		pager: pager,
		met:   newQueueMetrics(r),
	}
	if ghosts != nil && ghosts.Len() > 0 {
		q.ghostAlgo, _ = algo.(GhostAlgorithm[V])
		q.combAlgo, _ = algo.(CombineAlgorithm[V])
		if q.ghostAlgo != nil || q.combAlgo != nil {
			q.ghosts = ghosts
			q.nGhosts = ghosts.Len()
		}
	}
	return q
}

// LocalRow returns the CSR row index for a locally held vertex.
func (q *Queue[V]) LocalRow(v graph.Vertex) int {
	i, ok := q.part.LocalIndex(v)
	if !ok {
		panic("core: visitor delivered to rank without state for its vertex")
	}
	return i
}

// OutEdges returns the local portion of v's adjacency list. The slice is
// valid until the next OutEdges call (external stores reuse a buffer).
func (q *Queue[V]) OutEdges(v graph.Vertex) []csr.Target {
	return q.part.CSR.Row(q.LocalRow(v))
}

// Push inserts a visitor that does not travel a stored edge — a seed, a
// resume replay, a vertex's message to itself — into the distributed queue
// (Algorithm 1, PUSH). A visitor for a vertex this rank masters is applied in
// place, before Push returns: it is never encoded, sent or counted in flight,
// and LocalIdle is false from the moment it is queued. Any other is
// transmitted to its master partition through the routed mailbox.
func (q *Queue[V]) Push(v V) {
	q.stats.Pushed++
	q.route(v)
}

// route decides a push by range compare and owner-table search.
func (q *Queue[V]) route(v V) {
	if vtx := v.Vertex(); q.part.IsMaster(vtx) {
		q.stats.Local++
		q.apply(v)
	} else {
		q.send(q.part.Master(vtx), v)
	}
}

// PushEdge is Push for a visitor travelling the stored edge whose target word
// is t (v.Vertex() == t.Vertex()): what the sender can decide was resolved
// into the word when the partition was built, so deciding is reading it. A
// local target is applied in place; a target in one of the rank's remote slots
// goes to the owner the slot names — when the slot is within the ghost table,
// after the filter's verdict for an algorithm that declares ghost usage, and
// through the slot's held visitor for one that combines; a word with nothing
// resolved takes Push's path.
func (q *Queue[V]) PushEdge(t csr.Target, v V) {
	q.stats.Pushed++
	if t.Local() {
		q.stats.Local++
		q.apply(v)
		return
	}
	slot := t.Slot()
	if slot < 0 {
		q.route(v)
		return
	}
	if slot < q.nGhosts {
		if q.ghostAlgo != nil {
			if !q.ghostAttached {
				q.ghostAlgo.AttachGhosts(q.ghosts)
				q.ghostAttached = true
			}
			if !q.ghostAlgo.PreVisitGhost(v, slot) {
				q.stats.GhostFiltered++
				return
			}
		}
		if q.combAlgo != nil {
			q.hold(slot, v)
			return
		}
	}
	q.send(int(q.part.SlotOwner[slot]), v)
}

// hold makes v the slot's pending visitor: it takes an empty slot, merges into
// the visitor already there, or — when the two cannot merge — sends that one
// and takes its place. What a slot holds is work the termination detector
// cannot see, so LocalIdle stays false until Step sends it (flushHeld).
func (q *Queue[V]) hold(slot int, v V) {
	if q.held == nil {
		q.held = make([]pending[V], q.nGhosts)
	}
	p := &q.held[slot]
	switch {
	case !p.ok:
		p.v, p.ok = v, true
		q.dirty = append(q.dirty, int32(slot))
	case q.combAlgo.Combine(&p.v, v):
		q.stats.Combined++
	default:
		q.send(int(q.part.SlotOwner[slot]), p.v)
		p.v = v
	}
}

// flushHeld sends every held visitor and reports whether there was one.
func (q *Queue[V]) flushHeld() bool {
	for _, slot := range q.dirty {
		p := &q.held[slot]
		q.send(int(q.part.SlotOwner[slot]), p.v)
		*p = pending[V]{}
	}
	sent := len(q.dirty) > 0
	q.dirty = q.dirty[:0]
	return sent
}

// send transmits v to rank dest under the query's tag.
func (q *Queue[V]) send(dest int, v V) {
	q.encBuf = q.algo.Encode(v, q.encBuf[:0])
	q.mb.SendTagged(dest, q.tag, q.encBuf)
}

// apply handles one visitor that has reached a rank holding state for its
// vertex (Algorithm 1, CHECK_MAILBOX body): PreVisit against local state; if
// it proceeds, queue locally and forward to the next replica when the
// vertex's adjacency list continues on a later partition. A cancelled queue
// drops the visitor without applying it: no new state changes or pushes
// happen.
func (q *Queue[V]) apply(v V) {
	if q.cancelled || !q.algo.PreVisit(v) {
		return
	}
	q.stats.Queued++
	q.cal.push(v)
	if next, ok := q.part.ShouldForward(v.Vertex()); ok {
		q.stats.Forwarded++
		q.send(next, v)
	}
}

// Deliver applies one record of this queue's tag that the mailbox delivered.
// A cancelled queue counts it and drops it (apply) — the delivery was already
// counted toward termination by the mailbox, so the query still quiesces.
// Recycle-epoch handshake with the mailbox's arena delivery (mailbox.Record):
// rec.Payload is only valid until the next mailbox Poll, and Algorithm.Decode
// is required to deserialize into a value-typed visitor without retaining the
// payload slice — every in-tree algorithm does — so nothing here outlives the
// epoch.
func (q *Queue[V]) Deliver(rec mailbox.Record) {
	q.stats.Received++
	q.apply(q.algo.Decode(rec.Payload))
}

// Step executes up to batch locally queued visitors, returning whether any
// work happened — this query's slice of the DO_TRAVERSAL loop, which the
// engine interleaves with every other in-flight query's on the rank.
//
// With an out-of-core pager, each popped visitor's row is checked against the
// cache's residency bits without a lock; the slice's misses go to the pager
// in one RowPager.Park call after the loop, which enqueues their demand
// fetches and parks each visitor on its page — or runs it, when its page
// completed in between. The visit slot is spent hiding device latency behind
// resident work instead of blocking on it. Parking counts as progress: the
// queue did advance its frontier bookkeeping, and reporting false here could
// let the rank loop sleep while fetches it must drain are in flight.
//
// Whenever the slice leaves the scheduler empty, or finds it so, Step sends
// what the combiner holds: merging goes on for as long as the rank has local
// work, and the rank never waits on its peers over visitors it has not sent.
// Sending them is progress.
func (q *Queue[V]) Step(batch int) bool {
	if q.cal.n == 0 {
		return q.flushHeld()
	}
	q.met.queueDepth.Observe(uint64(q.cal.n))
	for i := 0; i < batch && q.cal.n > 0; i++ {
		v := q.cal.pop()
		if q.pager != nil {
			if row := q.LocalRow(v.Vertex()); !q.pager.Resident(row) {
				q.missRows = append(q.missRows, row)
				q.missVs = append(q.missVs, v)
				continue
			}
		}
		q.stats.Executed++
		q.algo.Visit(v, q)
	}
	if len(q.missRows) > 0 {
		q.park()
	}
	if q.cal.n == 0 {
		q.flushHeld()
	}
	return true
}

// parkedPageCap is the capacity a page's parked slice starts with: a
// scale-15 BFS at 1/8 resident parks ≈ 24 visitors per fetched page, so
// starting at one would regrow each page's slice five times a query.
const parkedPageCap = 16

// park hands the slice's misses to the pager in one call and parks each
// visitor on the page key it returns, or runs it when its row turned out
// resident after all.
func (q *Queue[V]) park() {
	n := len(q.missRows)
	q.missKeys = slices.Grow(q.missKeys[:0], n)[:n]
	q.pager.Park(q.missRows, q.missKeys)
	for i, key := range q.missKeys {
		v := q.missVs[i]
		if key < 0 {
			q.stats.Executed++
			q.algo.Visit(v, q)
			continue
		}
		if int(key) >= len(q.parked) {
			q.parked = slices.Grow(q.parked, int(key)+1-len(q.parked))[:key+1]
		}
		if q.parked[key] == nil {
			q.parked[key] = make([]V, 0, parkedPageCap)
		}
		q.parked[key] = append(q.parked[key], v)
		q.nParked++
		q.stats.Parked++
	}
	clear(q.missVs)
	q.missRows, q.missVs = q.missRows[:0], q.missVs[:0]
}

// Unpark runs the visitors parked on the given pages (called by the rank
// loop with a Pager.Drain result) and reports whether any work happened.
// Waiters execute immediately and unconditionally — not via the scheduler,
// and with no residency re-check. Both halves matter under a tight budget:
// a visitor that round-trips through the scheduler finds its page evicted by the
// time Step pops it, re-parks, and the traversal degenerates into a
// park/fetch/evict livelock (millions of parks per thousand visits, ranks
// never quiescing); and a re-check at drain time reintroduces the same cycle
// for multi-page rows — park on page p, p arrives pinned, re-park on p+1, p
// is released and evicted before p+1 completes, re-park on p, forever.
// Executing unconditionally bounds every visitor to exactly one park per
// scheduler pop: the parked page itself is pinned resident from Drain to Release
// (the rank loop's contract with the pager), and any other span page that
// lost the residency race faults synchronously in the serving read path — a
// bounded stall, traded for guaranteed forward progress. PreVisit is not
// re-run: it already mutated per-vertex state at delivery, and running it
// again would drop the visitor (e.g. BFS's "level already set" filter);
// stale visitors are self-pruned by each algorithm's Visit re-check.
func (q *Queue[V]) Unpark(pages []int64) bool {
	if q.nParked == 0 {
		return false
	}
	any := false
	for _, pg := range pages {
		if pg < 0 || pg >= int64(len(q.parked)) || len(q.parked[pg]) == 0 {
			continue
		}
		// Visit never parks (only Step does), so nothing appends to the
		// page's slice while its visitors run.
		vs := q.parked[pg]
		q.parked[pg] = vs[:0]
		q.nParked -= len(vs)
		any = true
		for _, v := range vs {
			q.stats.Unparked++
			q.stats.Executed++
			q.algo.Visit(v, q)
		}
		clear(vs)
	}
	return any
}

// LocalIdle reports whether this queue holds no local work. Parked visitors
// and the combiner's held ones are pending work — neither is in flight, so a
// queue holding any must not report idle, or termination detection could
// declare quiescence with traversal still to do.
func (q *Queue[V]) LocalIdle() bool {
	return q.cal.n == 0 && q.nParked == 0 && len(q.dirty) == 0
}

// Cancel marks the queue cancelled on this rank: the locally queued visitors
// and the combiner's held visitors are discarded (never sent, so never counted
// in flight) and subsequent deliveries are drained without being applied.
// Termination detection still runs to quiescence so the query's tagged
// records fully drain from the message plane before the ID is retired.
func (q *Queue[V]) Cancel() {
	clear(q.held)
	q.dirty = q.dirty[:0]
	q.cancelled = true
	q.cal.clear()
	// Parked visitors are dropped too: their demand fetches may still
	// complete, but Unpark on a cancelled queue has nothing to re-queue and
	// the pages simply age out of the cache.
	clear(q.parked)
	q.nParked = 0
}

// PumpTermination drives this query's detector with the caller-computed
// local idle state and returns true at global quiescence, snapshotting the
// detector counters into Stats exactly once. No end-of-traversal barrier is
// needed: records of other queries cannot be misattributed — the tag
// demultiplexes them — so ranks may retire the query independently.
func (q *Queue[V]) PumpTermination(localIdle bool) bool {
	q.publish()
	if !q.det.Pump(localIdle && q.LocalIdle()) {
		return false
	}
	q.stats.DetectorWaves = q.det.Waves
	q.stats.DetectorSent = q.det.Sent()
	q.stats.DetectorReceived = q.det.Received()
	return true
}

// Stats returns the rank's traversal counters; the detector fields are set
// once PumpTermination has returned true. Mailbox is left zero — the mailbox
// is the rank's, not the queue's, and its owner fills it in.
func (q *Queue[V]) Stats() Stats {
	q.publish()
	return q.stats
}

// publish gives the registry what the counters have grown since the last
// publication (obs.PerRank.Publish). The rank loop reaches it through
// PumpTermination every iteration and through Stats when it retires the
// query, forced retirement included, so the registry equals Stats whenever
// the rank is between iterations and lags by at most one while it runs.
func (q *Queue[V]) publish() {
	m, cur, last, rank := &q.met, &q.stats, &q.mirrored, q.met.rank
	m.pushed.Publish(rank, cur.Pushed, &last.Pushed)
	m.ghostFiltered.Publish(rank, cur.GhostFiltered, &last.GhostFiltered)
	m.local.Publish(rank, cur.Local, &last.Local)
	m.combined.Publish(rank, cur.Combined, &last.Combined)
	m.received.Publish(rank, cur.Received, &last.Received)
	m.queued.Publish(rank, cur.Queued, &last.Queued)
	m.executed.Publish(rank, cur.Executed, &last.Executed)
	m.forwarded.Publish(rank, cur.Forwarded, &last.Forwarded)
	m.parked.Publish(rank, cur.Parked, &last.Parked)
	m.unparked.Publish(rank, cur.Unparked, &last.Unparked)
}

// calendar is the local scheduler: visitors land in FIFO buckets keyed by
// BucketAlgorithm.Bucket — all in bucket 0, one plain FIFO, when the
// algorithm declares no order (algo nil) — drained in ascending bucket order.
// Push and pop are
// O(1) amortized — order sorts the indices of the buckets present (a handful
// for SSSP's ⌊Dist/Δ⌋, two for BFS's levels; touched once per bucket), not
// visitors — and neither pays the map for the bucket it used last: open is
// the one being drained, last the one pushed into most recently. Spent buckets
// keep their backing arrays in a free list: the steady state allocates nothing.
type calendar[V Visitor] struct {
	algo    BucketAlgorithm[V] // nil: every visitor in bucket 0
	buckets map[uint64]*bucket[V]
	order   []uint64   // ascending indices of the buckets present
	open    *bucket[V] // buckets[order[0]], or nil: look it up
	last    *bucket[V] // the bucket of the latest push, or nil
	free    []*bucket[V]
	n       int
}

// bucket is a FIFO: vs[head:] are the visitors still queued.
type bucket[V Visitor] struct {
	key  uint64
	vs   []V
	head int
}

// compactAt is the consumed prefix past which pop slides a bucket's live tail
// down, so a bucket that never runs empty stays the size of what it holds.
const compactAt = 1024

func newCalendar[V Visitor](algo BucketAlgorithm[V]) *calendar[V] {
	return &calendar[V]{algo: algo, buckets: make(map[uint64]*bucket[V])}
}

func (c *calendar[V]) push(v V) {
	var b uint64
	if c.algo != nil {
		b = c.algo.Bucket(v)
	}
	s := c.last
	if s == nil || s.key != b {
		if s = c.buckets[b]; s == nil {
			if f := len(c.free); f > 0 {
				s, c.free = c.free[f-1], c.free[:f-1]
			} else {
				s = new(bucket[V])
			}
			s.key = b
			c.buckets[b] = s
			i, _ := slices.BinarySearch(c.order, b)
			c.order = slices.Insert(c.order, i, b)
			if i == 0 {
				c.open = nil // a lower bucket than the one being drained
			}
		}
		c.last = s
	}
	s.vs = append(s.vs, v)
	c.n++
}

// pop returns the oldest visitor of the lowest-indexed non-empty bucket.
// Bucket membership already bounds the priority spread to Δ, and the
// label-correcting kernels this serves converge under any within-bucket
// order — but not at the same cost. A push for a local vertex is queued
// before Push returns (Queue.Push), so a LIFO drain would chase one chain of
// local relaxations depth-first through the whole execution slice on
// distances no neighbour has yet had the chance to improve; arrival order
// expands a bucket breadth-first.
func (c *calendar[V]) pop() V {
	s := c.open
	if s == nil {
		s = c.buckets[c.order[0]]
		c.open = s
	}
	v := s.vs[s.head]
	var zero V
	s.vs[s.head] = zero
	s.head++
	switch {
	case s.head == len(s.vs):
		delete(c.buckets, s.key)
		c.order = slices.Delete(c.order, 0, 1)
		c.release(s)
	case s.head >= compactAt && 2*s.head >= len(s.vs):
		live := copy(s.vs, s.vs[s.head:])
		clear(s.vs[live:])
		s.vs, s.head = s.vs[:live], 0
	}
	c.n--
	return v
}

// release returns a bucket no longer in the map to the free list.
func (c *calendar[V]) release(s *bucket[V]) {
	if c.open == s {
		c.open = nil
	}
	if c.last == s {
		c.last = nil
	}
	clear(s.vs[s.head:])
	s.vs, s.head = s.vs[:0], 0
	c.free = append(c.free, s)
}

func (c *calendar[V]) clear() {
	for _, s := range c.buckets {
		c.release(s)
	}
	clear(c.buckets)
	c.order = c.order[:0]
	c.n = 0
}
