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
)

// Stats counts one rank's activity for one query. Like mailbox.Stats it is the
// one ledger the hot path writes — plain fields. The queue publishes nothing:
// the engine's rank loop gives the machine's obs.Registry the growth of
// Pushed through Unparked under the core.* names, from one table
// (internal/engine, ledger.go). Every push ends one of three ways, a replica
// forward sends once more, and a runner may send and receive records of a
// protocol of its own beside or instead of its queue (a direction-optimizing
// BFS's level messages): Pushed − GhostFiltered − Local + Forwarded +
// ProtocolSent == Mailbox.RecordsSent, and Received + ProtocolReceived ==
// Mailbox.RecordsDelivered (check.Traversal). A Queue fills only its own
// counters; the runner and the rank loop that drive it fill the rest.
type Stats struct {
	Pushed        uint64 // visitors pushed on this rank
	GhostFiltered uint64 // visitors suppressed by the local ghost filter
	Local         uint64 // visitors pushed to a vertex this rank masters: applied in place, never sent
	Received      uint64 // visitors the mailbox delivered to this rank
	Queued        uint64 // visitors whose PreVisit returned true
	Executed      uint64 // visitors whose Visit ran
	Forwarded     uint64 // visitors forwarded along a replica chain
	Parked        uint64 // visitors or SSSP frontier rows parked waiting for an adjacency page
	Unparked      uint64 // parked visitors or rows run after their page arrived
	// ProtocolSent/ProtocolReceived count the records a runner sent, or was
	// delivered, outside its visitor queue. The runner fills them in; a Queue
	// leaves them zero.
	ProtocolSent     uint64
	ProtocolReceived uint64
	// Relaxed counts the edges a round protocol relaxed (SSSP); others leave
	// it zero.
	Relaxed uint64
	// Mailbox is filled in by the executor when the query retires on the rank
	// (see engine.Ticket.Stats for which of its counters are the query's own).
	Mailbox mailbox.Stats
	// DetectorWaves is the waves the query's termination detector completed,
	// filled in by the executor when it retires the query. Only the root
	// rank's detector completes waves, so the other ranks' are zero. The
	// detector's S and R are Mailbox.RecordsSent and RecordsDelivered.
	DetectorWaves uint64
}

// Sum returns the machine-wide totals of one query's per-rank counters,
// mailbox counters included.
func Sum(stats []Stats) Stats {
	var t Stats
	for _, s := range stats {
		t.Add(s)
	}
	return t
}

// Add accumulates o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Pushed += o.Pushed
	s.GhostFiltered += o.GhostFiltered
	s.Local += o.Local
	s.Received += o.Received
	s.Queued += o.Queued
	s.Executed += o.Executed
	s.Forwarded += o.Forwarded
	s.Parked += o.Parked
	s.Unparked += o.Unparked
	s.ProtocolSent += o.ProtocolSent
	s.ProtocolReceived += o.ProtocolReceived
	s.Relaxed += o.Relaxed
	s.Mailbox.Add(o.Mailbox)
	s.DetectorWaves += o.DetectorWaves
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
// queue (Algorithm 1). It owns no loop and no termination detector: the
// rank's executor (internal/engine) polls the shared mailbox, routes records
// carrying this queue's tag into Deliver, gives it execution slices with
// Step, and decides quiescence itself from LocalIdle and the mailbox's
// per-tag flow counts (§V).
type Queue[V Visitor] struct {
	part *partition.Part
	algo Algorithm[V]

	nGhosts int         // the ghost table's length: the slots the filter covers
	filter  GhostFilter // sized on the first Ghosts call

	mb *mailbox.Box

	tag       uint32 // record tag stamped on every push (the query ID)
	cancelled bool   // drain without applying (see Cancel)

	cal    *calendar[V] // the local scheduler
	encBuf []byte

	// Out-of-core parking (non-nil pager): visitors whose adjacency page
	// missed the cache wait on it in parked.
	pager  RowPager
	parked Parking[V]

	stats      Stats
	queueDepth *obs.Histogram
}

// NewQueue builds one query's queue on one rank: visitors travel through the
// rank's shared mailbox stamped with tag (the query ID). ghosts sizes the
// sender-side filter (Ghosts; nil or empty disables it), allocated on the
// first Ghosts call, so a query that never pushes along an edge pays nothing
// for it. A non-nil pager marks the partition's CSR targets as out of core:
// Step parks visitors whose adjacency pages are absent instead of
// blocking on the device, and the caller must feed Pager.Drain results back
// through Unpark. The local scheduler is a calendar of FIFO buckets, keyed by
// the algorithm's BucketAlgorithm.Bucket, or one bucket when it declares none.
func NewQueue[V Visitor](r *rt.Rank, part *partition.Part, algo Algorithm[V],
	ghosts *GhostTable, pager RowPager, mb *mailbox.Box, tag uint32) *Queue[V] {
	ba, _ := algo.(BucketAlgorithm[V])
	q := &Queue[V]{
		part:       part,
		algo:       algo,
		mb:         mb,
		tag:        tag,
		cal:        newCalendar[V](ba),
		pager:      pager,
		queueDepth: r.Obs().Histogram(obs.CoreQueueDepth),
	}
	q.parked = NewParking(pager, q.visit)
	if ghosts != nil {
		q.nGhosts = ghosts.Len()
	}
	return q
}

// Ghosts returns the query's ghost filter on this rank, sized to the rank's
// ghost table on the first call. Fetch it once per Visit, after the vertex is
// known to have edges to push along: a query that never pushes along an edge
// then allocates no filter.
func (q *Queue[V]) Ghosts() *GhostFilter {
	if q.filter.best == nil && q.nGhosts > 0 {
		q.filter.best = make([]uint64, q.nGhosts)
		for i := range q.filter.best {
			q.filter.best[i] = ^uint64(0)
		}
	}
	return &q.filter
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
// goes to the owner the slot names; a word with nothing resolved takes Push's
// path. The ghost filter is the caller's: a push it drops never gets here
// (GhostFilter.Drop).
func (q *Queue[V]) PushEdge(t csr.Target, v V) {
	q.stats.Pushed++
	if isLocal(t) {
		q.stats.Local++
		q.apply(v)
		return
	}
	if slot := t.Slot(); slot >= 0 {
		q.send(int(q.part.SlotOwner[slot]), v)
	} else {
		q.route(v)
	}
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
func (q *Queue[V]) Step(batch int) bool {
	if q.cal.n == 0 {
		return false
	}
	q.queueDepth.Observe(uint64(q.cal.n))
	for i := 0; i < batch && q.cal.n > 0; i++ {
		v := q.cal.pop()
		// The residency test is inline, not Parking.Absent, which does not
		// inline: it runs once per visitor.
		if q.pager != nil {
			if row := q.LocalRow(v.Vertex()); !q.pager.Resident(row) {
				q.parked.Miss(row, v)
				continue
			}
		}
		q.visit(v)
	}
	q.parked.Park()
	return true
}

// visit executes one visitor.
func (q *Queue[V]) visit(v V) {
	q.stats.Executed++
	q.algo.Visit(v, q)
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
	return q.parked.Unpark(pages)
}

// LocalIdle reports whether this queue holds no local work. Parked visitors
// are pending work — not in flight, so a queue holding any must not report
// idle, or termination detection could declare quiescence with traversal
// still to do.
func (q *Queue[V]) LocalIdle() bool {
	return q.cal.n == 0 && q.parked.Len() == 0
}

// Cancel marks the queue cancelled on this rank: the locally queued visitors
// are discarded (never sent, so never counted in flight) and subsequent
// deliveries are drained without being applied.
// Termination detection still runs to quiescence so the query's tagged
// records fully drain from the message plane before the ID is retired.
func (q *Queue[V]) Cancel() {
	q.cancelled = true
	q.cal.clear()
	// Parked visitors are dropped too: their demand fetches may still
	// complete, but Unpark on a cancelled queue has nothing to re-queue and
	// the pages simply age out of the cache.
	q.parked.Clear()
}

// Stats returns the rank's traversal counters, first folding in the pushes
// the ghost filter dropped (counted in Pushed and GhostFiltered, once) and
// the parking's counts. The protocol, detector and mailbox fields are left
// zero: they are the runner's and the executor's.
func (q *Queue[V]) Stats() Stats {
	cur := &q.stats
	cur.Parked, cur.Unparked = q.parked.Parked, q.parked.Unparked
	cur.Pushed += q.filter.dropped
	cur.GhostFiltered += q.filter.dropped
	q.filter.dropped = 0
	return *cur
}

// calendar is the local scheduler: visitors land in FIFO buckets keyed by
// BucketAlgorithm.Bucket — all in bucket 0, one plain FIFO, when the
// algorithm declares no order (algo nil) — drained in ascending bucket order.
// Push and pop are O(1) amortized — order sorts the indices of the buckets
// present (two for BFS's levels; touched once per bucket), not visitors — and
// neither pays the map for the bucket it used last: open is
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

// isLocal is csr.Target.Local, called through a plain function of this
// package so that every push loop inlines it. The compiler inlines a
// function of another package only when it holds the body: from that
// package's export data if it is imported directly, or carried along with
// an inlinable function of a package that is. PushEdge is generic, so it is
// compiled in the packages whose visitors instantiate it, and bfs, cc and
// k-core do not import csr; nor does pagerank, whose sweep tests Local
// itself. With no inlinable function of core calling Local, its body reached
// none of them and each such test was a call; isLocal's body, exported with
// core's, carries it to every importer of core.
func isLocal(t csr.Target) bool { return t.Local() }
