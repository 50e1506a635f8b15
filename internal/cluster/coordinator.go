package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"havoqgt/internal/engine"
)

// ErrCoordinatorClosed reports a Submit after Close.
var ErrCoordinatorClosed = errors.New("cluster: coordinator closed")

// joinReadTimeout bounds how long an accepted connection may dawdle before
// its join line arrives; a port-scanner or half-open socket must not pin a
// handler goroutine forever.
const joinReadTimeout = 60 * time.Second

// wconn is one joined worker's control connection. Writes serialize on encMu
// (results for different queries interleave from multiple goroutines).
type wconn struct {
	slot  int
	info  workerInfo
	conn  net.Conn
	encMu sync.Mutex
	enc   *json.Encoder
	// last is the UnixNano of the most recent inbound message — any message:
	// pongs, results, acks all prove the process is alive. Read by the
	// failure detector.
	last atomic.Int64
}

func (w *wconn) send(m msg) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	return w.enc.Encode(&m)
}

// Coordinator owns one cluster: it admits cfg.Workers join handshakes, seals
// the layout, broadcasts it, and from then on is the single point of global
// admission — queries enter here, fan out to every worker, and assemble from
// the workers' disjoint master-range partials.
//
// It is also the failure detector. Heartbeats ping every worker on the
// control connection; a worker silent past cfg.Liveness (or whose connection
// dies) is declared dead: its slot reopens, every in-flight query fails with
// a typed *WorkerLostError (never a hang), survivors are told to force-abort,
// and Submit sheds with *DegradedError until the cluster is whole again. A
// fresh process may then join the dead slot: the epoch is bumped, the new
// layout rebroadcast (survivors re-point their meshes and ack), the re-joiner
// rebuilds its partitions locally, and admission resumes when every slot has
// confirmed the current epoch.
type Coordinator struct {
	cfg  ClusterConfig
	sum  string
	n    uint64 // vertices
	ln   net.Listener
	logf func(format string, args ...any)

	mu      sync.Mutex
	epoch   uint64        // current fencing epoch; bumped on every re-join
	workers []*wconn      // by slot; nil = never joined, or dead
	epochOK []uint64      // per slot: last epoch confirmed by ready/layout-ack (0 = none)
	joined  int           // currently connected workers
	formed  bool          // all slots joined at least once (initial collective build started)
	wholeCh chan struct{} // closed while every slot is confirmed at the current epoch
	queries map[uint32]*Query
	nextQID uint32
	closed  bool

	sem chan struct{} // global MaxInFlight admission

	hbStop chan struct{}
	wg     sync.WaitGroup
}

// NewCoordinator binds addr (":0" works; see Addr) and starts accepting
// joins. logf may be nil.
func NewCoordinator(addr string, cfg ClusterConfig, logf func(string, ...any)) (*Coordinator, error) {
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:     cfg,
		sum:     cfg.Checksum(),
		epoch:   uint64(time.Now().UnixNano()),
		n:       uint64(1) << cfg.Scale,
		ln:      ln,
		logf:    logf,
		workers: make([]*wconn, cfg.Workers),
		epochOK: make([]uint64, cfg.Workers),
		wholeCh: make(chan struct{}),
		queries: make(map[uint32]*Query),
		nextQID: 1,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		hbStop:  make(chan struct{}),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.heartbeatLoop()
	return c, nil
}

// Addr returns the bound control address (resolves ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Epoch returns the current cluster epoch: minted at startup, bumped by one
// on every re-join so stale mesh dialers are fenced out.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// NumVertices returns the configured graph's vertex count.
func (c *Coordinator) NumVertices() uint64 { return c.n }

// wholeLocked reports whether every slot is occupied AND confirmed at the
// current epoch (ready for re-joiners / initial formation, layout-ack for
// survivors of a heal). Caller holds c.mu.
func (c *Coordinator) wholeLocked() bool {
	for s, w := range c.workers {
		if w == nil || c.epochOK[s] != c.epoch {
			return false
		}
	}
	return true
}

// missingLocked lists the slots that keep the cluster from being whole.
func (c *Coordinator) missingLocked() []int {
	var out []int
	for s, w := range c.workers {
		if w == nil || c.epochOK[s] != c.epoch {
			out = append(out, s)
		}
	}
	return out
}

// maybeWholeLocked closes wholeCh if the cluster just became whole.
func (c *Coordinator) maybeWholeLocked() {
	if !c.wholeLocked() {
		return
	}
	select {
	case <-c.wholeCh:
	default:
		close(c.wholeCh)
	}
}

// unwholeLocked replaces a closed wholeCh with a fresh open one (degradation
// or an epoch bump invalidated the old confirmations).
func (c *Coordinator) unwholeLocked() {
	select {
	case <-c.wholeCh:
		c.wholeCh = make(chan struct{})
	default:
	}
}

// Whole reports whether every slot is confirmed at the current epoch.
func (c *Coordinator) Whole() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wholeLocked()
}

// Missing returns the slots currently dead or not yet healed to the current
// epoch (empty when the cluster is whole). For /healthz.
func (c *Coordinator) Missing() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.missingLocked()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn runs one connection: the join handshake, then (if admitted) the
// worker's inbound message stream until the connection dies or the worker is
// evicted.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	dec := json.NewDecoder(conn)
	conn.SetReadDeadline(time.Now().Add(joinReadTimeout))
	var join msg
	if err := dec.Decode(&join); err != nil || join.Type != "join" {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	w := &wconn{conn: conn, enc: json.NewEncoder(conn)}
	refuse := func(code, detail string) {
		w.send(msg{Type: "error", Code: code, Detail: detail})
		conn.Close()
	}
	if join.Version != Version {
		refuse(codeVersion, fmt.Sprintf("coordinator speaks %q, worker %q", Version, join.Version))
		return
	}
	if join.ConfigSum != c.sum {
		refuse(codeConfig, fmt.Sprintf("coordinator config %s, worker %s", c.sum, join.ConfigSum))
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		refuse(codeSealed, "coordinator closed")
		return
	}
	slot := join.Slot
	if slot >= 0 {
		if slot >= c.cfg.Workers {
			c.mu.Unlock()
			refuse(codeSlot, fmt.Sprintf("slot %d out of range [0, %d)", slot, c.cfg.Workers))
			return
		}
		if c.workers[slot] != nil {
			c.mu.Unlock()
			refuse(codeSlot, fmt.Sprintf("slot %d already joined", slot))
			return
		}
	} else {
		slot = -1
		for i, ww := range c.workers {
			if ww == nil {
				slot = i
				break
			}
		}
		if slot < 0 {
			c.mu.Unlock()
			refuse(codeSealed, fmt.Sprintf("cluster whole: all %d slots occupied", c.cfg.Workers))
			return
		}
	}
	// A join on an already-formed cluster is a re-join into a dead slot: the
	// survivors are serving, so the newcomer rebuilds locally, and the epoch
	// is bumped so connections from the dead process's mesh can never land.
	rejoin := c.formed
	lo, hi := c.cfg.window(slot)
	w.slot = slot
	w.info = workerInfo{Slot: slot, MeshAddr: join.MeshAddr, Lo: lo, Hi: hi}
	w.last.Store(time.Now().UnixNano())
	c.workers[slot] = w
	c.epochOK[slot] = 0
	c.joined++
	seal := false
	if rejoin {
		c.epoch++
		c.unwholeLocked()
	} else if c.joined == c.cfg.Workers {
		c.formed = true
		seal = true
	}
	epoch := c.epoch
	// Once c.mu is released a layout broadcast or a ping can reach the
	// joiner: holding its encoder until the verdict is written orders it first.
	w.encMu.Lock()
	c.mu.Unlock()

	verb := "joined"
	if rejoin {
		verb = "RE-joined"
	}
	c.logf("cluster: worker %d %s from %s (mesh %s, ranks [%d,%d), epoch %d)",
		slot, verb, conn.RemoteAddr(), join.MeshAddr, lo, hi, epoch)
	err := w.enc.Encode(&msg{Type: "joined", Slot: slot, Rejoin: rejoin})
	w.encMu.Unlock()
	if err != nil {
		c.dropWorker(w, "joined verdict write failed")
		return
	}
	if seal || rejoin {
		c.broadcastLayout()
	}

	for {
		var m msg
		if err := dec.Decode(&m); err != nil {
			c.dropWorker(w, "control connection lost")
			return
		}
		w.last.Store(time.Now().UnixNano())
		switch m.Type {
		case "ready":
			c.confirmEpoch(w, m.Epoch)
			c.logf("cluster: worker %d ready (epoch %d)", w.slot, m.Epoch)
		case "layout-ack":
			c.confirmEpoch(w, m.Epoch)
		case "pong":
			// w.last already refreshed; nothing else to do.
		case "result":
			c.mu.Lock()
			q := c.queries[m.QID]
			c.mu.Unlock()
			if q != nil {
				q.addPartial(w.slot, &m)
			}
		}
	}
}

// confirmEpoch records that the worker runs at the given epoch, possibly
// completing a heal. Confirmations for superseded epochs (a layout-ack racing
// the next re-join's bump) are kept as-is: they still mark the worker
// control-plane-live but do not count toward wholeness.
func (c *Coordinator) confirmEpoch(w *wconn, epoch uint64) {
	c.mu.Lock()
	if c.workers[w.slot] == w && epoch > c.epochOK[w.slot] {
		c.epochOK[w.slot] = epoch
		c.maybeWholeLocked()
	}
	whole := c.wholeLocked()
	c.mu.Unlock()
	if whole {
		c.logf("cluster: whole at epoch %d; admitting queries", epoch)
	}
}

// dropWorker declares a worker dead: its control connection failed, or the
// failure detector saw silence past the liveness window. Frees the slot for
// a re-join, fails every in-flight query with a typed *WorkerLostError
// (queries span all workers, so all are doomed), and tells survivors to
// force-abort — with a worker gone, cancel-drain could never quiesce
// (termination waves need every rank of the machine).
func (c *Coordinator) dropWorker(w *wconn, why string) {
	c.mu.Lock()
	if c.closed || c.workers[w.slot] != w {
		// Shutdown teardown, or an older drop already processed this wconn.
		c.mu.Unlock()
		w.conn.Close()
		return
	}
	c.workers[w.slot] = nil
	c.epochOK[w.slot] = 0
	c.joined--
	epoch := c.epoch
	formed := c.formed
	c.unwholeLocked()
	var doomed []*Query
	var survivors []*wconn
	if formed {
		for _, q := range c.queries {
			doomed = append(doomed, q)
		}
		for _, ww := range c.workers {
			if ww != nil {
				survivors = append(survivors, ww)
			}
		}
	}
	c.mu.Unlock()

	// Best-effort eviction notice: a live-but-stalled worker must learn it
	// was declared dead so it aborts its queries and re-joins fresh.
	w.send(msg{Type: "evicted"})
	w.conn.Close()
	if !formed {
		c.logf("cluster: worker %d lost before formation (%s); slot reopened", w.slot, why)
		return
	}
	c.logf("cluster: worker %d LOST (%s): epoch %d degraded, failing %d in-flight, notifying %d survivor(s)",
		w.slot, why, epoch, len(doomed), len(survivors))
	lost := &WorkerLostError{Slot: w.slot, Epoch: epoch}
	for _, q := range doomed {
		q.fail(lost)
	}
	for _, ww := range survivors {
		ww.send(msg{Type: "abort"})
	}
}

// heartbeatLoop is the failure detector: ping every connected worker each
// cfg.Heartbeat, and evict any worker that has confirmed an epoch (i.e. is
// past its build and serving its control loop) yet has been silent for
// longer than cfg.Liveness. Workers that have not confirmed yet are building
// partitions — a phase that legitimately goes quiet on the control plane —
// and are covered by the connection-error path plus WaitReady timeouts.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		live := make([]*wconn, 0, len(c.workers))
		confirmed := make([]bool, 0, len(c.workers))
		for s, w := range c.workers {
			if w != nil {
				live = append(live, w)
				confirmed = append(confirmed, c.epochOK[s] != 0)
			}
		}
		c.mu.Unlock()
		now := time.Now().UnixNano()
		for i, w := range live {
			if confirmed[i] && now-w.last.Load() > int64(c.cfg.Liveness) {
				c.dropWorker(w, fmt.Sprintf("no heartbeat for %v", c.cfg.Liveness))
				continue
			}
			if err := w.send(msg{Type: "ping"}); err != nil {
				c.dropWorker(w, "heartbeat write failed")
			}
		}
	}
}

// broadcastLayout ships the current cluster layout — every live worker's
// mesh address and rank window plus the fencing epoch — to all connected
// workers. Sent at seal (initial formation) and on every re-join; survivors
// answer with layout-ack after re-pointing their meshes, the newcomer with
// ready after its local rebuild.
func (c *Coordinator) broadcastLayout() {
	c.mu.Lock()
	epoch := c.epoch
	infos := make([]workerInfo, 0, len(c.workers))
	conns := make([]*wconn, 0, len(c.workers))
	for _, w := range c.workers {
		if w != nil {
			infos = append(infos, w.info)
			conns = append(conns, w)
		}
	}
	c.mu.Unlock()
	c.logf("cluster: layout broadcast: %d/%d workers, epoch %d", len(conns), c.cfg.Workers, epoch)
	for _, w := range conns {
		w.send(msg{Type: "cluster", Epoch: epoch, Workers: infos})
	}
}

// WaitReady blocks until the cluster is whole — every worker built, started,
// and confirmed at the current epoch — or the timeout elapses. Valid both for
// initial formation and for healing after a worker loss.
func (c *Coordinator) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if c.wholeLocked() {
			c.mu.Unlock()
			return nil
		}
		ch := c.wholeCh
		missing := c.missingLocked()
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("cluster: timed out after %v with slots %v dead or unconfirmed", timeout, missing)
		}
		select {
		case <-ch:
			// Whole at the epoch the channel belonged to; re-check, the
			// cluster may have degraded again.
		case <-time.After(wait):
			return fmt.Errorf("cluster: timed out after %v with slots %v dead or unconfirmed", timeout, missing)
		}
	}
}

// Query is the coordinator-side handle on one cluster-wide query.
type Query struct {
	c    *Coordinator
	id   uint32
	spec engine.Spec
	res  *engine.Result

	mu        sync.Mutex
	spans     []span // by slot: the vertex range its partial filled
	covered   uint64 // vertices the accepted partials filled, summed
	pending   int
	errDetail []string
	failErr   error // terminal typed failure (worker lost)
	finished  bool
	timer     *time.Timer

	done chan struct{}
}

// Submit admits a query globally (blocking while MaxInFlight queries are in
// flight) and fans it out to every worker. The returned Query completes when
// all workers have reported their master-range partials — or fails typed if
// a worker dies first. While the cluster is degraded, Submit sheds
// immediately with *DegradedError instead of queueing onto a cluster that
// cannot answer.
func (c *Coordinator) Submit(spec engine.Spec) (*Query, error) {
	if err := engine.Validate(spec, c.n); err != nil {
		return nil, err
	}
	c.sem <- struct{}{} // global admission: one slot per in-flight query

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.sem
		return nil, ErrCoordinatorClosed
	}
	if !c.wholeLocked() {
		derr := &DegradedError{Missing: c.missingLocked(), Epoch: c.epoch}
		c.mu.Unlock()
		<-c.sem
		return nil, derr
	}
	// Registration happens under the same lock as the wholeness check: a
	// worker death after this point finds the query in c.queries and fails
	// it; there is no window where a query can fan out unseen and hang.
	q := &Query{
		c:       c,
		id:      c.nextQID,
		spec:    spec,
		res:     engine.Part(spec, engine.NewResult(spec, c.n), 0, c.n), // what workers ship, for every vertex
		spans:   make([]span, c.cfg.Workers),
		pending: c.cfg.Workers,
		done:    make(chan struct{}),
	}
	c.nextQID++
	c.queries[q.id] = q
	conns := append([]*wconn(nil), c.workers...)
	c.mu.Unlock()

	wire := engine.Canonical(spec)
	wire.Deadline, wire.Resume = 0, nil
	sub := msg{Type: "submit", QID: q.id, Spec: &wire}
	for _, w := range conns {
		if w != nil {
			w.send(sub)
		}
	}
	// Armed once every worker has the submit, so a deadline's cancel can
	// never overtake it and be dropped by a worker that has no such query.
	if spec.Deadline > 0 {
		q.mu.Lock()
		if !q.finished {
			q.timer = time.AfterFunc(spec.Deadline, q.Cancel)
		}
		q.mu.Unlock()
	}
	return q, nil
}

// addPartial folds worker slot's master-range result into the assembly; the
// last worker to report completes the query. A partial that does not fit the
// query (checkPartial, engine.Merge) fails it instead: the coordinator
// places its arrays by the worker's bounds, so it never trusts them.
func (q *Query) addPartial(slot int, m *msg) {
	q.mu.Lock()
	if q.finished {
		q.mu.Unlock()
		return
	}
	err := q.checkPartial(slot, m)
	if err == nil {
		err = engine.Merge(q.spec, q.res, m.Part, m.Lo, m.Hi)
	}
	if err != nil {
		q.finish(fmt.Errorf("cluster: query %d: refused worker %d's partial: %w", q.id, slot, err))
		return
	}
	q.spans[slot] = span{m.Lo, m.Hi, true}
	q.covered += m.Hi - m.Lo
	if m.Err != "" {
		q.errDetail = append(q.errDetail, m.Err)
	}
	if p := m.Part; p != nil {
		if m.Lo == 0 && m.Hi > 0 {
			q.res.Waves = p.Waves // detector root lives on rank 0's worker
		}
		q.res.Cancelled = q.res.Cancelled || p.Cancelled
	}
	if q.pending--; q.pending > 0 {
		q.mu.Unlock()
		return
	}
	// Accepted spans are disjoint and inside [0, n), so they cover it
	// exactly when their lengths sum to n. A worker that rejected the query
	// fills nothing and says why (errDetail).
	if len(q.errDetail) == 0 && q.covered != q.c.n {
		q.finish(fmt.Errorf("cluster: query %d: the workers' partials cover %d of %d vertices", q.id, q.covered, q.c.n))
		return
	}
	q.finish(nil)
}

// span is the vertex range [lo, hi) one worker's accepted partial filled.
type span struct {
	lo, hi uint64
	ok     bool // the worker has reported
}

// checkPartial is why q, with q.mu held, refuses worker slot's partial m: a
// second report from the slot, or a vertex range outside [0, n), inverted or
// overlapping another worker's. nil accepts m; engine.Merge then checks its
// arrays.
func (q *Query) checkPartial(slot int, m *msg) error {
	if q.spans[slot].ok {
		return errors.New("the worker already reported")
	}
	if m.Lo > m.Hi || m.Hi > q.c.n {
		return fmt.Errorf("vertex range [%d, %d) not within [0, %d)", m.Lo, m.Hi, q.c.n)
	}
	for other, s := range q.spans {
		if s.ok && m.Lo < s.hi && s.lo < m.Hi {
			return fmt.Errorf("vertex range [%d, %d) overlaps worker %d's [%d, %d)", m.Lo, m.Hi, other, s.lo, s.hi)
		}
	}
	return nil
}

// fail completes the query with a terminal typed error without waiting for
// the remaining partials — they are never coming (their worker is dead, and
// the survivors were told to abort). Idempotent against addPartial and
// against concurrent drops of different workers.
func (q *Query) fail(err error) {
	q.mu.Lock()
	q.finish(err)
}

// finish, with q.mu held, completes the query unless it already is:
// assembled when err is nil, failed with err otherwise. It releases q.mu
// before it releases the query's admission slot.
func (q *Query) finish(err error) {
	if q.finished {
		q.mu.Unlock()
		return
	}
	q.finished = true
	if err != nil {
		q.failErr = err
		q.res.Cancelled = true
	}
	if q.timer != nil {
		q.timer.Stop()
	}
	q.mu.Unlock()
	q.c.mu.Lock()
	delete(q.c.queries, q.id)
	q.c.mu.Unlock()
	close(q.done)
	<-q.c.sem
}

// ID returns the cluster-wide query ID (also the mailbox tag on every rank).
func (q *Query) ID() uint32 { return q.id }

// Done is closed once every worker has reported (or the query failed typed).
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks for assembly and returns the global result. The error is
// non-nil if any worker rejected or failed the query — in particular, a
// *WorkerLostError (errors.Is ErrWorkerLost) when a worker process died
// mid-query; the caller may WaitReady for the heal and resubmit.
func (q *Query) Wait() (*engine.Result, error) {
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.failErr != nil {
		return q.res, q.failErr
	}
	if len(q.errDetail) > 0 {
		return q.res, fmt.Errorf("cluster: query %d failed on %d worker(s): %s",
			q.id, len(q.errDetail), q.errDetail[0])
	}
	return q.res, nil
}

// WaitCtx is Wait, cancelling the query and waiting for its drain once ctx
// ends, as engine.Ticket.WaitCtx does. A query that drained cancelled (by
// ctx, Cancel or its deadline) rather than failing typed reports
// context.Canceled.
func (q *Query) WaitCtx(ctx context.Context) (*engine.Result, error) {
	select {
	case <-q.done:
	case <-ctx.Done():
		q.Cancel()
		<-q.done
	}
	res, err := q.Wait()
	if err == nil && res.Cancelled {
		err = context.Canceled
	}
	return res, err
}

// Cancel broadcasts cancellation; every worker flips the query into drain
// mode and still reports its (partial, monotone) master range.
func (q *Query) Cancel() {
	q.c.mu.Lock()
	conns := append([]*wconn(nil), q.c.workers...)
	q.c.mu.Unlock()
	for _, w := range conns {
		if w != nil {
			w.send(msg{Type: "cancel", QID: q.id})
		}
	}
}

// Close shuts the cluster down: stop the failure detector, broadcast
// shutdown, drop every control connection, stop accepting. In-flight queries
// should be drained first (workers drain cleanly anyway, but their results
// will have nowhere to go).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	conns := append([]*wconn(nil), c.workers...)
	c.mu.Unlock()

	close(c.hbStop)
	for _, w := range conns {
		if w != nil {
			w.send(msg{Type: "shutdown"})
		}
	}
	c.ln.Close()
	for _, w := range conns {
		if w != nil {
			w.conn.Close()
		}
	}
	c.wg.Wait()
	return nil
}
