// Package engine is the executor: the one rank loop (the paper's
// DO_TRAVERSAL, Algorithm 1) every traversal in this repository runs on,
// multiplexing many concurrent graph traversals over one resident
// partitioned graph. A one-shot traversal is a transient engine with one
// query (RunOnce).
//
// The paper's framework answers one query at a time: build the graph once,
// then run each traversal as a collective phase across the whole machine. A
// query-serving deployment inverts the workload — the graph stays resident
// and queries arrive continuously — so serializing traversals wastes exactly
// the resource the asynchronous design exists to exploit: the idle gaps
// where a rank waits on in-flight visitors or termination waves of a single
// traversal. The engine interleaves many traversals over the shared message
// plane so one query's latency gaps are filled with another query's visitor
// work.
//
// Mechanics. Every visitor record is stamped with a compact query ID in the
// mailbox record header (mailbox.SendTagged); each rank runs one long-lived
// loop that polls the single shared mailbox and demultiplexes delivered
// records into per-query visitor queues (core.NewQueue). Termination is
// detected per query: each in-flight query gets its own four-counter detector
// instance, and the rank's termination.Mux, registered as the shared
// mailbox's flow counter, counts each tagged record straight into its
// query's instance, so the S/R conservation argument of §V holds
// independently per query ID. No collectives run on engine paths — queries
// quiesce in different orders on different ranks, so cross-rank aggregates
// (component counts, core sizes) accumulate through atomics on the shared
// query object instead of AllReduce.
//
// Lifecycle. Submit admits a query if an in-flight slot is free, parks it in
// a bounded wait queue otherwise, and rejects with ErrRejected beyond that —
// the backpressure signal a serving front end needs. Cancellation (explicit
// or by deadline) flips the query's rank-local queues into drain mode: tagged
// records still in flight are received and counted but not applied, so the
// query runs to ordinary quiescence and retires its ID with no stranded
// records anywhere in the message plane. Close stops admission, waits for
// every outstanding query, then shuts the rank loops down.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// Admission and shutdown errors. ErrRejected is the distinct backpressure
// signal: the wait queue is full and the caller should retry later or shed
// load.
var (
	ErrRejected = errors.New("engine: admission rejected: wait queue full")
	ErrClosed   = errors.New("engine: closed")
)

// ErrNotResumable rejects Spec.Resume for algorithms whose rank state is not
// a monotone per-vertex lower bound (see Algo.Resumable). It is a typed
// sentinel so retry ladders can distinguish "this query can never resume"
// (fall back to a fresh start) from transient admission errors.
var ErrNotResumable = errors.New("engine: algorithm is not resumable")

// Algo selects the traversal a query runs.
type Algo string

// Supported query algorithms, one table entry each (algos.go).
const (
	AlgoBFS       Algo = "bfs"
	AlgoSSSP      Algo = "sssp"
	AlgoCC        Algo = "cc"
	AlgoKCore     Algo = "kcore"
	AlgoBFSDO     Algo = "bfs_do"    // direction-optimizing BFS (levels identical to bfs)
	AlgoPageRank  Algo = "pagerank"  // fixed-point PageRank (Spec.Iters)
	AlgoTriangles Algo = "triangles" // exact triangle count
)

// Spec describes one query.
type Spec struct {
	Algo       Algo
	Source     graph.Vertex // bfs, bfs_do, sssp
	WeightSeed uint64       // sssp
	K          uint32       // kcore (>= 1)
	Iters      uint32       // pagerank (0 = pagerank.DefaultIters, capped at MaxIters)
	// SampleProb, for triangles, counts a Bernoulli wedge sample instead of
	// every wedge: 0 is exact, otherwise it must lie in (0, 1) and
	// Result.Triangles is the sampled count (divide by SampleProb for the
	// estimate). SampleSeed keys the wedge hash.
	SampleProb float64
	SampleSeed uint64
	Deadline   time.Duration // 0 = none; expiry cancels the query
	// Resume, if non-nil, seeds the query from a checkpoint taken off an
	// earlier cancelled run of the same traversal (same algo, and the same
	// values of the fields it reads) instead of from scratch. Only
	// algorithms with Algo.Resumable may resume. See Ticket.Checkpoint.
	Resume *Checkpoint
}

// Checkpoint is a coarse query checkpoint: the partial per-vertex state a
// cancelled query had reached when it drained. Only algorithms with the
// Algo.Resumable capability produce one — their monotone per-vertex values
// make any partial gather a consistent lower bound of work already done, and
// a resumed query re-seeds its frontier from it rather than from the source
// alone.
type Checkpoint struct {
	Spec Spec    // the originating query's spec (Resume cleared)
	Res  *Result // partial result arrays; Cancelled is true
}

// ResumeSpec returns a Spec that resumes the checkpointed traversal, with the
// given deadline for the new attempt.
func (cp *Checkpoint) ResumeSpec(deadline time.Duration) Spec {
	spec := cp.Spec
	spec.Deadline = deadline
	spec.Resume = cp
	return spec
}

// Result is one completed query's output. Only the fields of the query's
// algorithm are populated. If Cancelled is true the per-vertex arrays are
// partial — every rank gathered the monotone state it had reached when it
// stopped applying visitors — and must not be interpreted as a finished
// traversal; they are, however, a valid checkpoint (see Ticket.Checkpoint),
// because levels/distances/labels only ever improve toward the fixpoint.
type Result struct {
	// BFS.
	Levels []uint32 // bfs.Unreached where not reached

	// SSSP.
	Dist []uint64 // sssp.Unreached where not reached

	// BFS and SSSP.
	Parents []graph.Vertex

	// Connected components.
	Labels     []graph.Vertex
	Components uint64

	// K-core.
	InCore   []bool
	CoreSize uint64

	// PageRank: per-vertex fixed-point ranks (scaled by ref.PRScale).
	Ranks []uint64

	// Triangle counting: the exact count, or the sampled count under
	// Spec.SampleProb.
	Triangles uint64

	Cancelled bool
	// Waves is the number of termination-detection waves the query's root
	// detector completed.
	Waves uint64
}

// Options tune the engine.
type Options struct {
	// MaxInFlight bounds concurrently executing traversals (default 8).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an in-flight slot (default 64).
	MaxQueue int
	// Core configures every rank's shared mailbox (aggregation threshold,
	// reliable delivery).
	Core core.Config
}

func (o Options) normalized() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	return o
}

// Config binds an engine to a built machine and its partitioned graph.
type Config struct {
	Machine *rt.Machine
	Parts   []*partition.Part
	Ghosts  []*core.GhostTable // per rank; nil (or nil entries) disables ghost filtering
	// Topology names the shared mailbox routing ("1d" default, "2d", "3d").
	Topology string
	// Pagers, when non-nil, marks the partitions' CSR targets as out-of-core
	// (one entry per rank, indexed like Parts; internal/ooc builds them).
	// Rank loops then park visits on missing adjacency pages, drain fetch
	// completions, and unpark — the latency-hiding serving mode. A nil entry
	// serves that rank fully resident.
	Pagers []core.RowPager
}

// RowPagers turns a machine's concrete pagers (ooc.Stores.Pagers) into
// Config.Pagers, nil for none. ooc satisfies core.RowPager structurally
// without importing core, so this is the one place the conversion lives.
// Every entry must be non-nil: a typed-nil pager in a core.RowPager slot
// would defeat the rank loop's nil check.
func RowPagers[P core.RowPager](pagers []P) []core.RowPager {
	var out []core.RowPager
	for _, p := range pagers {
		out = append(out, p)
	}
	return out
}

// ctlKind discriminates control-log events.
type ctlKind uint8

const (
	evStart ctlKind = iota
	evCancel
	evAbort
	evShutdown
)

// ctlEvent is one entry of the engine's control log — the only
// channel from the submitting side into the rank goroutines. Ranks replay
// the log in order through private cursors, which gives every rank the same
// totally ordered view of query admission, cancellation, and shutdown
// without any collective operation.
type ctlEvent struct {
	kind ctlKind
	q    *query // evStart, evCancel; nil for evShutdown
}

// ctlLog is the shared event log. Appends happen under the exclusive lock and
// then publish the new length with an atomic store; rank loops spin on the
// atomic (no lock) and take the read lock only when the published length
// passed their cursor. Entries below the published length are immutable.
//
// The log is append-only in its indices, not in its memory: every locally
// hosted rank publishes how far it has replayed, and append drops the prefix
// all of them are past. An event holds its *query — result arrays included —
// so an untrimmed log would keep every retired query alive until Close.
type ctlLog struct {
	mu      sync.RWMutex
	base    int        // log index of events[0]: everything below was dropped
	events  []ctlEvent // the retained suffix
	length  atomic.Uint64
	cursors []atomic.Int64 // per locally hosted rank: events replayed so far
}

func (l *ctlLog) append(ev ctlEvent) {
	l.mu.Lock()
	replayed := int(l.cursors[0].Load()) // by every local rank
	for i := 1; i < len(l.cursors); i++ {
		replayed = min(replayed, int(l.cursors[i].Load()))
	}
	if replayed > l.base {
		// Copy down rather than reslice, so the dropped events' queries are
		// not retained by the backing array either.
		n := copy(l.events, l.events[replayed-l.base:])
		clear(l.events[n:])
		l.events = l.events[:n]
		l.base = replayed
	}
	l.events = append(l.events, ev)
	l.length.Store(uint64(l.base + len(l.events)))
	l.mu.Unlock()
}

// from returns a copy of the events at log index >= cursor. The cursor is the
// calling rank's, so it is never below base: base only advances to the minimum
// of the published cursors, and a rank publishes after it replays.
func (l *ctlLog) from(cursor int) []ctlEvent {
	if l.length.Load() <= uint64(cursor) {
		return nil
	}
	l.mu.RLock()
	out := append([]ctlEvent(nil), l.events[cursor-l.base:]...)
	l.mu.RUnlock()
	return out
}

// query is the shared per-query object. Ranks write disjoint master ranges
// of the Result arrays and accumulate cross-rank scalars through atomics;
// the final rank to quiesce closes done, which publishes every earlier write
// to waiters.
type query struct {
	id        uint32
	spec      Spec
	algo      *algo // the spec's table entry, resolved once at submission
	res       *Result
	stats     []core.Stats // per rank, each written by its own rank pre-done
	accum     atomic.Uint64
	cancelled atomic.Bool
	cause     atomic.Int32 // why cancelled: causeExplicit, causeDeadline, causeAborted
	waiting   bool         // guarded by Engine.mu: parked in the wait queue
	aborted   bool         // guarded by Engine.mu: evAbort already appended
	ranksDone atomic.Int32
	done      chan struct{}
	submitted time.Time
	deadline  *time.Timer
}

// Cancellation causes, recorded once per query under Engine.mu by the first
// effective cancel and mapped to context errors by Ticket.Err.
const (
	causeNone int32 = iota
	causeExplicit
	causeDeadline
	causeAborted
)

// Ticket is the caller's handle on a submitted query.
type Ticket struct {
	e *Engine
	q *query
}

// ID returns the query's compact tag (unique per engine lifetime).
func (t *Ticket) ID() uint32 { return t.q.id }

// Done is closed when the query has completed (or been cancelled) on every
// rank.
func (t *Ticket) Done() <-chan struct{} { return t.q.done }

// Wait blocks until completion and returns the result.
func (t *Ticket) Wait() *Result {
	<-t.q.done
	return t.q.res
}

// Err reports how the query ended: nil for a clean completion (or a query
// still running), context.Canceled after an explicit Cancel, and
// context.DeadlineExceeded after the spec deadline (or a WaitCtx deadline)
// expired. The context sentinels make the engine's cancellation legible to
// standard error handling (errors.Is) without an engine-specific taxonomy.
func (t *Ticket) Err() error {
	switch t.q.cause.Load() {
	case causeExplicit, causeAborted:
		return context.Canceled
	case causeDeadline:
		return context.DeadlineExceeded
	}
	return nil
}

// WaitCtx waits for the query, cancelling it if ctx ends first. Unlike a bare
// select on Done, it does not abandon the query on ctx expiry: cancellation
// flips the query into drain mode and WaitCtx waits for that drain to finish
// (bounded by quiescence, not by the traversal), so the returned Result —
// partial on cancellation — is fully published and checkpointable. The error
// is Err()'s verdict: nil, context.Canceled, or context.DeadlineExceeded.
func (t *Ticket) WaitCtx(ctx context.Context) (*Result, error) {
	select {
	case <-t.q.done:
	case <-ctx.Done():
		cause := causeExplicit
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			cause = causeDeadline
		}
		t.cancel(cause)
		<-t.q.done
	}
	return t.q.res, t.Err()
}

// Checkpoint returns the cancelled query's partial state for resumption, or
// nil if the query completed cleanly (nothing to resume), has not finished
// draining yet, or ran an algorithm without the resume capability (see
// Algo.Resumable).
func (t *Ticket) Checkpoint() *Checkpoint {
	select {
	case <-t.q.done:
	default:
		return nil
	}
	if !t.q.res.Cancelled || !t.q.algo.resumes {
		return nil
	}
	spec := t.q.spec
	spec.Resume = nil
	spec.Deadline = 0
	return &Checkpoint{Spec: spec, Res: t.q.res}
}

// RetrySpec returns the spec that retries this finished, cancelled query:
// resumed from its checkpoint for a resumable algorithm (Algo.Resumable),
// from scratch otherwise, with deadline d, or twice this attempt's when d is
// zero — so a caller retrying in a loop gets a geometrically growing budget.
func (t *Ticket) RetrySpec(d time.Duration) Spec {
	if d == 0 {
		d = 2 * t.q.spec.Deadline
	}
	if cp := t.Checkpoint(); cp != nil {
		return cp.ResumeSpec(d)
	}
	spec := t.q.spec
	spec.Resume, spec.Deadline = nil, d
	return spec
}

// Stats returns the query's per-rank counters as each rank recorded them when
// it retired the query; valid only after Done, and all zero for a query that
// never started. Mailbox is that rank's shared-mailbox snapshot — the whole
// box, so its envelope, hop and pool counters are the query's own only when
// it ran alone on a fresh engine (RunOnce) — except RecordsSent and
// RecordsDelivered, which are always the query's own tagged record counts:
// its termination detector's S and R on that rank.
func (t *Ticket) Stats() []core.Stats { return t.q.stats }

// Cancel stops the query: an in-flight query drains its remaining tagged
// records without applying them and still quiesces cleanly; a waiting query
// completes immediately without starting. Cancelling a completed query is a
// no-op. Note a cancel racing completion may mark a fully computed result
// Cancelled.
func (t *Ticket) Cancel() { t.cancel(causeExplicit) }

// cancel is Cancel with an attributed cause. Only the first effective cancel
// records its cause (later ones are no-ops), so Err is stable once set.
func (t *Ticket) cancel(cause int32) {
	e, q := t.e, t.q
	e.mu.Lock()
	select {
	case <-q.done:
		e.mu.Unlock()
		return
	default:
	}
	if q.cancelled.Swap(true) {
		e.mu.Unlock()
		return
	}
	q.cause.Store(cause)
	e.obsCancelled.Inc()
	if cause == causeDeadline {
		e.obsDeadline.Inc()
	}
	if q.waiting {
		e.unwait(q)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	e.log.append(ctlEvent{kind: evCancel, q: q})
}

// unwait removes a query that never started from the wait queue and completes
// it in place. slices.Delete zeroes the vacated tail element, so the backing
// array keeps no retired query alive. Called with e.mu held.
func (e *Engine) unwait(q *query) {
	if i := slices.Index(e.waitq, q); i >= 0 {
		e.waitq = slices.Delete(e.waitq, i, i+1)
	}
	q.waiting = false
	e.obsWaiting.Set(int64(len(e.waitq)))
	e.finishLocked(q)
}

// Abort forcibly retires the query on every local rank without waiting for
// global quiescence. Cancel drains cooperatively: in-flight records are still
// received (conservation) and termination waves still cross every rank of the
// machine — exactly what cannot happen once a remote worker of a cluster
// machine is dead. Abort is the process-failure hook: it marks the query
// cancelled, force-finishes it on each local rank (gathering the monotone
// partial state, same as a drained cancel), and retires its mailbox tag and
// detector instance so stragglers from dead or surviving peers are dropped
// instead of parked forever. The flow-conservation ledger for an aborted
// query is void by construction. Aborting a waiting or completed query
// behaves like Cancel; Err reports context.Canceled.
func (t *Ticket) Abort() {
	e, q := t.e, t.q
	e.mu.Lock()
	select {
	case <-q.done:
		e.mu.Unlock()
		return
	default:
	}
	if !q.cancelled.Swap(true) {
		q.cause.Store(causeAborted)
		e.obsCancelled.Inc()
	}
	if q.waiting {
		e.unwait(q)
		e.mu.Unlock()
		return
	}
	if q.aborted {
		// A second Abort (or one racing a Cancel already escalated) must not
		// double-append: ranks count completions once per query.
		e.mu.Unlock()
		return
	}
	q.aborted = true
	e.mu.Unlock()
	e.log.append(ctlEvent{kind: evAbort, q: q})
}

// Engine executes queries over one resident graph. Start it with Start;
// submit from any goroutine.
type Engine struct {
	cfg  Config
	opts Options
	n    uint64 // vertices
	p    int    // ranks (global: the whole cluster on a cluster machine)
	// localRanks is how many ranks this process hosts (== p in-process). A
	// query completes HERE when its ranksDone reaches localRanks; on a
	// cluster worker the coordinator aggregates per-process completions.
	localRanks int

	mu          sync.Mutex
	closed      bool
	nextID      uint32
	inflight    int
	waitq       []*query
	outstanding int           // admitted or waiting, not yet done
	drained     chan struct{} // closed when closed && outstanding == 0

	log     ctlLog
	runDone chan struct{} // rank loops exited

	obsSubmitted *obs.Counter
	obsCompleted *obs.Counter
	obsCancelled *obs.Counter
	obsRejected  *obs.Counter
	obsInFlight  *obs.Gauge
	obsWaiting   *obs.Gauge
	obsLatency   *obs.Histogram
	obsDeadline  *obs.Counter
	obsResumed   *obs.Counter
}

// Start launches the engine's rank loops on the machine. The machine must be
// otherwise idle (no concurrent Run) until Close returns.
func Start(cfg Config, opts Options) (*Engine, error) {
	if cfg.Machine == nil || len(cfg.Parts) != cfg.Machine.Size() {
		return nil, errors.New("engine: config needs a machine and one part per rank")
	}
	// On a cluster machine only the locally hosted ranks carry partitions;
	// remote slots stay nil. Every local rank must have one.
	lo, hi := cfg.Machine.LocalRange()
	for r := lo; r < hi; r++ {
		if cfg.Parts[r] == nil {
			return nil, fmt.Errorf("engine: config missing the partition for local rank %d", r)
		}
	}
	if cfg.Ghosts != nil && len(cfg.Ghosts) != cfg.Machine.Size() {
		return nil, errors.New("engine: config needs one ghost-table slot per rank (nil entries allowed)")
	}
	if cfg.Pagers != nil && len(cfg.Pagers) != cfg.Machine.Size() {
		return nil, errors.New("engine: config needs one pager slot per rank (nil entries allowed)")
	}
	if cfg.Topology == "" {
		cfg.Topology = "1d"
	}
	if _, err := mailbox.ByName(cfg.Topology, cfg.Machine.Size()); err != nil {
		return nil, err
	}
	reg := cfg.Machine.Obs()
	e := &Engine{
		cfg:          cfg,
		opts:         opts.normalized(),
		n:            cfg.Parts[lo].NumVertices,
		p:            cfg.Machine.Size(),
		localRanks:   cfg.Machine.LocalSize(),
		nextID:       1, // tag 0 is mailbox.Send's untagged record
		drained:      make(chan struct{}),
		runDone:      make(chan struct{}),
		obsSubmitted: reg.Counter(obs.EngineSubmitted),
		obsCompleted: reg.Counter(obs.EngineCompleted),
		obsCancelled: reg.Counter(obs.EngineCancelled),
		obsRejected:  reg.Counter(obs.EngineRejected),
		obsInFlight:  reg.Gauge(obs.EngineInFlight),
		obsWaiting:   reg.Gauge(obs.EngineWaiting),
		obsLatency:   reg.Histogram(obs.EngineQueryNS),
		obsDeadline:  reg.Counter(obs.EngineDeadlineExpired),
		obsResumed:   reg.Counter(obs.EngineResumed),
	}
	e.log.cursors = make([]atomic.Int64, e.localRanks)
	go func() {
		defer close(e.runDone)
		e.cfg.Machine.Run(e.rankLoop)
	}()
	return e, nil
}

// NumVertices returns the resident graph's vertex count.
func (e *Engine) NumVertices() uint64 { return e.n }

// Obs returns the machine's metrics registry (for /stats endpoints).
func (e *Engine) Obs() *obs.Registry { return e.cfg.Machine.Obs() }

// Submit admits, queues, or rejects a query. A non-nil Ticket is returned
// exactly when err is nil.
func (e *Engine) Submit(spec Spec) (*Ticket, error) {
	a, err := resolve(spec, e.n)
	if err != nil {
		return nil, err
	}
	return e.admit(a, spec)
}

// newQuery allocates the shared per-query object.
func (e *Engine) newQuery(id uint32, a *algo, spec Spec) *query {
	return &query{
		id:        id,
		spec:      spec,
		algo:      a,
		res:       a.newResult(e.n),
		stats:     make([]core.Stats, e.p),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
}

// admit is Submit past validation, with the spec's resolved entry.
func (e *Engine) admit(a *algo, spec Spec) (*Ticket, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if uint64(e.nextID) > uint64(termination.MaxID) {
		e.mu.Unlock()
		return nil, errors.New("engine: query id space exhausted")
	}
	if e.inflight >= e.opts.MaxInFlight && len(e.waitq) >= e.opts.MaxQueue {
		e.obsRejected.Inc()
		e.mu.Unlock()
		return nil, ErrRejected
	}
	q := e.newQuery(e.nextID, a, spec)
	e.nextID++
	e.outstanding++
	e.obsSubmitted.Inc()
	if spec.Resume != nil {
		e.obsResumed.Inc()
	}
	t := &Ticket{e: e, q: q}
	if spec.Deadline > 0 {
		// Arm the timer before the start event is visible to any rank: a
		// fast query may complete (and stop the timer) the moment the event
		// publishes. AfterFunc fires asynchronously, so cancel's own lock
		// acquisition cannot deadlock here.
		q.deadline = time.AfterFunc(spec.Deadline, func() { t.cancel(causeDeadline) })
	}
	if e.inflight < e.opts.MaxInFlight {
		e.inflight++
		e.obsInFlight.Set(int64(e.inflight))
		e.log.append(ctlEvent{kind: evStart, q: q})
	} else {
		q.waiting = true
		e.waitq = append(e.waitq, q)
		e.obsWaiting.Set(int64(len(e.waitq)))
	}
	e.mu.Unlock()
	return t, nil
}

// RunOnce runs one query on a transient engine — Start, Submit, Wait, Close —
// and returns its result with the per-rank counters (Ticket.Stats; the engine
// was the query's alone, so every counter is the query's). This is what a
// one-shot traversal is: the same rank loop, alive for one query. The machine
// must be otherwise idle until RunOnce returns. A spec deadline that expires
// returns the partial result with context.DeadlineExceeded.
func RunOnce(cfg Config, opts Options, spec Spec) (*Result, []core.Stats, error) {
	e, err := Start(cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	t, err := e.Submit(spec)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	res := t.Wait()
	if err := e.Close(); err != nil {
		return nil, nil, err
	}
	return res, t.Stats(), t.Err()
}

// completeQuery runs on the last rank to quiesce a started query: publish
// scalar aggregates, close done, release the slot, and admit the next waiter.
func (e *Engine) completeQuery(q *query) {
	q.res.Cancelled = q.cancelled.Load()
	if total := q.algo.total; total != nil {
		*total(q.res) = q.accum.Load()
	}
	e.mu.Lock()
	e.inflight--
	e.obsInFlight.Set(int64(e.inflight))
	e.admitLocked()
	e.finishLocked(q)
	e.mu.Unlock()
}

// finishLocked retires a query (started or not): latency accounting, done
// close, drained signalling. Caller holds e.mu.
func (e *Engine) finishLocked(q *query) {
	if q.deadline != nil {
		q.deadline.Stop()
	}
	e.obsLatency.Observe(uint64(time.Since(q.submitted)))
	if q.cancelled.Load() {
		q.res.Cancelled = true
	} else {
		e.obsCompleted.Inc()
	}
	close(q.done)
	e.outstanding--
	if e.closed && e.outstanding == 0 {
		close(e.drained)
	}
}

// admitLocked starts the next waiting query if a slot is free. Caller holds
// e.mu.
func (e *Engine) admitLocked() {
	for e.inflight < e.opts.MaxInFlight && len(e.waitq) > 0 {
		q := e.waitq[0]
		e.waitq[0] = nil // the backing array must not keep a retired query alive
		e.waitq = e.waitq[1:]
		q.waiting = false
		e.obsWaiting.Set(int64(len(e.waitq)))
		e.inflight++
		e.obsInFlight.Set(int64(e.inflight))
		e.log.append(ctlEvent{kind: evStart, q: q})
		return
	}
	e.obsWaiting.Set(int64(len(e.waitq)))
}

// Close stops admission, waits for every outstanding query to finish, then
// shuts the rank loops down. Safe to call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	first := !e.closed
	if first {
		e.closed = true
		if e.outstanding == 0 {
			close(e.drained)
		}
	}
	e.mu.Unlock()
	<-e.drained
	if first {
		e.log.append(ctlEvent{kind: evShutdown})
	}
	<-e.runDone
	return nil
}
