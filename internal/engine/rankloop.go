package engine

import (
	"runtime"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// flowCell accumulates one tag's end-to-end record counts on one rank. Plain
// integers: FlowCounter callbacks run only on the owning rank's goroutine.
type flowCell struct{ sent, received uint64 }

// rankFlows is the tag-aware FlowCounter registered on the rank's shared
// mailbox. Cells outlive detector creation — a record can be delivered (and
// counted) before this rank has processed the query's start event — and the
// running query later syncs cell deltas into its detector.
type rankFlows struct {
	cells map[uint32]*flowCell
	// One-entry memo of the last cell looked up: the mailbox counts every
	// record, and records come in long runs of one tag (always, with one
	// query in flight), so the map is consulted once per run.
	lastTag uint32
	last    *flowCell
}

func newRankFlows() *rankFlows { return &rankFlows{cells: make(map[uint32]*flowCell)} }

func (f *rankFlows) cell(tag uint32) *flowCell {
	if f.last != nil && f.lastTag == tag {
		return f.last
	}
	c := f.cells[tag]
	if c == nil {
		c = &flowCell{}
		f.cells[tag] = c
	}
	f.lastTag, f.last = tag, c
	return c
}

// drop forgets a retired query's cell.
func (f *rankFlows) drop(tag uint32) {
	delete(f.cells, tag)
	if f.lastTag == tag {
		f.last = nil
	}
}

func (f *rankFlows) CountSent(tag uint32, n uint64)     { f.cell(tag).sent += n }
func (f *rankFlows) CountReceived(tag uint32, n uint64) { f.cell(tag).received += n }

// stepBatch bounds the visitors, or protocol steps, one query executes per
// rank-loop iteration: the granularity at which queries in flight interleave.
const stepBatch = 128

// runner is one query's execution on one rank, as the rank loop drives it:
// a run (runners.go), or a test's wrapper around one. The loop hands it the
// query's records, execution slices and drained pages, and pumps the query's
// detector with its LocalIdle; it never sees the detector.
type runner interface {
	Deliver(rec mailbox.Record)
	Step(batch int) bool
	// Unpark runs the visitors and rows parked on the given adjacency pages
	// (out-of-core mode; a no-op when nothing is parked).
	Unpark(pages []int64) bool
	// LocalIdle reports that the rank holds no work of the query: nothing
	// queued, parked or ready to step.
	LocalIdle() bool
	Cancel()
	// Stats returns the rank's counters for the query and gives the
	// registry their growth; the detector and mailbox fields are the loop's.
	Stats() core.Stats
	// Finish gathers this rank's master-range results into the shared query
	// object (disjoint writes) and accumulates cross-rank scalars through
	// atomics — never collectives, which would deadlock across queries
	// quiescing in different orders on different ranks.
	Finish()
}

// runningQuery is one in-flight query's rank-local execution state.
type runningQuery struct {
	q    *query
	run  runner
	det  *termination.Detector
	cell *flowCell
	// Counter values already synced into the detector.
	syncedS, syncedR uint64
}

// syncFlows feeds the cell's growth since the last sync into the detector.
func (rq *runningQuery) syncFlows() {
	if d := rq.cell.sent - rq.syncedS; d > 0 {
		rq.det.CountSent(d)
		rq.syncedS = rq.cell.sent
	}
	if d := rq.cell.received - rq.syncedR; d > 0 {
		rq.det.CountReceived(d)
		rq.syncedR = rq.cell.received
	}
}

// rankState is one rank's engine loop state. Strictly rank-confined.
type rankState struct {
	e     *Engine
	box   *mailbox.Box
	mux   *termination.Mux
	flows *rankFlows
	// pager is this rank's out-of-core fetch engine (nil = fully resident).
	pager core.RowPager
	// active maps query ID -> running query.
	active map[uint32]*runningQuery
	// pending buffers records whose query this rank has not started yet: a
	// fast rank can seed visitors (and the mailbox can deliver them here)
	// before this rank's control-log cursor reaches the start event.
	pending map[uint32][]mailbox.Record
	// dead holds force-aborted query IDs: stragglers for these tags (from
	// peers that had not aborted yet) are dropped at the demux instead of
	// parked in pending forever. IDs never recycle, so entries are permanent
	// tombstones, one per aborted query.
	dead   map[uint32]struct{}
	cursor int // control-log position
}

// rankLoop is the per-rank executor, the repository's only traversal loop
// (Algorithm 1, DO_TRAVERSAL): replay control events, poll the shared
// mailbox, demultiplex records to their queries, give every in-flight query
// a slice of visitor execution, and pump every query's termination detector.
// Exits after the shutdown event once no query is active on this rank.
func (e *Engine) rankLoop(r *rt.Rank) {
	topo, _ := mailbox.ByName(e.cfg.Topology, r.Size())
	flows := newRankFlows()
	boxOpts := append(e.opts.Core.MailboxOptions(), mailbox.WithFlows(flows))
	s := &rankState{
		e:       e,
		box:     mailbox.New(r, topo, nil, boxOpts...),
		mux:     termination.NewMux(r),
		flows:   flows,
		active:  make(map[uint32]*runningQuery),
		pending: make(map[uint32][]mailbox.Record),
		dead:    make(map[uint32]struct{}),
	}
	if e.cfg.Pagers != nil {
		s.pager = e.cfg.Pagers[r.Rank()]
	}
	localLo, _ := e.cfg.Machine.LocalRange()
	shutdown := false
	idleSpins := 0
	var finished []uint32 // reused scratch
	for {
		progress := false

		// Control events, in global log order.
		events := e.log.from(s.cursor)
		for _, ev := range events {
			s.cursor++
			progress = true
			switch ev.kind {
			case evStart:
				s.start(r, ev.q)
			case evCancel:
				if rq := s.active[ev.q.id]; rq != nil {
					rq.run.Cancel()
				}
				// Unknown ID: the query already quiesced here — nothing to
				// drain; the cancel verdict is recorded on the query object.
			case evAbort:
				// Forced retirement (process failure elsewhere in the
				// cluster): finish now, without waiting for detector
				// quiescence that can never arrive. The start event precedes
				// the abort in the log, so an absent ID means the query
				// already finished on this rank — only the tombstone is left.
				s.dead[ev.q.id] = struct{}{}
				delete(s.pending, ev.q.id)
				if rq := s.active[ev.q.id]; rq != nil {
					rq.run.Cancel()
					s.retire(r, ev.q.id, true)
				}
			case evShutdown:
				shutdown = true
			}
		}
		if len(events) > 0 {
			// Replayed: the log may drop what every local rank is past.
			e.log.cursors[r.Rank()-localLo].Store(int64(s.cursor))
		}

		// One execution slice per in-flight query. In out-of-core mode Step
		// parks visitors whose adjacency pages are absent (issuing demand
		// fetches) and keeps executing resident ones — latency hiding.
		for _, rq := range s.active {
			if rq.run.Step(stepBatch) {
				progress = true
			}
		}

		// Completed page fetches: run the visitors waiting on them, for every
		// active query (the pager dedups fetches across queries parked on the
		// same page). Drained after Step so a page that completed mid-Step is
		// picked up in the same iteration — parked visitors always see their
		// completion in a Drain at or after their park, so no unpark signal
		// is ever lost. The batch's pages are pinned from fetch to Release,
		// so Unpark's visitors execute against resident data; Release then
		// lets the fetch workers (stalled once enough completions pile up
		// unconsumed) refill the window.
		if s.pager != nil {
			if pages := s.pager.Drain(); len(pages) > 0 {
				progress = true
				for _, rq := range s.active {
					rq.run.Unpark(pages)
				}
				s.pager.Release(pages)
			}
		}

		// Shared mailbox poll, demultiplexed by record tag. No in-tree runner
		// sends to its own rank any more: a visitor queue applies a push for
		// a vertex the rank masters inside core.Queue.Push (nothing in
		// flight, LocalIdle false before Push returns), and
		// direction-optimizing BFS merges its own contribution directly. The
		// box keeps its loopback path for callers that drive it themselves,
		// and a runner that used it from Step would depend on the poll coming
		// AFTER the execution slices: a loopback record is counted received
		// the moment the mailbox parks it, so its query must not report local
		// idleness before this poll has handed the record over, and nothing
		// below creates new local deliveries before the detectors pump.
		//
		// A Poll returns one bounded, cache-sized epoch; the loop polls until
		// the backlog is gone, so everything that had arrived when the first
		// Poll ran is applied before the next Step. Interleaving epochs with
		// execution slices instead pushes more visitors: a later, better
		// visitor for a hub arrives after the hub was already expanded.
		var lastTag uint32 // one-entry memo of the demux, as in rankFlows.cell
		var last *runningQuery
		for more := true; more; more = s.box.Backlog() {
			for _, rec := range s.box.Poll() {
				progress = true
				if last == nil || rec.Tag != lastTag {
					lastTag, last = rec.Tag, s.active[rec.Tag]
				}
				if last != nil {
					last.run.Deliver(rec)
				} else if _, gone := s.dead[rec.Tag]; gone {
					// Straggler for a force-aborted query (a surviving peer
					// kept sending until its own abort landed): drop it. The
					// flow ledger of an aborted query is void by construction.
					continue
				} else {
					// Start event not replayed yet (quiesced queries cannot
					// receive: their S==R drained before ID retirement).
					// Parking retains the record past this poll epoch, so the
					// payload — an arena sub-slice the mailbox reclaims at
					// its next Poll — must be copied out first (see
					// mailbox.Record).
					rec.Payload = append([]byte(nil), rec.Payload...)
					s.pending[rec.Tag] = append(s.pending[rec.Tag], rec)
				}
			}
		}

		// Out of immediate work: flush partial aggregation buffers so parked
		// records (any query's) cannot stall termination. Safe at any time —
		// parked records hold S > R for their query until delivered, so
		// flushing is pure liveness.
		if !progress {
			s.box.FlushAll()
		}

		// Termination detection, per query (§V, global_empty): the loop's,
		// not the runner's, which only reports whether it is locally idle.
		finished = finished[:0]
		for id, rq := range s.active {
			rq.syncFlows()
			if rq.det.Pump(rq.run.LocalIdle()) {
				finished = append(finished, id)
			}
		}
		for _, id := range finished {
			progress = true
			s.finish(r, id)
		}

		if shutdown && len(s.active) == 0 {
			s.box.Close()
			return
		}
		if progress {
			idleSpins = 0
			continue
		}
		idleSpins++
		if idleSpins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// start brings a query live on this rank: mint its detector instance, build
// its runner (which seeds the query), and drain any records that arrived
// ahead of the start event.
func (s *rankState) start(r *rt.Rank, q *query) {
	rq := &runningQuery{
		q:    q,
		det:  s.mux.Detector(q.id),
		cell: s.flows.cell(q.id),
	}
	env := &runEnv{r: r, part: s.e.cfg.Parts[r.Rank()], pager: s.pager, box: s.box, q: q}
	if s.e.cfg.Ghosts != nil {
		env.ghosts = s.e.cfg.Ghosts[r.Rank()]
	}
	rq.run = q.algo.run(env)
	s.active[q.id] = rq
	if recs := s.pending[q.id]; len(recs) > 0 {
		delete(s.pending, q.id)
		for _, rec := range recs {
			rq.run.Deliver(rec)
		}
	}
}

// finish retires a quiesced query on this rank: record its counters, gather
// results, release the detector's control-plane slice, and — on the
// machine's last rank to get here — complete the query engine-side. No
// end-of-query barrier is needed: record tags make misattribution impossible,
// so ranks retire independently.
func (s *rankState) finish(r *rt.Rank, id uint32) { s.retire(r, id, false) }

// retire is finish with an optional forced mode for aborts. Forced retirement
// skips none of the result gathering — Finish depends only on rank-local
// monotone state, not on quiescence — but tombstones the detector instance
// (Mux.Retire) instead of releasing it, because surviving ranks may still
// emit waves for the id.
func (s *rankState) retire(r *rt.Rank, id uint32, forced bool) {
	rq := s.active[id]
	delete(s.active, id)
	st := rq.run.Stats()
	if !forced {
		// Detection completed: the detector's S and R are the query's
		// in-flight ledger at quiescence, which check.Traversal holds to the
		// mailbox's.
		st.DetectorWaves = rq.det.Waves
		st.DetectorSent, st.DetectorReceived = rq.det.Sent(), rq.det.Received()
	}
	// The box is the rank's, shared by every query in flight; the tag's flow
	// cell is this query's (see Ticket.Stats).
	st.Mailbox = s.box.Stats()
	st.Mailbox.RecordsSent, st.Mailbox.RecordsDelivered = rq.cell.sent, rq.cell.received
	rq.q.stats[r.Rank()] = st
	s.flows.drop(id)
	if r.Rank() == 0 {
		rq.q.res.Waves = st.DetectorWaves
	}
	// Finish runs even when cancelled: the algorithm's per-vertex state is
	// monotone (levels/distances/labels only improve), so gathering the
	// partial state over disjoint master ranges yields a consistent coarse
	// checkpoint that a resubmitted query can resume from (Spec.Resume).
	rq.run.Finish()
	if forced {
		s.mux.Retire(id)
	} else {
		s.mux.Release(id)
	}
	delete(s.pending, id)
	if int(rq.q.ranksDone.Add(1)) == s.e.localRanks {
		s.e.completeQuery(rq.q)
	}
}
