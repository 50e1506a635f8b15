package engine

import (
	"runtime"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

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
	q   *query
	run runner
	det *termination.Detector
}

// rankState is one rank's engine loop state. Strictly rank-confined.
type rankState struct {
	e   *Engine
	box *mailbox.Box
	// mux is the rank's control plane and the box's flow counter: it counts
	// every record straight into its query's detector.
	mux *termination.Mux
	// pager is this rank's out-of-core fetch engine (nil = fully resident).
	pager core.RowPager
	// active maps query ID -> running query.
	active map[uint32]*runningQuery
	// pending buffers records whose query this rank has not started yet: a
	// fast rank can seed visitors (and the mailbox can deliver them here)
	// before this rank's control-log cursor reaches the start event.
	pending map[uint32][]mailbox.Record
	cursor  int // control-log position
}

// rankLoop is the per-rank executor, the repository's only traversal loop
// (Algorithm 1, DO_TRAVERSAL): replay control events, poll the shared
// mailbox, demultiplex records to their queries, give every in-flight query
// a slice of visitor execution, and pump every query's termination detector.
// Exits after the shutdown event once no query is active on this rank.
func (e *Engine) rankLoop(r *rt.Rank) {
	topo, _ := mailbox.ByName(e.cfg.Topology, r.Size())
	mux := termination.NewMux(r)
	boxOpts := append(e.opts.Core.MailboxOptions(), mailbox.WithFlows(mux))
	s := &rankState{
		e:       e,
		box:     mailbox.New(r, topo, nil, boxOpts...),
		mux:     mux,
		active:  make(map[uint32]*runningQuery),
		pending: make(map[uint32][]mailbox.Record),
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
				// Stragglers for a retired ID (from peers that had not
				// aborted yet) are dropped at the demux instead of parked
				// in pending forever.
				if rq := s.active[ev.q.id]; rq != nil {
					rq.run.Cancel()
					s.retire(r, ev.q.id, true)
				}
				s.mux.Retire(ev.q.id)
				delete(s.pending, ev.q.id)
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
		var lastTag uint32 // one-entry memo of the demux, as in termination.Mux
		var last *runningQuery
		for more := true; more; more = s.box.Backlog() {
			for _, rec := range s.box.Poll() {
				progress = true
				if last == nil || rec.Tag != lastTag {
					lastTag, last = rec.Tag, s.active[rec.Tag]
				}
				if last != nil {
					last.run.Deliver(rec)
				} else if s.mux.Retired(rec.Tag) {
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
	rq := &runningQuery{q: q, det: s.mux.Detector(q.id)}
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
		st.DetectorWaves = rq.det.Waves
	}
	// The box is the rank's, shared by every query in flight; the records
	// are the query's own, its detector's S and R (see Ticket.Stats).
	st.Mailbox = s.box.Stats()
	st.Mailbox.RecordsSent, st.Mailbox.RecordsDelivered = rq.det.Sent(), rq.det.Received()
	rq.q.stats[r.Rank()] = st
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
