package engine

import (
	"fmt"

	"havoqgt/internal/termination"
)

// SubmitRemote admits a query under a coordinator-assigned ID, bypassing local
// admission control. Cluster workers need both properties:
//
//   - The ID is the mailbox record tag and the termination-mux slot, and both
//     travel across the fabric — every process must run the same query under
//     the same ID, so the coordinator allocates IDs and workers accept them.
//
//   - Worker-local queueing would deadlock the cluster: a rank that has not
//     replayed a query's start event parks that query's termination waves in
//     its Mux, so if worker A queues a query that worker B already started,
//     B's ranks spin inside the query's detector forever while A waits for a
//     free slot that B's stalled queries are holding. Admission therefore
//     happens exactly once, globally, at the coordinator; workers start every
//     accepted query unconditionally.
//
// No deadline timer is armed here either — the coordinator owns the deadline
// and broadcasts an explicit cancel, so all workers flip to drain mode off the
// same control decision instead of racing local clocks.
func (e *Engine) SubmitRemote(id uint32, spec Spec) (*Ticket, error) {
	a, err := resolve(spec, e.n)
	if err != nil {
		return nil, err
	}
	if id == 0 || uint64(id) > uint64(termination.MaxID) {
		return nil, fmt.Errorf("engine: remote query id %d out of range [1, %d]", id, termination.MaxID)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	q := e.newQuery(id, a, spec)
	e.outstanding++
	e.inflight++
	e.obsSubmitted.Inc()
	e.obsInFlight.Set(int64(e.inflight))
	e.log.append(ctlEvent{kind: evStart, q: q})
	e.mu.Unlock()
	return &Ticket{e: e, q: q}, nil
}
