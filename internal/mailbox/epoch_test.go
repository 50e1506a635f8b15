package mailbox_test

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"havoqgt/internal/check"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
)

// TestPollEpochBounded: seven ranks send rank 0 more than five delivery
// epochs' worth of records while it does not poll, on the raw and on the
// reliable path. Rank 0 then polls one epoch per lockstep round. Every epoch
// is bounded (the bound plus at most one envelope's records), per-sender
// order survives the backlog, the conservation laws hold at every
// poll-then-barrier point with the backlog counted as pending (and its
// envelopes as received), the box is not idle while a backlog remains, and
// the delivery arena never grows past what one epoch needs.
func TestPollEpochBounded(t *testing.T) {
	const (
		p           = 8
		payload     = 20                                                        // a BFS visitor
		perEnvelope = (mailbox.DefaultFlushBytes-mailbox.RunHeader)/payload + 1 // records in one shipped envelope (one run)
		perSender   = 5*mailbox.PollEpochRecords/(p-1) + 1                      // so the total exceeds five epochs
		total       = (p - 1) * perSender                                       // records rank 0 is owed
		maxEpoch    = mailbox.PollEpochRecords - 1 + perEnvelope                // decode stops at the bound, mid-envelope never
		maxArena    = 2 * maxEpoch * payload                                    // append at most doubles
	)
	topo := mailbox.NewDirect(p)
	for _, reliable := range []bool{false, true} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			var opts []mailbox.Option
			if reliable {
				// No retransmissions while rank 0 sits on its inbox: they
				// would be dropped as duplicates, but the test wants one
				// arrival per envelope.
				opts = []mailbox.Option{mailbox.WithReliable(), mailbox.WithRTO(time.Minute, time.Minute)}
			}
			stats := make([]mailbox.Stats, p)
			pending := make([]int, p)
			var done atomic.Bool
			var failure error // rank 0's, read after Run
			rt.NewMachine(p).Run(func(r *rt.Rank) {
				box := mailbox.New(r, topo, nil, opts...)
				if r.Rank() != 0 {
					rec := make([]byte, payload)
					binary.LittleEndian.PutUint32(rec[0:], uint32(r.Rank()))
					for seq := 0; seq < perSender; seq++ {
						binary.LittleEndian.PutUint32(rec[4:], uint32(seq))
						box.Send(0, rec)
					}
					box.FlushAll()
				}
				next := make([]uint32, p) // rank 0: next sequence number owed by each sender
				got, polls := 0, 0
				for !done.Load() {
					r.Barrier() // every send above happened; rank 0 has polled nothing
					recs := box.Poll()
					if r.Rank() == 0 && failure == nil {
						polls++
						got += len(recs)
						if len(recs) > maxEpoch {
							failure = fmt.Errorf("poll %d returned %d records, epoch bound is %d", polls, len(recs), maxEpoch)
						}
						for _, rec := range recs {
							from, seq := binary.LittleEndian.Uint32(rec.Payload[0:]), binary.LittleEndian.Uint32(rec.Payload[4:])
							if seq != next[from] {
								failure = fmt.Errorf("poll %d: sender %d delivered #%d, want #%d", polls, from, seq, next[from])
								break
							}
							next[from]++
						}
						if box.Backlog() != (got < total) {
							failure = fmt.Errorf("poll %d: Backlog()=%v with %d of %d records delivered", polls, box.Backlog(), got, total)
						}
						if box.Idle() != (got == total) {
							failure = fmt.Errorf("poll %d: Idle()=%v with %d of %d records delivered", polls, box.Idle(), got, total)
						}
						if c := box.ArenaCap(); c > maxArena {
							failure = fmt.Errorf("poll %d: arena capacity %d exceeds one epoch's need (%d)", polls, c, maxArena)
						}
					}
					r.Barrier() // transport quiet: snapshot
					stats[r.Rank()], pending[r.Rank()] = box.Stats(), box.PendingRecords()
					r.Barrier()
					if r.Rank() == 0 {
						if err := check.Error(check.MailboxInFlight(topo, stats, pending)); err != nil && failure == nil {
							failure = fmt.Errorf("after poll %d: %w", polls, err)
						}
						if got == total && polls < 5 && failure == nil {
							failure = fmt.Errorf("%d records took only %d polls", total, polls)
						}
						done.Store(got == total || failure != nil)
					}
					r.Barrier()
				}
			})
			if failure != nil {
				t.Fatal(failure)
			}
		})
	}
}
