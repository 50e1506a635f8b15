package mailbox

// Message-plane allocation benchmarks and steady-state allocation budgets.
//
// The routed aggregating mailbox is the system's per-record hot path: every
// visitor crosses Send → enqueue (framing) → ship → transport → Poll →
// decodeEnvelope → deliver → drain. DESIGN.md §9 records the before/after
// numbers for the pooled-envelope + arena-delivery rework; the
// TestAllocBudget* tests below pin the steady-state budgets so allocation
// regressions fail `make bench-smoke` (and CI), not just benchmarks.
//
// The budget tests are skipped under the race detector (the race runtime
// instruments allocations) — see alloc_budget_race_test.go / _norace.

import (
	"testing"
	"time"

	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// benchPayload is a typical visitor wire size (BFS records are 20 bytes,
// triangle records 24).
const benchPayloadBytes = 24

// runRoutedBench drives b.N records from rank 0 to rank 1 through a routed
// box and runs the machine to quiescence, so AllocsPerOp covers the full
// Send→route→deliver→drain cycle per record (both ranks' allocations).
func runRoutedBench(b *testing.B, opts ...Option) {
	b.ReportAllocs()
	p := 2
	m := rt.NewMachine(p)
	payload := make([]byte, benchPayloadBytes)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, append([]Option{WithFlushBytes(4096)}, opts...)...)
		if r.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				box.Send(1, payload)
				if i&511 == 511 {
					box.Poll() // drain acks / drive retransmit timers (reliable path)
				}
			}
			box.FlushAll()
		}
		deadline := time.Now().Add(60 * time.Second)
		for !det.Pump(box.Idle()) {
			box.Poll()
			box.FlushAll()
			if time.Now().After(deadline) {
				panic("mailbox benchmark did not quiesce")
			}
		}
	})
}

// BenchmarkMsgPlaneRouted is the raw-path hot loop: aggregated envelopes over
// the perfect transport. AllocsPerOp here is the headline number of the
// zero-allocation message plane work.
func BenchmarkMsgPlaneRouted(b *testing.B) { runRoutedBench(b) }

// BenchmarkMsgPlaneReliable is the same exchange under the seq/ack/CRC
// reliable protocol (frames retained until acked).
func BenchmarkMsgPlaneReliable(b *testing.B) { runRoutedBench(b, WithReliable()) }

// BenchmarkMsgPlaneLoopback isolates the deliver/drain half: self-sends skip
// the transport entirely, so every allocation observed is the delivery path's
// own (record copy + delivered-queue bookkeeping).
func BenchmarkMsgPlaneLoopback(b *testing.B) {
	b.ReportAllocs()
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), termination.New(r))
		payload := make([]byte, benchPayloadBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box.Send(0, payload)
			if i&63 == 63 {
				if got := len(box.Poll()); got != 64 {
					panic("loopback poll lost records")
				}
			}
		}
		box.Poll()
	})
}
