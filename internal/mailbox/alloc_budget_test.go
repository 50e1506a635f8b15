package mailbox

// Steady-state allocation budgets for the message-plane hot paths. These are
// the enforceable artifact of the zero-allocation rework (`make bench-smoke`
// runs them in CI): each test warms a path to steady state, then measures
// testing.AllocsPerRun over full send→deliver→drain cycles and fails if the
// per-cycle average creeps above a small epsilon. Under the race detector
// the paths still execute but the numeric assertions are skipped
// (raceEnabled; the instrumented runtime allocates on its own schedule).

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// appendRun frames one run — count records of width bytes, body — onto env,
// as a Box stages it.
func appendRun(env []byte, dest, tag, width, count uint32, body []byte) []byte {
	for _, f := range []uint32{dest, tag, width, count} {
		env = binary.LittleEndian.AppendUint32(env, f)
	}
	return append(env, body...)
}

// budgetEpsilon tolerates stray runtime-internal allocations (GC metadata,
// background goroutine wakeups) that AllocsPerRun can observe; anything
// above it means a real per-cycle allocation has crept back into the path.
const budgetEpsilon = 0.1

// TestAllocBudgetLoopback pins the delivery half: at steady state a
// 64-record Send+Poll cycle on the loopback path must allocate nothing —
// payload copies land in the recycled arena, the Record batch reuses the
// previous epoch's slice, and no envelope buffers are involved.
func TestAllocBudgetLoopback(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), termination.New(r))
		payload := make([]byte, benchPayloadBytes)
		cycle := func() {
			for i := 0; i < 64; i++ {
				box.Send(0, payload)
			}
			if got := len(box.Poll()); got != 64 {
				t.Fatalf("loopback poll returned %d records, want 64", got)
			}
		}
		for i := 0; i < 8; i++ {
			cycle() // warm both arena epochs and the delivered slices
		}
		avg := testing.AllocsPerRun(100, cycle)
		if raceEnabled {
			t.Skipf("race detector active: measured %.2f allocs/cycle, not asserted", avg)
		}
		if avg > budgetEpsilon {
			t.Errorf("loopback steady state allocates %.2f per 64-record cycle, want ~0", avg)
		}
	})
}

// TestAllocBudgetDecodeDeliver pins the receive half: draining and decoding
// a multi-record envelope into delivered records must allocate nothing at
// steady state (the drained envelope is recycled into the box's pool, the
// record payloads are carved from the recycled arena).
func TestAllocBudgetDecodeDeliver(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), nil)
		// One envelope holding 32 records addressed to this rank: four runs
		// of eight, one per tag.
		const recs, runs = 32, 4
		env := make([]byte, 0, runs*runHeader+recs*benchPayloadBytes)
		for i := 0; i < runs; i++ {
			env = appendRun(env, 0, uint32(i), benchPayloadBytes, recs/runs,
				make([]byte, recs/runs*benchPayloadBytes))
		}
		cycle := func() {
			r.Send(0, rt.KindMailbox, 0, env)
			if got := len(box.Poll()); got != recs {
				t.Fatalf("poll returned %d records, want %d", got, recs)
			}
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		avg := testing.AllocsPerRun(100, cycle)
		if raceEnabled {
			t.Skipf("race detector active: measured %.2f allocs/cycle, not asserted", avg)
		}
		if avg > budgetEpsilon {
			t.Errorf("decode/deliver steady state allocates %.2f per envelope, want ~0", avg)
		}
	})
}

// TestAllocBudgetRoutedSteadyState pins the full duplex cycle on a 2-rank
// machine: once envelope buffers circulate (each rank's consumed inbound
// envelopes back its outbound aggregation buffers), a ship-sized burst of
// records costs at most a handful of allocations machine-wide. AllocsPerRun
// cannot be used here — both ranks run concurrently and it counts global
// mallocs — so the main goroutine brackets a lockstep measured phase with
// runtime.ReadMemStats while the ranks coordinate over channels.
func TestAllocBudgetRoutedSteadyState(t *testing.T) {
	const p = 2
	const burst = 64 // records per cycle per rank; flush threshold 1 KiB
	const warmRounds, rounds = 32, 200
	warmed := make(chan struct{}, p)
	start := make(chan struct{})
	var ms1, ms2 runtime.MemStats
	m := rt.NewMachine(p)
	go func() {
		for i := 0; i < p; i++ {
			<-warmed
		}
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		close(start)
	}()
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithFlushBytes(1024))
		other := 1 - r.Rank()
		payload := make([]byte, benchPayloadBytes)
		cycle := func() {
			for i := 0; i < burst; i++ {
				box.Send(other, payload)
			}
			box.FlushAll()
			box.Poll()
		}
		drain := func() {
			for !det.Pump(box.Idle()) {
				box.Poll()
				box.FlushAll()
			}
		}
		// Warm until buffer circulation is established, ending fully
		// quiescent (empty inboxes, empty aggregation buffers, full pools).
		for i := 0; i < warmRounds; i++ {
			cycle()
		}
		drain()
		warmed <- struct{}{}
		<-start
		for i := 0; i < rounds; i++ {
			cycle()
		}
		drain()
	})
	runtime.ReadMemStats(&ms2)
	perBurst := float64(ms2.Mallocs-ms1.Mallocs) / rounds
	t.Logf("routed steady state: %.2f mallocs per %d-record burst pair (machine-wide)", perBurst, burst)
	if raceEnabled {
		t.Skipf("race detector active: measured %.2f mallocs/burst, not asserted", perBurst)
	}
	// Pre-pooling, one burst pair cost well over 2*burst mallocs (a payload
	// copy per delivered record on each side, plus envelope buffers, Msg
	// queues, and per-poll delivered slices). Budget: at least a 5x margin
	// under that floor, machine-wide.
	if perBurst > float64(2*burst)/5 {
		t.Errorf("routed steady state allocates %.1f per %d-record burst pair, want < %.0f (5x under the pre-pooling floor)",
			perBurst, burst, float64(2*burst)/5)
	}
}

// handOffAttempts bounds how often the tests below retry a Close→New hand-off.
// sync.Pool can miss a storage just put: a goroutine moved to another P
// between the two calls does not see the first P's private slot, and the race
// runtime drops a quarter of all puts. Each test retries until its box
// adopted a closed box's storage.
const handOffAttempts = 20

// TestAllocBudgetHandOffWarmStart pins the hand-off of Close to New: on a
// 2-rank machine whose first boxes warmed up and closed, the next boxes'
// first routed cycle (a burst each way, flushed and polled until it has all
// arrived) allocates next to nothing machine-wide, and its aggregation
// buffers come off the carried free-list. A box built from empty pays 50-60
// mallocs machine-wide for the same cycle, regrowing its arenas, Record
// batches, inbox and drain scratch and missing the pool. A handed-off box
// reads 0-1, and 15-16 in about one run in a hundred at GOMAXPROCS 1 and 2
// (the window is machine-wide: it sees the scheduler and the transport too),
// so the budget is under half the cost of a box built from empty.
func TestAllocBudgetHandOffWarmStart(t *testing.T) {
	const p = 2
	const burst = 64 // records per rank; flush threshold 1 KiB
	built := make(chan struct{}, p)
	start := make(chan struct{})
	var ms1, ms2 runtime.MemStats
	first := make([]Stats, p)
	m := rt.NewMachine(p)
	go func() {
		for i := 0; i < p; i++ {
			<-built
		}
		runtime.GC() // the boxes have adopted: no GC cycle inside the window
		runtime.ReadMemStats(&ms1)
		close(start)
	}()
	m.Run(func(r *rt.Rank) {
		other := 1 - r.Rank()
		payload := make([]byte, benchPayloadBytes)
		// cycle ends quiescent: once the burst has all arrived, every envelope
		// the peer shipped is drained, decoded and recycled, and the barrier
		// keeps the peer's next burst out of this one's polls.
		cycle := func(box *Box) {
			for i := 0; i < burst; i++ {
				box.Send(other, payload)
			}
			box.FlushAll()
			for got := 0; got < burst; {
				got += len(box.Poll())
			}
			r.Barrier()
		}
		var box *Box
		for attempt := 1; ; attempt++ {
			box = New(r, NewDirect(p), nil, WithFlushBytes(1024))
			for i := 0; i < 8; i++ {
				cycle(box)
			}
			box.Close()
			box = New(r, NewDirect(p), nil, WithFlushBytes(1024))
			missed := uint64(0)
			if box.pool.size() == 0 {
				missed = 1
			}
			if r.AllReduceU64(missed, rt.Max) == 0 || attempt == handOffAttempts {
				break
			}
		}
		built <- struct{}{}
		<-start
		cycle(box)
		first[r.Rank()] = box.Stats()
	})
	runtime.ReadMemStats(&ms2)
	mallocs := ms2.Mallocs - ms1.Mallocs
	t.Logf("first routed cycle of a handed-off box: %d mallocs machine-wide; pool gets/hits %d/%d and %d/%d",
		mallocs, first[0].PoolGets, first[0].PoolHits, first[1].PoolGets, first[1].PoolHits)
	for rank, s := range first {
		if s.PoolHits == 0 {
			t.Errorf("rank %d: first cycle drew no buffer from the carried free-list (%d gets)", rank, s.PoolGets)
		}
	}
	if raceEnabled {
		t.Skipf("race detector active: %d mallocs, not asserted", mallocs)
	}
	if mallocs >= 25 {
		t.Errorf("first routed cycle of a handed-off box allocates %d machine-wide, want ~0 (< 25; 50-60 from empty)", mallocs)
	}
}

// TestAllocBudgetHandOffNoAlias closes a box twice, then builds two boxes on
// the same rank and fills each with its own payloads. Had the second Close
// handed the storage on again, both would deliver into one arena: the
// scribbles over one box's payloads would show through the other's.
func TestAllocBudgetHandOffNoAlias(t *testing.T) {
	for spare.Get() != nil { // only this test's storage is in play
	}
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		fill := func(box *Box, b byte) []Record {
			for i := 0; i < 64; i++ {
				box.Send(0, bytes.Repeat([]byte{b}, benchPayloadBytes))
			}
			return box.Poll()
		}
		scribble := func(recs []Record, with byte) {
			for _, rec := range recs {
				for i := range rec.Payload {
					rec.Payload[i] = with
				}
			}
		}
		expect := func(name string, recs []Record, want byte) {
			for i, rec := range recs {
				if !bytes.Equal(rec.Payload, bytes.Repeat([]byte{want}, benchPayloadBytes)) {
					t.Fatalf("box %s record %d = %x, want every byte %#x", name, i, rec.Payload, want)
				}
			}
		}
		for attempt := 1; ; attempt++ {
			box := New(r, NewDirect(1), nil)
			fill(box, 0)
			fill(box, 0) // both arenas hold capacity
			box.Close()
			box.Close()
			a, b := New(r, NewDirect(1), nil), New(r, NewDirect(1), nil)
			if a.ArenaCap() == 0 && b.ArenaCap() == 0 {
				if attempt == handOffAttempts {
					t.Fatalf("no box adopted a closed box's storage in %d attempts", attempt)
				}
				continue
			}
			recsA, recsB := fill(a, 0x11), fill(b, 0x22)
			scribble(recsA, 0xAA)
			expect("b", recsB, 0x22)
			scribble(recsB, 0xBB)
			expect("a", recsA, 0xAA)
			return
		}
	})
}

// TestAllocBudgetHandOffDropsBacklog closes a box holding an undecoded
// backlog (two envelopes of an epoch's records each arrived; one Poll decoded
// the first) and a staged run (a record sent, never flushed). The
// box that adopts its storage starts empty: no backlog, idle, nothing
// pending, every adopted Record zero and every inbox slot nil.
func TestAllocBudgetHandOffDropsBacklog(t *testing.T) {
	rt.NewMachine(2).Run(func(r *rt.Rank) {
		if r.Rank() == 1 { // only the address of the staged run
			return
		}
		rec := make([]byte, 4)
		envelope := func() []byte {
			// One run of an epoch's records, addressed to this rank.
			return appendRun(nil, 0, 0, uint32(len(rec)), pollEpochRecords,
				make([]byte, pollEpochRecords*len(rec)))
		}
		for attempt := 1; ; attempt++ {
			box := New(r, NewDirect(2), nil)
			r.Send(0, rt.KindMailbox, 0, envelope())
			r.Send(0, rt.KindMailbox, 0, envelope())
			box.Poll()
			box.Send(1, rec)
			if !box.Backlog() || box.Idle() || box.PendingRecords() == 0 {
				t.Fatalf("before Close: Backlog %v, Idle %v, PendingRecords %d; want a backlog and a staged run",
					box.Backlog(), box.Idle(), box.PendingRecords())
			}
			box.Close()
			next := New(r, NewDirect(2), nil)
			if next.ArenaCap() == 0 {
				if attempt == handOffAttempts {
					t.Fatalf("no box adopted a closed box's storage in %d attempts", attempt)
				}
				continue
			}
			if next.Backlog() || !next.Idle() || next.PendingRecords() != 0 {
				t.Errorf("adopting box: Backlog %v, Idle %v, PendingRecords %d; want false, true, 0",
					next.Backlog(), next.Idle(), next.PendingRecords())
			}
			for _, batch := range [][]Record{next.delivered, next.deliveredPrev} {
				for i, rec := range batch[:cap(batch)] {
					if rec.Tag != 0 || rec.Payload != nil {
						t.Fatalf("adopted Record %d not zeroed: %+v", i, rec)
					}
				}
			}
			for i, env := range next.inbox[:cap(next.inbox)] {
				if env != nil {
					t.Fatalf("adopted inbox slot %d still holds a %d-byte envelope", i, len(env))
				}
			}
			return
		}
	})
}
