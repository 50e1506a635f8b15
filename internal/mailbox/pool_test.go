package mailbox

// Tests for the zero-allocation message plane (pool.go, DESIGN.md §9):
// flush-threshold semantics, arena delivery isolation under hostile callers,
// cross-epoch arena recycling, pool round-trips, and the fault-injection
// recycling gate.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// TestFlushThresholdCountsFramedBytes pins the flush-threshold semantic
// documented on DefaultFlushBytes/WithFlushBytes: the threshold is measured
// in FRAMED envelope bytes — payload plus the 16-byte header of every run —
// so with T=64, a 47-byte payload (framed 63) stays buffered and a 48-byte
// payload (framed 64) ships immediately. Records of one width share their
// run's header; a record of another width opens a run and pays its own.
func TestFlushThresholdCountsFramedBytes(t *testing.T) {
	const threshold = 64
	cases := []struct {
		name      string
		payloads  []int // payload sizes sent in order to rank 1
		wantShips uint64
		wantPend  int
	}{
		{"one under (framed 63)", []int{threshold - runHeader - 1}, 0, 1},
		{"exactly at (framed 64)", []int{threshold - runHeader}, 1, 0},
		{"single overshoot ships whole", []int{500}, 1, 0},
		{"two records cross together", []int{24, 24}, 1, 0},         // one run: framed 16+24+24 = 64
		{"two records stay under", []int{23, 23}, 0, 2},             // one run: framed 16+23+23 = 62
		{"two runs cross", []int{20, 12}, 1, 0},                     // framed 16+20 + 16+12 = 64
		{"two runs stay under", []int{20, 11}, 0, 2},                // framed 16+20 + 16+11 = 63
		{"zero-width records never share", []int{0, 0, 0, 0}, 1, 0}, // framed 4×16
		{"three zero-width stay under", []int{0, 0, 0}, 0, 3},       // framed 3×16 = 48
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := rt.NewMachine(2)
			m.Run(func(r *rt.Rank) {
				if r.Rank() != 0 {
					return
				}
				box := New(r, NewDirect(2), nil, WithFlushBytes(threshold))
				for _, n := range tc.payloads {
					box.Send(1, bytes.Repeat([]byte{0x42}, n))
				}
				if got := box.Stats().EnvelopesSent; got != tc.wantShips {
					t.Errorf("EnvelopesSent = %d, want %d", got, tc.wantShips)
				}
				if got := box.PendingRecords(); got != tc.wantPend {
					t.Errorf("PendingRecords = %d, want %d", got, tc.wantPend)
				}
			})
		})
	}
}

// TestHugeThresholdIsNotPresized: a pool miss presizes the default
// threshold's buffer in one shot, but a 1 GiB threshold is not allocated on
// the first send — the presize is capped at maxPresize.
func TestHugeThresholdIsNotPresized(t *testing.T) {
	for _, tc := range []struct {
		threshold, wantCap int
	}{
		{DefaultFlushBytes, DefaultFlushBytes + DefaultFlushBytes/4},
		{1 << 30, maxPresize},
	} {
		m := rt.NewMachine(2)
		m.Run(func(r *rt.Rank) {
			if r.Rank() != 0 {
				return
			}
			box := New(r, NewDirect(2), nil, WithFlushBytes(tc.threshold))
			box.pool.free = nil // buffers a closed box left behind would be a pool hit
			box.Send(1, []byte("one small record"))
			if got := cap(box.stages[1].buf); got != tc.wantCap {
				t.Errorf("threshold %d: first buffer has capacity %d, want %d", tc.threshold, got, tc.wantCap)
			}
		})
	}
}

// pumpExchange runs a full all-to-all exchange (msgs records from every rank
// to every rank, loopback included) and hands each poll batch to inspect
// before the next Poll invalidates it. Returns per-rank received payload
// counts.
func pumpExchange(t *testing.T, p int, topo Topology, msgs int, reliable bool,
	inspect func(rank int, recs []Record)) []int {
	t.Helper()
	got := make([]int, p)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		opts := []Option{WithFlushBytes(96)} // small: force many envelopes
		if reliable {
			opts = append(opts, WithReliable())
		}
		box := New(r, topo, det, opts...)
		for dest := 0; dest < p; dest++ {
			for i := 0; i < msgs; i++ {
				box.Send(dest, []byte(fmt.Sprintf("%d->%d#%d", r.Rank(), dest, i)))
			}
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			recs := box.Poll()
			got[r.Rank()] += len(recs)
			if len(recs) > 0 && inspect != nil {
				inspect(r.Rank(), recs)
			}
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("exchange did not quiesce")
			}
		}
	})
	return got
}

// TestDeliveredRecordsIsolatedUnderMutation is the anti-aliasing regression
// suite for arena delivery: for every topology, raw and reliable, a hostile
// consumer that appends to and scribbles over every delivered payload must
// not be able to corrupt any sibling record in the same poll batch.
func TestDeliveredRecordsIsolatedUnderMutation(t *testing.T) {
	const p, msgs = 9, 6
	for _, reliable := range []bool{false, true} {
		for _, topo := range []Topology{NewDirect(p), NewGrid2D(p), NewGrid3D(p)} {
			name := fmt.Sprintf("%s/reliable=%v", topo.Name(), reliable)
			t.Run(name, func(t *testing.T) {
				got := pumpExchange(t, p, topo, msgs, reliable, func(rank int, recs []Record) {
					// Pass 1: snapshot every payload before touching any.
					snaps := make([]string, len(recs))
					for i, rec := range recs {
						snaps[i] = string(rec.Payload)
					}
					// Pass 2: append to every payload, then mutate the grown
					// copy. Payloads are capacity-clamped arena sub-slices, so
					// the append must reallocate — writing through the grown
					// slice cannot touch the arena.
					for i := range recs {
						g := append(recs[i].Payload, 0xEE, 0xEE, 0xEE)
						for j := range g {
							g[j] = 0xEE
						}
					}
					for i, rec := range recs {
						if string(rec.Payload) != snaps[i] {
							t.Errorf("rank %d: append to a sibling corrupted record %d", rank, i)
						}
					}
					// Pass 3: scribble each payload in place with a per-record
					// fill, then verify no scribble bled into a neighbor.
					for i := range recs {
						fill := byte(i)
						for j := range recs[i].Payload {
							recs[i].Payload[j] = fill
						}
					}
					for i, rec := range recs {
						for j, b := range rec.Payload {
							if b != byte(i) {
								t.Fatalf("rank %d: record %d byte %d = %#x, want fill %#x (arena overlap)",
									rank, i, j, b, byte(i))
							}
						}
					}
				})
				for rank, n := range got {
					if n != p*msgs {
						t.Errorf("rank %d received %d records, want %d", rank, n, p*msgs)
					}
				}
			})
		}
	}
}

// TestArenaRecyclesAcrossPolls pins the double-buffered epoch contract on
// the loopback path: records from poll N stay intact through poll N+1 and
// their arena storage is reused by poll N+2 (the allocation win), while
// poll N+1's records live in the other arena.
func TestArenaRecyclesAcrossPolls(t *testing.T) {
	m := rt.NewMachine(1)
	m.Run(func(r *rt.Rank) {
		box := New(r, NewDirect(1), nil)
		poll := func(tag uint32) Record {
			box.SendTagged(0, tag, bytes.Repeat([]byte{byte(tag)}, 32))
			recs := box.Poll()
			if len(recs) != 1 {
				t.Fatalf("poll %d: got %d records, want 1", tag, len(recs))
			}
			return recs[0]
		}
		r1 := poll(1)
		p1 := &r1.Payload[0]
		s1 := string(r1.Payload)
		r2 := poll(2)
		p2 := &r2.Payload[0]
		// Epoch survival: r1's bytes must still be intact after poll 2.
		if string(r1.Payload) != s1 {
			t.Fatal("poll-1 record corrupted by poll 2 (epoch contract broken)")
		}
		if p1 == p2 {
			t.Fatal("consecutive polls share an arena: records would not survive one poll")
		}
		r3 := poll(3)
		p3 := &r3.Payload[0]
		// Recycling: poll 3 must reuse poll 1's arena storage, or the plane
		// still allocates per epoch.
		if p1 != p3 {
			t.Fatal("poll-3 record not carved from poll-1's recycled arena")
		}
		if p2 == p3 {
			t.Fatal("polls 2 and 3 share an arena")
		}
	})
}

// TestEnvelopePoolRoundTrip checks receiver-side envelope recycling on the
// raw path: a rank that both receives and sends should serve outbound
// aggregation buffers from consumed inbound envelopes (pool hits). The box
// keeps the pool counters in its Stats; the engine's rank loop publishes
// them (check.LedgerMirrored compares them with the registry).
func TestEnvelopePoolRoundTrip(t *testing.T) {
	const p, msgs = 2, 400
	var stats [p]Stats
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithFlushBytes(256))
		other := 1 - r.Rank()
		deadline := time.Now().Add(20 * time.Second)
		// Send in waves interleaved with polling, so envelopes consumed from
		// the peer re-enter the pool in time to back later outbound buffers
		// — the steady-state circulation the pool exists for.
		sent := 0
		for {
			for i := 0; i < 20 && sent < msgs; i, sent = i+1, sent+1 {
				box.Send(other, bytes.Repeat([]byte{byte(sent)}, 48))
			}
			box.Poll()
			box.FlushAll()
			if sent == msgs && det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("round trip did not quiesce")
			}
		}
		stats[r.Rank()] = box.Stats()
	})
	var hits, recycled uint64
	for rank, st := range stats {
		if st.PoolGets == 0 {
			t.Errorf("rank %d: no pool gets recorded", rank)
		}
		if st.PoolHits > st.PoolGets {
			t.Errorf("rank %d: hits %d exceed gets %d", rank, st.PoolHits, st.PoolGets)
		}
		hits += st.PoolHits
		recycled += st.PoolBytesRecycled
	}
	if hits == 0 {
		t.Error("no pool hits across the machine: receiver-side recycling is dead")
	}
	if recycled == 0 {
		t.Error("no bytes recycled: consumed envelopes are not re-entering pools")
	}
	if free := m.Obs().Gauge(obs.MBPoolFree).Value(); free < 0 {
		t.Errorf("pool-free gauge negative: %d", free)
	}
}

// cleanTransport is a pass-through Transport: its mere installation must
// latch ExclusiveDelivery false and disable inbound recycling forever.
type cleanTransport struct{}

func (cleanTransport) Fate(_, _ int, _ uint8, _ uint64, _ int) rt.Fate { return rt.Fate{} }
func (cleanTransport) Stall(int) time.Duration                         { return 0 }

// TestRecyclingDisabledOnceTransportInstalled pins the safety gate: after
// any fault-injecting Transport has existed on the machine — even a
// pass-through one, even if since removed — a drained payload is no longer
// provably exclusive, so raw-path envelope recycling must stay off.
func TestRecyclingDisabledOnceTransportInstalled(t *testing.T) {
	const p = 2
	m := rt.NewMachine(p)
	m.SetTransport(cleanTransport{})
	m.SetTransport(nil) // removal must NOT re-enable recycling
	var stats [p]Stats
	m.Run(func(r *rt.Rank) {
		if r.ExclusiveDelivery() {
			t.Errorf("rank %d: ExclusiveDelivery true after a transport was installed", r.Rank())
		}
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithFlushBytes(256))
		other := 1 - r.Rank()
		for i := 0; i < 200; i++ {
			box.Send(other, bytes.Repeat([]byte{byte(i)}, 48))
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			box.Poll()
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("exchange did not quiesce")
			}
		}
		stats[r.Rank()] = box.Stats()
	})
	for rank, st := range stats {
		if st.PoolBytesRecycled != 0 {
			t.Errorf("rank %d: %d bytes recycled on the raw path under a transport (aliasing hazard)",
				rank, st.PoolBytesRecycled)
		}
		if st.PoolHits != 0 {
			t.Errorf("rank %d: %d pool hits with recycling disabled", rank, st.PoolHits)
		}
	}
}

// TestReliableRecyclesAggregationBuffersUnderTransport checks the one
// recycling path that stays legal under fault injection: reliable-mode
// aggregation buffers are copied into frames at ship time, so they return
// to the pool even when ExclusiveDelivery is false. (Frames themselves are
// never pooled; see reliable.go.)
func TestReliableRecyclesAggregationBuffersUnderTransport(t *testing.T) {
	const p = 2
	m := rt.NewMachine(p)
	m.SetTransport(cleanTransport{})
	var stats [p]Stats
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewDirect(p), det, WithReliable(), WithFlushBytes(256))
		other := 1 - r.Rank()
		for i := 0; i < 200; i++ {
			box.Send(other, bytes.Repeat([]byte{byte(i)}, 48))
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			box.Poll()
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
			if time.Now().After(deadline) {
				panic("reliable exchange did not quiesce")
			}
		}
		stats[r.Rank()] = box.Stats()
	})
	var hits, recycled uint64
	for _, st := range stats {
		hits += st.PoolHits
		recycled += st.PoolBytesRecycled
	}
	if hits == 0 || recycled == 0 {
		t.Errorf("reliable path recycled nothing under a transport (hits=%d, bytes=%d); "+
			"post-frame-copy buffers are exclusively the sender's and must be pooled", hits, recycled)
	}
}

// TestEnvPoolBounds covers the free-list edge cases directly.
func TestEnvPoolBounds(t *testing.T) {
	var p envPool
	if b := p.get(); b != nil {
		t.Fatalf("empty pool returned %v", b)
	}
	if p.put(nil) {
		t.Fatal("pool accepted a zero-capacity buffer")
	}
	for i := 0; i < envPoolCap; i++ {
		if !p.put(make([]byte, 8)) {
			t.Fatalf("pool rejected buffer %d below cap", i)
		}
	}
	if p.put(make([]byte, 8)) {
		t.Fatal("pool accepted a buffer beyond envPoolCap")
	}
	if p.size() != envPoolCap {
		t.Fatalf("size = %d, want %d", p.size(), envPoolCap)
	}
	b := p.get()
	if b == nil || len(b) != 0 || cap(b) != 8 {
		t.Fatalf("get returned len=%d cap=%d, want empty with retained capacity", len(b), cap(b))
	}
}
