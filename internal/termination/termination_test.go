package termination

import (
	"encoding/binary"
	"testing"
	"time"

	"havoqgt/internal/rt"
)

// pumpUntilDone drives a detector until it reports quiescence or times out.
func pumpUntilDone(t *testing.T, d *Detector, idle func() bool, work func()) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !d.Pump(idle()) {
		work()
		if time.Now().After(deadline) {
			t.Fatal("termination not detected within deadline")
		}
	}
}

func TestDetectsOnQuietSystem(t *testing.T) {
	ps := []int{1, 2, 3, 8, 15}
	if testing.Short() {
		// Large rank counts dominate the wall time under -race; the small
		// ones still cover the single-rank and multi-rank wave paths.
		ps = []int{1, 2, 3}
	}
	for _, p := range ps {
		m := rt.NewMachine(p)
		m.Run(func(r *rt.Rank) {
			d := New(r)
			deadline := time.Now().Add(10 * time.Second)
			for !d.Pump(true) {
				if time.Now().After(deadline) {
					panic("no detection on an idle system")
				}
			}
		})
	}
}

func TestRequiresBalancedCounts(t *testing.T) {
	// With one un-received send, detection must NOT happen; after the
	// receive is counted, it must.
	p := 4
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		d := New(r)
		if r.Rank() == 0 {
			d.CountSent(1)
		}
		// Spin for a while: no detection while S != R.
		for i := 0; i < 2000; i++ {
			if d.Pump(true) {
				panic("detected termination with a message in flight")
			}
		}
		if r.Rank() == 1 {
			d.CountReceived(1)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !d.Pump(true) {
			if time.Now().After(deadline) {
				panic("no detection after counts balanced")
			}
		}
	})
}

func TestRequiresIdleEverywhere(t *testing.T) {
	p := 3
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		d := New(r)
		busy := r.Rank() == 2
		for i := 0; i < 2000; i++ {
			if d.Pump(!busy) {
				panic("detected termination with a busy rank")
			}
		}
		// Rank 2 goes idle; now everyone should detect.
		deadline := time.Now().Add(10 * time.Second)
		for !d.Pump(true) {
			if time.Now().After(deadline) {
				panic("no detection after all idle")
			}
		}
	})
}

func TestDetectionAfterMessageStorm(t *testing.T) {
	// Ranks exchange real visitor-like traffic over KindMailbox, counting
	// sends/receives; once the storm drains, detection must fire on all
	// ranks with matched global counters.
	p, perRank := 6, 200
	if testing.Short() {
		p, perRank = 3, 50
	}
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		d := New(r)
		sent := 0
		buf := make([]byte, 8)
		for !d.Pump(false) {
			if sent < perRank {
				dest := (r.Rank() + sent) % p
				binary.LittleEndian.PutUint64(buf, uint64(sent))
				r.Send(dest, rt.KindMailbox, 0, append([]byte(nil), buf...))
				d.CountSent(1)
				sent++
			}
			for range r.Recv(rt.KindMailbox) {
				d.CountReceived(1)
			}
			if sent == perRank {
				// Only now can the system quiesce; report idle when no
				// pending deliveries.
				for range r.Recv(rt.KindMailbox) {
					d.CountReceived(1)
				}
				if d.Pump(true) {
					break
				}
			}
		}
		// Safety: on exit the global counters matched; locally we may have
		// sent and received different amounts, that's fine.
	})
}

func TestWavesAreCounted(t *testing.T) {
	m := rt.NewMachine(2)
	waves := make([]uint64, 2)
	m.Run(func(r *rt.Rank) {
		d := New(r)
		deadline := time.Now().Add(10 * time.Second)
		for !d.Pump(true) {
			if time.Now().After(deadline) {
				panic("timeout")
			}
		}
		waves[r.Rank()] = d.Waves
	})
	if waves[0] < 2 {
		t.Fatalf("root completed %d waves, need at least 2 for the double-wave rule", waves[0])
	}
}

func TestPumpAfterDoneStaysDone(t *testing.T) {
	m := rt.NewMachine(3)
	m.Run(func(r *rt.Rank) {
		d := New(r)
		deadline := time.Now().Add(10 * time.Second)
		for !d.Pump(true) {
			if time.Now().After(deadline) {
				panic("timeout")
			}
		}
		for i := 0; i < 10; i++ {
			if !d.Pump(true) {
				panic("detector forgot termination")
			}
		}
	})
}

func TestCountersAccumulate(t *testing.T) {
	m := rt.NewMachine(1)
	m.Run(func(r *rt.Rank) {
		d := New(r)
		d.CountSent(3)
		d.CountSent(2)
		d.CountReceived(5)
		if d.Sent() != 5 || d.Received() != 5 {
			panic("counter arithmetic broken")
		}
	})
}

// TestMuxCountsStraightIntoDetectors: as the mailbox's flow counter, a Mux
// counts a tag into that query's detector, minting it on the first count —
// the one Detector later returns — and counts nothing for a retired id, so a
// straggler re-creates no instance after Retire.
func TestMuxCountsStraightIntoDetectors(t *testing.T) {
	m := rt.NewMachine(1)
	m.Run(func(r *rt.Rank) {
		mux := NewMux(r)
		mux.CountReceived(7, 2) // delivered before this rank started query 7
		mux.CountSent(8, 1)
		mux.CountSent(7, 3)
		d := mux.Detector(7)
		if d.Sent() != 3 || d.Received() != 2 || mux.Detector(8).Sent() != 1 {
			panic("counts did not land in their tags' detectors")
		}
		mux.Retire(7)
		mux.CountSent(7, 1)
		mux.CountReceived(MaxID+1, 1)
		if len(mux.dets) != 1 || d.Sent() != 3 {
			panic("a count re-created or reached a retired or impossible id")
		}
	})
}

func TestSequentialTraversalsFreshDetectors(t *testing.T) {
	// Two traversals back to back on the same machine: the second detector
	// must not be confused by the first's control traffic.
	p := 4
	m := rt.NewMachine(p)
	phases := 3
	if testing.Short() {
		phases = 2
	}
	m.Run(func(r *rt.Rank) {
		for phase := 0; phase < phases; phase++ {
			d := New(r)
			deadline := time.Now().Add(10 * time.Second)
			for !d.Pump(true) {
				if time.Now().After(deadline) {
					panic("timeout in phase")
				}
			}
			r.Barrier()
		}
	})
}
