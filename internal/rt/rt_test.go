package rt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"havoqgt/internal/obs"
)

func TestPointToPointDelivery(t *testing.T) {
	m := NewMachine(4)
	got := make([]string, 4)
	m.Run(func(r *Rank) {
		next := (r.Rank() + 1) % r.Size()
		r.Send(next, KindMailbox, 0, []byte(fmt.Sprintf("from-%d", r.Rank())))
		var msgs []Msg
		for len(msgs) == 0 {
			msgs = r.Recv(KindMailbox)
		}
		got[r.Rank()] = string(msgs[0].Payload)
	})
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf("from-%d", (i+3)%4)
		if got[i] != want {
			t.Errorf("rank %d received %q, want %q", i, got[i], want)
		}
	}
}

func TestFIFOPerPair(t *testing.T) {
	m := NewMachine(2)
	var fail atomic.Bool
	m.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 1000; i++ {
				r.Send(1, KindMailbox, uint32(i), nil)
			}
			return
		}
		seen := 0
		for seen < 1000 {
			for _, msg := range r.Recv(KindMailbox) {
				if msg.Tag != uint32(seen) {
					fail.Store(true)
					return
				}
				seen++
			}
		}
	})
	if fail.Load() {
		t.Fatal("messages reordered within a sender-receiver pair")
	}
}

func TestKindsAreIndependent(t *testing.T) {
	m := NewMachine(2)
	m.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, KindControl, 7, []byte("ctl"))
			r.Send(1, KindMailbox, 8, []byte("mb"))
			return
		}
		var mb, ctl []Msg
		for len(mb) == 0 || len(ctl) == 0 {
			mb = append(mb, r.Recv(KindMailbox)...)
			ctl = append(ctl, r.Recv(KindControl)...)
		}
		if string(mb[0].Payload) != "mb" || string(ctl[0].Payload) != "ctl" {
			panic("kind demultiplexing broken")
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	NewMachine(3).Run(func(r *Rank) {
		if r.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestStatsCounting(t *testing.T) {
	m := NewMachine(2)
	m.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, KindMailbox, 0, make([]byte, 100))
		} else {
			for len(r.Recv(KindMailbox)) == 0 {
			}
		}
	})
	snap := m.Obs().Snapshot()
	if msgs, bytes := snap.Counter(obs.RTMsgs), snap.Counter(obs.RTBytes); msgs != 1 || bytes != 100 {
		t.Fatalf("%s = %d, %s = %d, want 1 and 100", obs.RTMsgs, msgs, obs.RTBytes, bytes)
	}
	if msgs := snap.Counter(obs.RTKindMsgs("mailbox")); msgs != 1 {
		t.Fatalf("%s = %d, want 1", obs.RTKindMsgs("mailbox"), msgs)
	}
	m.ResetStats()
	if msgs := m.Obs().Snapshot().Counter(obs.RTMsgs); msgs != 0 {
		t.Fatalf("reset failed: %s = %d", obs.RTMsgs, msgs)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		m := NewMachine(p)
		var phase atomic.Int32
		ok := true
		m.Run(func(r *Rank) {
			phase.Add(1)
			r.Barrier()
			if int(phase.Load()) != p {
				ok = false
			}
			r.Barrier()
		})
		if !ok {
			t.Fatalf("p=%d: barrier released before all ranks arrived", p)
		}
	}
}

func TestAllReduceU64(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		m := NewMachine(p)
		sums := make([]uint64, p)
		mins := make([]uint64, p)
		maxs := make([]uint64, p)
		m.Run(func(r *Rank) {
			x := uint64(r.Rank() + 1)
			sums[r.Rank()] = r.AllReduceU64(x, Sum)
			mins[r.Rank()] = r.AllReduceU64(x, Min)
			maxs[r.Rank()] = r.AllReduceU64(x, Max)
		})
		wantSum := uint64(p * (p + 1) / 2)
		for i := 0; i < p; i++ {
			if sums[i] != wantSum {
				t.Errorf("p=%d rank %d: sum=%d want %d", p, i, sums[i], wantSum)
			}
			if mins[i] != 1 || maxs[i] != uint64(p) {
				t.Errorf("p=%d rank %d: min=%d max=%d", p, i, mins[i], maxs[i])
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, root := range []int{0, 1, 4} {
		p := 5
		m := NewMachine(p)
		out := make([]string, p)
		m.Run(func(r *Rank) {
			var payload []byte
			if r.Rank() == root {
				payload = []byte("hello")
			}
			out[r.Rank()] = string(r.Broadcast(root, payload))
		})
		for i, s := range out {
			if s != "hello" {
				t.Errorf("root=%d rank %d got %q", root, i, s)
			}
		}
	}
}

func TestAllGatherU64(t *testing.T) {
	p := 7
	m := NewMachine(p)
	outs := make([][]uint64, p)
	m.Run(func(r *Rank) {
		outs[r.Rank()] = r.AllGatherU64(uint64(r.Rank() * 10))
	})
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if outs[i][j] != uint64(j*10) {
				t.Fatalf("rank %d slot %d = %d", i, j, outs[i][j])
			}
		}
	}
}

func TestAllGatherBytesEmptyPayloads(t *testing.T) {
	p := 4
	m := NewMachine(p)
	outs := make([][][]byte, p)
	m.Run(func(r *Rank) {
		var payload []byte
		if r.Rank()%2 == 0 {
			payload = []byte{byte(r.Rank())}
		}
		outs[r.Rank()] = r.AllGatherBytes(payload)
	})
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			wantLen := 0
			if j%2 == 0 {
				wantLen = 1
			}
			if len(outs[i][j]) != wantLen {
				t.Fatalf("rank %d slot %d len=%d want %d", i, j, len(outs[i][j]), wantLen)
			}
		}
	}
}

func TestAllToAllv(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		m := NewMachine(p)
		ok := true
		m.Run(func(r *Rank) {
			out := make([][]byte, p)
			for i := 0; i < p; i++ {
				out[i] = []byte(fmt.Sprintf("%d->%d", r.Rank(), i))
			}
			in := r.AllToAllv(out)
			for i := 0; i < p; i++ {
				if string(in[i]) != fmt.Sprintf("%d->%d", i, r.Rank()) {
					ok = false
				}
			}
		})
		if !ok {
			t.Fatalf("p=%d: AllToAllv misdelivered", p)
		}
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Stress sequencing: many collectives in a row must not cross-talk.
	p := 5
	m := NewMachine(p)
	ok := true
	m.Run(func(r *Rank) {
		for i := 0; i < 50; i++ {
			if r.AllReduceU64(uint64(i), Max) != uint64(i) {
				ok = false
			}
			r.Barrier()
			g := r.AllGatherU64(uint64(r.Rank()))
			for j := range g {
				if g[j] != uint64(j) {
					ok = false
				}
			}
		}
	})
	if !ok {
		t.Fatal("collective sequencing broke under repetition")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid rank did not panic")
		}
	}()
	NewMachine(2).Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(5, KindMailbox, 0, nil)
		}
	})
}

func TestCollectivesAtLargerScale(t *testing.T) {
	// Stress the tree/dissemination algorithms well past the small sizes
	// the other tests use.
	p := 32
	m := NewMachine(p)
	ok := true
	m.Run(func(r *Rank) {
		sum := r.AllReduceU64(uint64(r.Rank()), Sum)
		if sum != uint64(p*(p-1)/2) {
			ok = false
		}
		r.Barrier()
		g := r.AllGatherU64(uint64(r.Rank() * 3))
		for i := range g {
			if g[i] != uint64(i*3) {
				ok = false
			}
		}
		out := make([][]byte, p)
		for i := range out {
			out[i] = []byte{byte(r.Rank()), byte(i)}
		}
		in := r.AllToAllv(out)
		for i := range in {
			if in[i][0] != byte(i) || in[i][1] != byte(r.Rank()) {
				ok = false
			}
		}
	})
	if !ok {
		t.Fatal("collectives broke at p=32")
	}
}

func TestMachineReusableAcrossPhases(t *testing.T) {
	// The harness runs construction and several traversals on one machine;
	// phases separated by barriers must not interfere.
	m := NewMachine(4)
	for phase := 0; phase < 3; phase++ {
		m.Run(func(r *Rank) {
			r.Send((r.Rank()+1)%4, KindMailbox, uint32(phase), nil)
			for {
				msgs := r.Recv(KindMailbox)
				if len(msgs) > 0 {
					if msgs[0].Tag != uint32(phase) {
						panic("stale message crossed phases")
					}
					break
				}
			}
			r.Barrier()
		})
	}
}

func TestBroadcastLargePayload(t *testing.T) {
	p := 5
	m := NewMachine(p)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	ok := true
	m.Run(func(r *Rank) {
		var in []byte
		if r.Rank() == 2 {
			in = payload
		}
		got := r.Broadcast(2, in)
		if len(got) != len(payload) || got[12345] != payload[12345] {
			ok = false
		}
	})
	if !ok {
		t.Fatal("large broadcast corrupted")
	}
}

func TestSimLatencyDelaysDelivery(t *testing.T) {
	const delay = 30 * time.Millisecond
	m := NewMachine(2)
	m.SetSimLatency(delay)
	var measured time.Duration
	m.Run(func(r *Rank) {
		if r.Rank() == 0 {
			start := time.Now()
			r.Send(1, KindMailbox, 0, []byte("hello"))
			// Sender's own view: nothing to measure.
			_ = start
			return
		}
		start := time.Now()
		var msgs []Msg
		for len(msgs) == 0 {
			msgs = r.Recv(KindMailbox)
		}
		measured = time.Since(start)
		if string(msgs[0].Payload) != "hello" {
			t.Errorf("payload %q", msgs[0].Payload)
		}
	})
	// The receiver spun from its own start, which is at most the sender's
	// send time plus scheduling noise; the message must not have been
	// visible well before the configured delay elapsed.
	if measured < delay/2 {
		t.Errorf("message visible after %v; configured delay %v", measured, delay)
	}
}

func TestSimLatencyPreservesFIFO(t *testing.T) {
	m := NewMachine(2)
	m.SetSimLatency(2 * time.Millisecond)
	const n = 50
	m.Run(func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, KindMailbox, uint32(i), nil)
			}
			return
		}
		var got []uint32
		for len(got) < n {
			for _, msg := range r.Recv(KindMailbox) {
				got = append(got, msg.Tag)
			}
		}
		for i, tag := range got {
			if tag != uint32(i) {
				t.Errorf("message %d has tag %d (reordered)", i, tag)
				return
			}
		}
	})
}

func TestSimLatencyZeroIsInstantaneous(t *testing.T) {
	m := NewMachine(2)
	m.SetSimLatency(5 * time.Millisecond)
	m.SetSimLatency(0) // reset
	m.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, KindMailbox, 7, nil)
			return
		}
		var msgs []Msg
		for len(msgs) == 0 {
			msgs = r.Recv(KindMailbox)
		}
		if msgs[0].Tag != 7 {
			t.Errorf("tag %d", msgs[0].Tag)
		}
	})
}
