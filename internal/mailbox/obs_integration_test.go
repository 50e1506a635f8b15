package mailbox

import (
	"fmt"
	"testing"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// TestObsCountersPopulateAcrossSubsystems runs one all-to-all exchange on a
// 2D-routed machine and checks that the machine's obs.Registry saw activity
// from every subsystem that writes it directly — transport, termination and
// the mailbox's envelope-size histogram — and that the box's own counters,
// which only the engine's rank loop publishes, are in its Stats; then
// verifies that Machine.ResetStats (the single reset path) zeroes them all.
func TestObsCountersPopulateAcrossSubsystems(t *testing.T) {
	p := 4
	m := rt.NewMachine(p)
	stats := make([]Stats, p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := New(r, NewGrid2D(p), det)
		for dest := 0; dest < p; dest++ {
			box.Send(dest, []byte(fmt.Sprintf("%d->%d", r.Rank(), dest)))
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

	var st Stats
	for _, s := range stats {
		st.Add(s)
	}
	if st.RecordsSent != uint64(p*p) {
		t.Fatalf("RecordsSent = %d, want %d", st.RecordsSent, p*p)
	}
	if st.RecordsDelivered != uint64(p*p) {
		t.Fatalf("RecordsDelivered = %d, want %d", st.RecordsDelivered, p*p)
	}
	// Routed records must have taken at least one hop each beyond loopback.
	if st.Hops == 0 {
		t.Fatal("Hops is zero after a routed exchange")
	}
	if st.EnvelopesSent == 0 || st.EnvelopesRecv == 0 {
		t.Fatalf("EnvelopesSent = %d, EnvelopesRecv = %d after a full exchange", st.EnvelopesSent, st.EnvelopesRecv)
	}
	snap := m.Obs().Snapshot()
	for _, name := range []string{
		obs.RTMsgs, obs.RTBytes,
		obs.RTKindMsgs("mailbox"), obs.RTKindMsgs("control"),
		obs.TermWaves,
	} {
		if snap.Counter(name) == 0 {
			t.Fatalf("counter %s is zero after a full exchange", name)
		}
	}
	// Mattern's double-wave rule: at least two completed waves.
	if waves := snap.Counter(obs.TermWaves); waves < 2 {
		t.Fatalf("%s = %d, want >= 2", obs.TermWaves, waves)
	}
	if h, ok := snap.Histograms[obs.MBEnvelopeBytes]; !ok || h.Count == 0 {
		t.Fatalf("histogram %s missing or empty", obs.MBEnvelopeBytes)
	}

	// One reset path for everything: ResetStats must zero every subsystem's
	// counters, per-rank vectors, and histograms at once.
	m.ResetStats()
	after := m.Obs().Snapshot()
	for name, v := range after.Counters {
		if v != 0 {
			t.Fatalf("counter %s = %d after ResetStats, want 0", name, v)
		}
	}
	for name, h := range after.Histograms {
		if h.Count != 0 {
			t.Fatalf("histogram %s count = %d after ResetStats, want 0", name, h.Count)
		}
	}
}
