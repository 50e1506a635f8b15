package check

import (
	"strings"
	"testing"

	"havoqgt/internal/mailbox"
)

// TestConservationCrossTopology is the seeded conservation matrix: every
// algorithm × every routing topology × several rank counts × the resident
// fractions (fully resident, and two where visits park on absent pages),
// each run differentially against internal/ref AND through the full
// invariant set (record/envelope conservation, hop and channel bounds,
// detector S/R agreement). Graphs stay tiny — the value is the cross product.
func TestConservationCrossTopology(t *testing.T) {
	ranks := []int{1, 4, 9}
	n, ef := uint64(32), 3
	if testing.Short() {
		ranks = []int{1, 4}
		n, ef = 24, 2
	}
	for _, algo := range Algos() {
		for _, topo := range Topologies() {
			for _, p := range ranks {
				for _, resident := range residentGrid {
					c := Case{
						Algo:       algo,
						Seed:       0xC0FFEE ^ uint64(p),
						N:          n,
						EdgeFactor: ef,
						Ranks:      p,
						Topo:       topo,
						FlushBytes: 64,
						K:          2,
						Resident:   resident,
					}
					t.Run(c.String(), func(t *testing.T) {
						if err := c.Run(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestConservationDegenerateFlushThresholds pins the flush-threshold
// extremes on one algorithm per topology: 1 byte (every record ships alone —
// maximum envelope count) and 1 MiB (nothing ships until idle FlushAll — the
// path that used to corrupt ChannelsUsed).
func TestConservationDegenerateFlushThresholds(t *testing.T) {
	for _, topo := range Topologies() {
		for _, flush := range []int{1, 1 << 20} {
			c := Case{
				Algo:       "bfs",
				Seed:       7,
				N:          24,
				EdgeFactor: 2,
				Ranks:      4,
				Topo:       topo,
				FlushBytes: flush,
			}
			t.Run(c.String(), func(t *testing.T) {
				if err := c.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestViolationReporting sanity-checks the checker itself: fabricated stats
// that lose records, leak envelopes, blow the channel bound, or hide decode
// errors must each trip their invariant — a checker that can't fail proves
// nothing.
func TestViolationReporting(t *testing.T) {
	topo := mailbox.NewGrid2D(16)
	trips := func(stats []mailbox.Stats, invariant string) {
		t.Helper()
		vs := MailboxQuiesced(topo, stats)
		for _, v := range vs {
			if v.Invariant == invariant {
				if !strings.Contains(Error(vs).Error(), invariant) {
					t.Fatalf("Error() dropped violation %q", invariant)
				}
				return
			}
		}
		t.Fatalf("fabricated %s breach not detected; got %v", invariant, vs)
	}
	trips([]mailbox.Stats{{RecordsSent: 5, RecordsDelivered: 4}}, "record-conservation")
	trips([]mailbox.Stats{{EnvelopesSent: 3, EnvelopesRecv: 2}}, "envelope-conservation")
	trips([]mailbox.Stats{{RecordsSent: 2, RecordsDelivered: 2, Hops: 100}}, "hop-bound")
	trips([]mailbox.Stats{{ChannelsUsed: topo.MaxChannels() + 1}}, "channel-bound")
	trips([]mailbox.Stats{{DecodeErrors: 1}}, "clean-decode")

	// And a clean set passes.
	clean := []mailbox.Stats{
		{RecordsSent: 4, RecordsDelivered: 3, EnvelopesSent: 2, EnvelopesRecv: 1, Hops: 3, ChannelsUsed: 2},
		{RecordsDelivered: 1, RecordsForwarded: 1, EnvelopesSent: 1, EnvelopesRecv: 2, Hops: 1, ChannelsUsed: 1},
	}
	if vs := MailboxQuiesced(topo, clean); len(vs) != 0 {
		t.Fatalf("clean stats flagged: %v", vs)
	}
}
