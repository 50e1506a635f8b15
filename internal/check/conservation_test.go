package check

import (
	"strings"
	"testing"

	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
)

// TestConservationCrossTopology is the seeded conservation matrix: every
// algorithm × every routing topology × several rank counts × the resident
// fractions (fully resident, and two where visits park on absent pages) ×
// the ghost settings (bfs, sssp and cc filter on the table; for the rest it
// must change nothing), each run differentially against internal/ref AND
// through the full invariant set (record/envelope conservation, hop and
// channel bounds, detector S/R agreement). Graphs stay tiny — the value is
// the cross product.
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
				ghosts := ghostGrid
				if algo == engine.AlgoBFSDO || algo == engine.AlgoTriangles {
					ghosts = []int{0}
				}
				for _, resident := range residentGrid {
					for _, g := range ghosts {
						c := Case{
							Algo:       algo,
							Seed:       0xC0FFEE ^ uint64(p),
							N:          n,
							EdgeFactor: ef,
							Ranks:      p,
							Topo:       topo,
							FlushBytes: 64,
							K:          2,
							Ghosts:     g,
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
}

// TestConservationSeesGhostsAndLocalApplies: the laws above are only worth
// asserting if the sweep's tiny graphs drive every sender-side decision. With
// the default tables the label algorithms must filter some pushes, and every
// visitor algorithm applies some in place; with the setting off, or for a
// counted algorithm (k-core, triangles), nothing may be filtered. PageRank
// pushes no visitors at all — it sums in counted rounds, whatever the ghost
// setting — so it filters and applies nothing. cc's marking takes the hub's
// component whole, so cc runs on four interleaved copies of the graph: its
// label propagation has the other three.
func TestConservationSeesGhostsAndLocalApplies(t *testing.T) {
	base := Case{Seed: 0xC0FFEE ^ 4, N: 32, EdgeFactor: 3, Ranks: 4, Topo: "2d",
		FlushBytes: 64, K: 6} // k = 6 peels most of this graph; 2 peels nothing
	for _, tc := range []struct {
		algo             engine.Algo
		ghosts           int
		filters, inPlace bool
	}{
		{"bfs", 0, true, true}, {"sssp", 0, true, true}, {"cc", 0, true, true},
		{"kcore", 0, false, true}, {"pagerank", 0, false, false},
		{"bfs", -1, false, true}, {"cc", -1, false, true}, {"kcore", -1, false, true},
		{"pagerank", -1, false, false},
		{"triangles", 0, false, true},
	} {
		c := base
		c.Algo, c.Ghosts = tc.algo, tc.ghosts
		if c.Algo == "cc" {
			c.Graph, c.N = interleaved(base.Edges(), 4), 4*base.N
		}
		stats, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		var filtered, local uint64
		for _, s := range stats {
			filtered += s.GhostFiltered
			local += s.Local
		}
		if (filtered > 0) != tc.filters {
			t.Errorf("%s: %d pushes ghost-filtered, want filtering = %v", c, filtered, tc.filters)
		}
		if (local > 0) != tc.inPlace {
			t.Errorf("%s: %d pushes applied in place, want applying in place = %v", c, local, tc.inPlace)
		}
	}
}

// interleaved returns k copies of an edge list, copy i on the ids v·k + i: a
// graph of at least k components, each spread over every rank.
func interleaved(edges []graph.Edge, k uint64) []graph.Edge {
	out := make([]graph.Edge, 0, len(edges)*int(k))
	for i := uint64(0); i < k; i++ {
		for _, e := range edges {
			out = append(out, graph.Edge{Src: e.Src*graph.Vertex(k) + graph.Vertex(i), Dst: e.Dst*graph.Vertex(k) + graph.Vertex(i)})
		}
	}
	return out
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
