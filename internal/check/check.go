// Package check is the correctness-tooling subsystem for the message plane
// and its clients: conservation-law invariant checkers over the routed
// aggregating mailbox (§III-B), a randomized differential harness that runs
// every distributed algorithm against the sequential references in
// internal/ref across topologies, rank counts and flush thresholds, and a
// hostile-input envelope corpus driving the hardened envelope decoder.
//
// The invariants are the laws a quiesced traversal cannot legally violate:
//
//   - record conservation:  Σ sent == Σ delivered (+ Σ pending mid-flight)
//   - envelope conservation: Σ envelopes sent == Σ envelopes received
//   - hop bound:             Σ hops  ≤ diameter × Σ records sent
//   - channel bound:         per rank, ChannelsUsed ≤ Topology.MaxChannels()
//   - clean decode:          Σ decode errors == 0
//   - termination drain:     per query, Σ S == Σ R, where a rank's S and R
//     are its detector's counts of the query's tagged records sent and
//     delivered (the gap the four-counter termination waves must see drain)
//   - push accounting:       per rank, pushed − ghost-filtered − applied in
//     place + replica-forwarded + protocol records sent == mailbox records
//     sent, and visitors received + protocol records received ==
//     mailbox records delivered, where a protocol record is one a runner
//     sends outside its visitor queue (a direction-optimizing BFS, alone or
//     marking cc's giant component, PageRank's rounds and k-core's first
//     peel)
//   - one ledger:            per rank, every obs cell the engine's rank loop
//     publishes from a core.Stats or mailbox.Stats field equals that field
//     once the query is done (LedgerMirrored; asserted on every clean
//     differential case)
//   - edge tags:             per rank, what the partition build resolved into
//     each stored target word is what the owner table and the rank's own edge
//     counts say (EdgeTags; asserted on every differential case, through the
//     page cache when the case runs out of core)
//
// These checks are cheap (they read the per-rank stats a query leaves on its
// engine ticket) and are meant to run after every traversal in tests, keeping the message plane honest as
// perf work (buffer pooling, async flush) lands on top of it.
package check

import (
	"fmt"
	"slices"
	"strings"

	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/partition"
)

// Violation describes one failed invariant.
type Violation struct {
	Invariant string // short machine-usable name, e.g. "record-conservation"
	Detail    string // human-readable explanation with the observed numbers
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// violations builds a []Violation with printf-style details.
type violations []Violation

func (vs *violations) addf(invariant, format string, args ...any) {
	*vs = append(*vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Error folds a violation list into a single error (nil when empty).
func Error(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return fmt.Errorf("check: %d invariant violation(s):\n  %s", len(vs), strings.Join(parts, "\n  "))
}

// MailboxQuiesced checks the conservation laws over per-rank mailbox stats
// after a fully quiesced exchange: no records may remain in aggregation
// buffers or in flight, so sent and delivered must balance exactly.
func MailboxQuiesced(topo mailbox.Topology, stats []mailbox.Stats) []Violation {
	pending := make([]int, len(stats))
	return MailboxInFlight(topo, stats, pending)
}

// MailboxInFlight checks the conservation laws at a mid-traversal
// synchronization point: pending[r] is rank r's Box.PendingRecords() — the
// records parked in its aggregation buffers — and the transport must hold no
// undrained envelopes when the snapshot is taken (poll-then-barrier).
func MailboxInFlight(topo mailbox.Topology, stats []mailbox.Stats, pending []int) []Violation {
	var vs violations
	if len(pending) != len(stats) {
		vs.addf("arity", "pending has %d entries for %d ranks", len(pending), len(stats))
		return vs
	}
	var t mailbox.Stats
	var pend uint64
	for r, s := range stats {
		t.Add(s)
		pend += uint64(pending[r])
		if topo != nil && s.ChannelsUsed > topo.MaxChannels() {
			vs.addf("channel-bound", "rank %d used %d next-hop channels, topology %s bounds it at %d",
				r, s.ChannelsUsed, topo.Name(), topo.MaxChannels())
		}
	}
	if t.RecordsSent != t.RecordsDelivered+pend {
		vs.addf("record-conservation",
			"Σsent=%d != Σdelivered=%d + Σpending-in-buffers=%d (lost or duplicated records)",
			t.RecordsSent, t.RecordsDelivered, pend)
	}
	if t.EnvelopesSent != t.EnvelopesRecv {
		vs.addf("envelope-conservation", "Σenvelopes sent=%d != Σenvelopes received=%d", t.EnvelopesSent, t.EnvelopesRecv)
	}
	if topo != nil {
		if d := uint64(topo.Diameter()); t.Hops > d*t.RecordsSent {
			vs.addf("hop-bound", "Σhops=%d exceeds diameter(%d) × Σsent(%d) = %d on %s",
				t.Hops, d, t.RecordsSent, d*t.RecordsSent, topo.Name())
		}
	}
	if t.Hops < t.RecordsForwarded {
		vs.addf("hop-bound", "Σhops=%d < Σforwarded=%d (every forward is at least one hop)", t.Hops, t.RecordsForwarded)
	}
	if t.DecodeErrors != 0 {
		vs.addf("clean-decode", "Σdecode errors=%d on a healthy exchange (envelope corruption)", t.DecodeErrors)
	}
	return vs
}

// QueryConservation checks one quiesced query's own conservation law from its
// per-rank stats (engine.Ticket.Stats), whatever else shared the message
// plane. A query's tagged record counts are its termination detector's S and
// R, so globally ΣS == ΣR: the S−R in-flight gap the four-counter waves watch
// drained, and no tagged record is stranded or leaked anywhere, including
// after a mid-flight cancellation — a cancelled query stops applying
// visitors, but its records still drain and are still counted.
func QueryConservation(stats []core.Stats) []Violation {
	var vs violations
	if total := core.Sum(stats); total.Mailbox.RecordsSent != total.Mailbox.RecordsDelivered {
		vs.addf("termination-drain", "ΣS=%d records sent != ΣR=%d delivered after detection (the S−R gap never drained)",
			total.Mailbox.RecordsSent, total.Mailbox.RecordsDelivered)
	}
	return vs
}

// Traversal checks every conservation law over the stats of a query that had
// its engine to itself (engine.RunOnce), so the whole mailbox ledger is its
// own: the per-query laws, envelope conservation, the hop and channel bounds,
// clean decode, and the runner's agreement with the mailbox — what its queue
// and its protocol received is what the mailbox delivered (a push applied in
// place on its master rank is neither), and every push and every protocol
// record is accounted for.
func Traversal(topo mailbox.Topology, stats []core.Stats) []Violation {
	mb := make([]mailbox.Stats, len(stats))
	for r, s := range stats {
		mb[r] = s.Mailbox
	}
	vs := violations(append(MailboxQuiesced(topo, mb), QueryConservation(stats)...))
	for r, s := range stats {
		if got := s.Received + s.ProtocolReceived; got != s.Mailbox.RecordsDelivered {
			vs.addf("queue-agreement", "rank %d: visitors received(%d) + protocol records received(%d) = %d != mailbox records delivered=%d",
				r, s.Received, s.ProtocolReceived, got, s.Mailbox.RecordsDelivered)
		}
		// Every visitor push gets ghost-filtered, is applied in place on its
		// master rank, or becomes a mailbox send; replica forwards and
		// protocol records send again. Anything else is a leak.
		if want := s.Pushed - s.GhostFiltered - s.Local + s.Forwarded + s.ProtocolSent; want != s.Mailbox.RecordsSent {
			vs.addf("push-accounting",
				"rank %d: pushed(%d) − ghost-filtered(%d) − applied-locally(%d) + replica-forwarded(%d) + protocol(%d) = %d != mailbox records sent=%d",
				r, s.Pushed, s.GhostFiltered, s.Local, s.Forwarded, s.ProtocolSent, want, s.Mailbox.RecordsSent)
		}
	}
	return vs
}

// LedgerMirrored checks the one-ledger contract at quiescence (DESIGN.md §9,
// "Counters on the hot path"): the hot paths write only the plain core.Stats
// and mailbox.Stats fields, and the engine's rank loop publishes their growth
// to the registry from its own table (internal/engine, ledger.go), so once a
// query is done every such per-rank cell must equal the field it mirrors, on
// every rank. The table here is written independently of the engine's, so
// that each checks the other. stats must be those of the only query the
// machine has run since its registry was last reset (engine.RunOnce on a
// fresh machine).
func LedgerMirrored(reg *obs.Registry, stats []core.Stats) []Violation {
	mirrors := []struct {
		name  string
		field func(core.Stats) uint64
	}{
		{obs.CorePushed, func(s core.Stats) uint64 { return s.Pushed }},
		{obs.CoreGhostFiltered, func(s core.Stats) uint64 { return s.GhostFiltered }},
		{obs.CoreLocal, func(s core.Stats) uint64 { return s.Local }},
		{obs.CoreReceived, func(s core.Stats) uint64 { return s.Received }},
		{obs.CoreQueued, func(s core.Stats) uint64 { return s.Queued }},
		{obs.CoreExecuted, func(s core.Stats) uint64 { return s.Executed }},
		{obs.CoreForwarded, func(s core.Stats) uint64 { return s.Forwarded }},
		{obs.CoreParked, func(s core.Stats) uint64 { return s.Parked }},
		{obs.CoreUnparked, func(s core.Stats) uint64 { return s.Unparked }},
		{obs.MBRecordsSent, func(s core.Stats) uint64 { return s.Mailbox.RecordsSent }},
		{obs.MBRecordsDelivered, func(s core.Stats) uint64 { return s.Mailbox.RecordsDelivered }},
		{obs.MBRecordsForwarded, func(s core.Stats) uint64 { return s.Mailbox.RecordsForwarded }},
		{obs.MBEnvelopesSent, func(s core.Stats) uint64 { return s.Mailbox.EnvelopesSent }},
		{obs.MBEnvelopesRecv, func(s core.Stats) uint64 { return s.Mailbox.EnvelopesRecv }},
		{obs.MBHops, func(s core.Stats) uint64 { return s.Mailbox.Hops }},
		{obs.MBFlushes, func(s core.Stats) uint64 { return s.Mailbox.Flushes }},
		{obs.MBDecodeErrors, func(s core.Stats) uint64 { return s.Mailbox.DecodeErrors }},
		{obs.MBRetransmits, func(s core.Stats) uint64 { return s.Mailbox.Retransmits }},
		{obs.MBDupDropped, func(s core.Stats) uint64 { return s.Mailbox.DupDropped }},
		{obs.MBCorruptDropped, func(s core.Stats) uint64 { return s.Mailbox.CorruptDropped }},
		{obs.MBStaleDropped, func(s core.Stats) uint64 { return s.Mailbox.StaleDropped }},
		{obs.MBAcksSent, func(s core.Stats) uint64 { return s.Mailbox.AcksSent }},
		{obs.MBPoolGets, func(s core.Stats) uint64 { return s.Mailbox.PoolGets }},
		{obs.MBPoolHits, func(s core.Stats) uint64 { return s.Mailbox.PoolHits }},
		{obs.MBPoolRecycledBytes, func(s core.Stats) uint64 { return s.Mailbox.PoolBytesRecycled }},
	}
	var vs violations
	for _, m := range mirrors {
		cells := reg.PerRank(m.name, len(stats))
		for r, s := range stats {
			if got, want := cells.Rank(r), m.field(s); got != want {
				vs.addf("one-ledger", "rank %d: registry %s=%d != Stats field=%d", r, m.name, got, want)
			}
		}
	}
	return vs
}

// EdgeTags checks the tags in a partition's stored target words against what
// they claim to have resolved (partition.Part, csr.Target), reading the rows
// through whatever store holds them: the local bit is set exactly on targets
// the rank masters; a slot names the target's own vertex and its master rank;
// a remote target has a slot exactly when the rank stores at least two edges
// to it (unless every slot a word can name is taken); and slots are numbered
// by that edge count descending, then vertex — the order that makes every
// ghost cap a prefix; and UntaggedTo counts the remote edges with no slot by
// their target's master.
func EdgeTags(part *partition.Part) []Violation {
	var vs violations
	if len(part.SlotVertex) != len(part.SlotOwner) {
		vs.addf("edge-tags", "rank %d: %d slot vertices, %d slot owners", part.Rank, len(part.SlotVertex), len(part.SlotOwner))
		return vs
	}
	counts := map[graph.Vertex]int{}
	untagged := make([]int, part.P)
	for row := 0; row < part.CSR.NumRows(); row++ {
		for _, t := range part.CSR.Row(row) {
			if v := t.Vertex(); !part.IsMaster(v) {
				counts[v]++
				if t.Slot() < 0 {
					untagged[part.Master(v)]++
				}
			}
		}
	}
	if !slices.Equal(part.UntaggedTo, untagged) {
		vs.addf("edge-tags", "rank %d: untagged edges by master %v, counted %v", part.Rank, part.UntaggedTo, untagged)
	}
	for row := 0; row < part.CSR.NumRows(); row++ {
		for _, t := range part.CSR.Row(row) {
			v, slot, bad := t.Vertex(), t.Slot(), ""
			switch {
			case t.Local() != part.IsMaster(v):
				bad = "local bit against the master range"
			case slot >= len(part.SlotVertex) || (slot >= 0 && t.Local()):
				bad = "a slot past the rank's last, or on a local target"
			case slot >= 0 && (part.SlotVertex[slot] != v || int(part.SlotOwner[slot]) != part.Master(v)):
				bad = "another vertex's slot, or the wrong owner in it"
			case !t.Local() && (slot >= 0) != (counts[v] >= 2) && !(slot < 0 && len(part.SlotVertex) == csr.MaxSlots):
				bad = "slot presence against the edge count"
			}
			if bad != "" {
				vs.addf("edge-tags", "rank %d: edge %d-%d, word %#x (%d local edges to it, master %d): %s",
					part.Rank, part.Vertex(row), v, uint64(t), counts[v], part.Master(v), bad)
			}
		}
	}
	for s := 1; s < len(part.SlotVertex); s++ {
		a, b := part.SlotVertex[s-1], part.SlotVertex[s]
		if counts[a] < counts[b] || (counts[a] == counts[b] && a >= b) {
			vs.addf("edge-tags", "rank %d: slot %d (vertex %d, %d edges) before slot %d (vertex %d, %d edges)",
				part.Rank, s-1, a, counts[a], s, b, counts[b])
		}
	}
	return vs
}
