package check

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// pollHostile injects one raw envelope into rank 0's transport inbox and
// polls a mailbox over a p-rank machine, returning the delivered records and
// the box stats. Poll must never panic, whatever the envelope holds.
func pollHostile(p int, topo mailbox.Topology, payload []byte) (recs []mailbox.Record, st mailbox.Stats) {
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		if r.Rank() != 0 {
			return
		}
		r.Send(0, rt.KindMailbox, 0, payload)
		box := mailbox.New(r, topo, nil)
		recs = box.Poll()
		st = box.Stats()
	})
	return recs, st
}

// TestHostileEnvelopeCorpus drives Box.Poll with every adversarial envelope:
// truncated, oversized-length, zero-length, and misrouted-dest records. The
// pre-hardening decoder panicked on the oversized and truncated entries via
// a slice out-of-range; now each malformed datum is counted and skipped and
// well-formed records around the damage still arrive.
func TestHostileEnvelopeCorpus(t *testing.T) {
	for _, h := range HostileCorpus() {
		t.Run(h.Name, func(t *testing.T) {
			topo := mailbox.NewDirect(HostileCorpusRanks)
			recs, st := pollHostile(HostileCorpusRanks, topo, h.Payload)
			if len(recs) != h.WantDelivered {
				t.Fatalf("delivered %d records, want %d", len(recs), h.WantDelivered)
			}
			if st.DecodeErrors != h.WantErrors {
				t.Fatalf("DecodeErrors = %d, want %d", st.DecodeErrors, h.WantErrors)
			}
			// Accounting stays coherent even on hostile input.
			if st.RecordsDelivered != uint64(h.WantDelivered) {
				t.Fatalf("RecordsDelivered = %d, want %d", st.RecordsDelivered, h.WantDelivered)
			}
		})
	}
}

// TestHostileCorpusAcrossTopologies re-runs the corpus under 2D and 3D
// routing: misrouted dests must be rejected before NextHop sees them (an
// out-of-range dest would otherwise drive grid arithmetic off the topology).
func TestHostileCorpusAcrossTopologies(t *testing.T) {
	for _, name := range Topologies() {
		topo, err := mailbox.ByName(name, HostileCorpusRanks)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range HostileCorpus() {
			recs, st := pollHostile(HostileCorpusRanks, topo, h.Payload)
			if len(recs) != h.WantDelivered || st.DecodeErrors != h.WantErrors {
				t.Fatalf("%s/%s: delivered=%d errors=%d, want %d/%d",
					name, h.Name, len(recs), st.DecodeErrors, h.WantDelivered, h.WantErrors)
			}
		}
	}
}

// TestEnvelopeFramingMatchesMailbox proves check.Envelope and the mailbox
// agree on framing, both ways: an envelope built here round-trips through
// Poll with the exact payload bytes and tags, and the envelope a Box ships
// for the same records is byte for byte the one built here — runs of one
// tag and width joined, a zero-width record alone, a new tag or width
// opening a run.
func TestEnvelopeFramingMatchesMailbox(t *testing.T) {
	recs := []EnvRecord{
		{Payload: []byte("alpha")}, {Payload: []byte("bravo")}, {}, {},
		{Payload: []byte("charlie-delta")}, {Tag: 7, Payload: []byte("delta-charlie")},
		{Tag: 7, Payload: []byte("echo!")}, {Tag: 7, Payload: []byte("golf!")},
	}
	env := Envelope(recs...)
	got, st := pollHostile(2, mailbox.NewDirect(2), env)
	if len(got) != len(recs) {
		t.Fatalf("delivered %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if string(rec.Payload) != string(recs[i].Payload) || rec.Tag != recs[i].Tag {
			t.Fatalf("record %d = %d/%q, want %d/%q", i, rec.Tag, rec.Payload, recs[i].Tag, recs[i].Payload)
		}
	}
	if st.DecodeErrors != 0 {
		t.Fatalf("well-formed envelope counted %d decode errors", st.DecodeErrors)
	}

	var shipped [][]byte
	m := rt.NewMachine(2)
	m.Run(func(r *rt.Rank) {
		if r.Rank() == 1 {
			box := mailbox.New(r, mailbox.NewDirect(2), nil)
			for _, rec := range recs {
				box.SendTagged(0, rec.Tag, rec.Payload)
			}
			box.FlushAll()
		}
		r.Barrier()
		if r.Rank() == 0 {
			for _, msg := range r.Recv(rt.KindMailbox) {
				shipped = append(shipped, msg.Payload)
			}
		}
	})
	if len(shipped) != 1 || !bytes.Equal(shipped[0], env) {
		t.Fatalf("the box shipped %x, check.Envelope frames %x", shipped, env)
	}
}

// TestEnvelopeFIFOThroughIntermediateHop pins per-(origin, dest) FIFO
// across a 2d route's forward hop: on a 2×2 grid, rank 3's records to rank 0
// travel along its row to rank 2, then up the column, and at rank 2 they join
// the runs rank 2 stages for rank 0 of its own records. Each origin's sequence
// numbers must arrive in the order they were sent, whatever the runs,
// envelopes and interleaving did to them.
func TestEnvelopeFIFOThroughIntermediateHop(t *testing.T) {
	const p, perOrigin = 4, 3000
	topo := mailbox.NewGrid2D(p)
	if topo.Rows != 2 || topo.Cols != 2 || topo.NextHop(3, 0) != 2 {
		t.Fatalf("want a 2×2 grid routing 3→0 through rank 2, got %+v", topo)
	}
	next := make([]uint32, p)
	var delivered int
	var failure string
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		det := termination.New(r)
		box := mailbox.New(r, topo, det, mailbox.WithFlushBytes(256))
		if r.Rank() != 0 {
			rec := make([]byte, 8)
			for seq := 0; seq < perOrigin; seq++ {
				binary.LittleEndian.PutUint32(rec[0:], uint32(r.Rank()))
				binary.LittleEndian.PutUint32(rec[4:], uint32(seq))
				// Every tenth record another width and tag: runs break and
				// restart mid-stream without reordering anything.
				if seq%10 == 0 {
					box.SendTagged(0, 1, append(rec, 0))
				} else {
					box.Send(0, rec)
				}
				if seq%97 == 0 {
					box.Poll() // forward what came through this rank so far
				}
			}
		}
		for {
			for _, rec := range box.Poll() {
				from := binary.LittleEndian.Uint32(rec.Payload[0:])
				seq := binary.LittleEndian.Uint32(rec.Payload[4:])
				if seq != next[from] && failure == "" {
					failure = fmt.Sprintf("from %d: got seq %d, want %d", from, seq, next[from])
				}
				next[from] = seq + 1
				delivered++
			}
			box.FlushAll()
			if det.Pump(box.Idle()) {
				break
			}
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
	if delivered != (p-1)*perOrigin {
		t.Fatalf("delivered %d records, want %d", delivered, (p-1)*perOrigin)
	}
}
