package sssp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// fuzzRank builds the rank FuzzSSSPRound drives: the last of three ranks
// holding a star's hub row (hub 0, leaves 1–31, self-loops on the hub), whose
// first row is the end of the hub's chain and which masters leaves. The query
// starts at the hub, so the rank has nothing pending: it relaxes nothing in
// round 0, sends its empty records and waits on round 0, so its window is
// rounds 0 and 1.
func fuzzRank(tb testing.TB) *SSSP {
	const n, p, me = 32, 3, 2
	var star []graph.Edge
	for leaf := graph.Vertex(1); leaf < n; leaf++ {
		star = append(star, graph.Edge{Src: 0, Dst: leaf}, graph.Edge{Src: 0, Dst: 0}, graph.Edge{Src: 0, Dst: 0})
	}
	parts, err := partition.Build(rt.NewMachine(p), n, partition.RoundRobin(graph.Undirect(star)), partition.EdgeList, false)
	if err != nil {
		tb.Fatal(err)
	}
	part := parts[me]
	if part.IsMaster(part.StateStart) || part.StateStart != 0 || part.Master(0) != 0 {
		tb.Fatalf("rank %d's first row is %d, not a fragment of the hub's", me, part.StateStart)
	}
	s := New(part, 0, 9, func(int, []byte) {}, nil)
	for s.TryAdvance() {
	}
	if !s.sent || s.rounds.Round() != 0 {
		tb.Fatal("the rank did not send round 0")
	}
	return s
}

// FuzzSSSPRound feeds SSSP.Handle arbitrary records, as a peer process sends
// them in cluster mode, on the rank fuzzRank builds. Seed corpus:
// testdata/fuzz/FuzzSSSPRound/. Handle must not panic; a round record adds
// to the accumulator of the round it names exactly the triples that name a
// vertex the rank masters with a parent in the graph and a distance of at
// most MaxDist — as many as the record holds, whatever its count says — when
// its header is one a peer could send (a round in the window, a sender that
// is a peer), and nothing otherwise; a second copy of any record changes
// nothing; no round outside the window has an accumulator. Once every peer's
// empty record has completed round 0, each master holds the least of the
// round-0 distances accepted for it, the hub's fragment the distance its
// master's round-0 record carried, and the next round's bucket is the least
// one announced.
func FuzzSSSPRound(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		s := fuzzRank(t)
		s.Handle(payload)
		want := acceptedTriples(s, payload)
		for r := uint32(0); r <= 1; r++ {
			if got := s.rounds.Acc(r).triples; !bytes.Equal(got, want[r]) {
				t.Fatalf("round %d holds %d triple bytes, want %d", r, len(got), len(want[r]))
			}
		}
		acc0, acc1 := *s.rounds.Acc(0), *s.rounds.Acc(1)
		s.Handle(payload) // a duplicate is dropped
		if a := *s.rounds.Acc(0); !bytes.Equal(a.triples, acc0.triples) || a.next != acc0.next || a.split != acc0.split {
			t.Fatal("a second copy of the record changed round 0")
		}
		if a := *s.rounds.Acc(1); !bytes.Equal(a.triples, acc1.triples) || a.next != acc1.next || a.split != acc1.split {
			t.Fatal("a second copy of the record changed round 1")
		}
		if s.rounds.Acc(2) != nil || s.rounds.Acc(^uint32(0)) != nil {
			t.Fatal("an accumulator exists outside the window")
		}

		wantNext, wantSplit := announced(s, payload)
		for sender := 0; sender < s.part.P; sender++ {
			s.Handle(emptyRecord(sender, 0))
		}
		if !s.TryAdvance() || s.rounds.Round() != 1 {
			t.Fatal("round 0 did not complete")
		}
		if s.bucket != wantNext || s.done != (wantNext == noBucket) {
			t.Fatalf("next bucket %d (done %v), want %d", s.bucket, s.done, wantNext)
		}
		best := map[uint64]uint64{}
		for tr := want[0]; len(tr) > 0; tr = tr[tripleBytes:] {
			v, _ := core.ReadPair(tr)
			if d, seen := binary.LittleEndian.Uint64(tr[core.PairBytes:]), best[v]; seen == 0 || d < seen-1 {
				best[v] = d + 1 // 0: none accepted
			}
		}
		for v := s.lo; v < s.hi; v++ {
			want := best[v] - 1 // Unreached when none was accepted
			if got := s.Dist[v-uint64(s.part.StateStart)]; got != want {
				t.Fatalf("dist(%d) = %d, want %d", v, got, want)
			}
		}
		if s.Dist[0] != wantSplit {
			t.Fatalf("the hub's fragment is at %d, want %d", s.Dist[0], wantSplit)
		}
		for i := 0; i < 8 && s.TryAdvance(); i++ {
		}
		s.Idle()
	})
}

// emptyRecord is a round record with no triple that announces no bucket.
func emptyRecord(sender int, round uint32) []byte {
	rec := core.AppendRoundHeader(nil, kindRound, sender, round)
	rec = binary.LittleEndian.AppendUint64(rec, noBucket)
	rec = binary.LittleEndian.AppendUint64(rec, Unreached)
	return binary.LittleEndian.AppendUint32(rec, 0)
}

// peerHeader reports the round a record names when its header is one a peer
// could send the rank fuzzRank builds.
func peerHeader(s *SSSP, rec []byte) (round uint32, ok bool) {
	if len(rec) < recordHeader || rec[0] != kindRound {
		return 0, false
	}
	sender := binary.LittleEndian.Uint32(rec[1:])
	round = binary.LittleEndian.Uint32(rec[5:])
	return round, sender < uint32(s.part.P) && int(sender) != s.part.Rank && round <= 1
}

// acceptedTriples is what a record must add, per round of the window: the
// triples it holds that name a master of the rank, a parent in the graph and
// a distance of at most MaxDist, when its header is one a peer could send.
func acceptedTriples(s *SSSP, rec []byte) [2][]byte {
	var out [2][]byte
	round, ok := peerHeader(s, rec)
	if !ok {
		return out
	}
	count := int(binary.LittleEndian.Uint32(rec[recordHeader-4:]))
	for i, tr := 0, rec[recordHeader:]; i < count && len(tr) >= tripleBytes; i, tr = i+1, tr[tripleBytes:] {
		v, parent := core.ReadPair(tr)
		if v >= s.lo && v < s.hi && parent < s.part.NumVertices && binary.LittleEndian.Uint64(tr[core.PairBytes:]) <= MaxDist {
			out[round] = append(out[round], tr[:tripleBytes]...)
		}
	}
	return out
}

// announced is the bucket round 0 completes with and the hub fragment's
// distance after it, once rec and every peer's empty round-0 record are in:
// a round-0 record from a peer carries its next bucket, and one from the
// hub's master its split distance unless that is above MaxDist.
func announced(s *SSSP, rec []byte) (next, split uint64) {
	next, split = noBucket, Unreached
	if round, ok := peerHeader(s, rec); ok && round == 0 {
		next = binary.LittleEndian.Uint64(rec[core.RoundHeader:])
		if d := binary.LittleEndian.Uint64(rec[core.RoundHeader+8:]); binary.LittleEndian.Uint32(rec[1:]) == 0 && d <= MaxDist {
			split = d
		}
	}
	return next, split
}
