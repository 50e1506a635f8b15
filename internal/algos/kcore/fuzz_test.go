package kcore

import (
	"encoding/binary"
	"slices"
	"testing"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// FuzzKCoreRound feeds KCore.Handle arbitrary records, as a peer process
// sends them in cluster mode, at k = 3 on the last of three ranks holding a
// star whose hub 0 has leaves 1–31 on a ring, and pendants 32–47 on leaves
// 1–16, which die in round 0. The rank masters 20–47: live leaves and dead
// pendants. It has swept its rows and waits on round 0, so its window is
// rounds 0 and 1; round 1 has no accumulator to merge into. Seed corpus:
// testdata/fuzz/FuzzKCoreRound/. Handle must not panic; a second copy of the
// record changes nothing; and once every peer's (empty) record has completed
// the round, each live master's counter has lost exactly the counts of the
// record's pairs that name it, with saturation at 0, when the record's
// header is one a peer could send for round 0 — and nothing otherwise. No
// counter reads above its degree.
func FuzzKCoreRound(f *testing.F) {
	const n, p, me, k = 48, 3, 2, 3
	var pairs []graph.Edge
	for leaf := graph.Vertex(1); leaf < 32; leaf++ {
		pairs = append(pairs, graph.Edge{Src: 0, Dst: leaf}, graph.Edge{Src: leaf, Dst: leaf%31 + 1})
	}
	for v := graph.Vertex(32); v < n; v++ {
		pairs = append(pairs, graph.Edge{Src: v, Dst: v - 31})
	}
	parts, err := partition.Build(rt.NewMachine(p), n, partition.RoundRobin(graph.Simplify(graph.Undirect(pairs))),
		partition.EdgeList, false)
	if err != nil {
		f.Fatal(err)
	}
	part := parts[me]
	noSend := func(int, []byte) {}
	swept := func() *KCore {
		a := New(part, k, noSend, nil)
		for a.TryAdvance() {
		}
		return a
	}
	// complete delivers every peer's empty round-0 record and completes the
	// round.
	complete := func(a *KCore) {
		for sender := 0; sender < p; sender++ {
			a.Handle(binary.LittleEndian.AppendUint32(core.AppendRoundHeader(nil, kindRound, sender, 0), 0))
		}
		for a.TryAdvance() {
		}
		if !a.Done() {
			f.Fatal("round 0 did not complete")
		}
	}
	undisturbed := swept()
	complete(undisturbed)

	f.Fuzz(func(t *testing.T, payload []byte) {
		a := swept()
		a.Handle(payload)
		counts := slices.Clone(*a.notices.Acc(0))
		a.Handle(payload) // a duplicate is dropped
		if !slices.Equal(*a.notices.Acc(0), counts) {
			t.Fatal("a second copy of the record changed the round's counts")
		}
		if len(*a.notices.Acc(1)) != 0 {
			t.Fatal("round 1 has an accumulator")
		}
		complete(a)
		accepted := acceptedCounts(a, payload)
		for v := a.lo; v < a.hi; v++ {
			i := int(v - uint64(part.StateStart))
			want := undisturbed.Core[i]
			if a.Alive[i] {
				want -= uint32(min(uint64(want), accepted[v-a.lo]))
			}
			if a.Core[i] != want {
				t.Fatalf("vertex %d's counter reads %d, want %d", v, a.Core[i], want)
			}
			if uint64(a.Core[i]) > part.GlobalDegree(graph.Vertex(v)) {
				t.Fatalf("vertex %d's counter reads %d, above its degree %d", v, a.Core[i], part.GlobalDegree(graph.Vertex(v)))
			}
		}
		a.Idle()
	})
}

// acceptedCounts is what a round record must subtract, per master, on the
// swept machine of FuzzKCoreRound: the counts of its pairs naming a master,
// when its header is one a peer could send for round 0.
func acceptedCounts(a *KCore, rec []byte) []uint64 {
	counts := make([]uint64, a.hi-a.lo)
	if len(rec) < core.RoundHeader+4 || rec[0] != kindRound {
		return counts
	}
	sender := binary.LittleEndian.Uint32(rec[1:])
	if sender >= uint32(a.part.P) || int(sender) == a.part.Rank || binary.LittleEndian.Uint32(rec[5:]) != 0 {
		return counts
	}
	n := int(binary.LittleEndian.Uint32(rec[core.RoundHeader:]))
	for i, pairs := 0, rec[core.RoundHeader+4:]; i < n && len(pairs) >= core.PairBytes; i, pairs = i+1, pairs[core.PairBytes:] {
		if v, c := core.ReadPair(pairs); v >= a.lo && v < a.hi {
			counts[v-a.lo] += c
		}
	}
	return counts
}
