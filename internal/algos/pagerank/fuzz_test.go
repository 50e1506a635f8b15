package pagerank

import (
	"encoding/binary"
	"slices"
	"testing"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// FuzzPageRankRound feeds PR.Handle arbitrary records, as a peer process
// sends them in cluster mode, on the last of three ranks holding a star's
// hub row (hub 0, leaves 1–31, self-loops on the hub): a rank whose first row
// is the end of the hub's chain and which masters the leaves. The machine
// has swept iteration 0 and waits on round 0, so its window is rounds 0 and
// 1, and iteration 1's chain record is the one it expects. Seed corpus:
// testdata/fuzz/FuzzPageRankRound/. Handle must not panic; a round record
// adds to the accumulators exactly the sums of its pairs that name a vertex
// the rank masters, when its header is one a peer could send (a round in the
// window, a sender that is a peer), and nothing otherwise; a second copy of
// any record changes nothing; no round outside the window has an
// accumulator; and TryAdvance and Idle stay callable.
func FuzzPageRankRound(f *testing.F) {
	const n, p, me = 32, 3, 2
	var star []graph.Edge
	for leaf := graph.Vertex(1); leaf < n; leaf++ {
		star = append(star, graph.Edge{Src: 0, Dst: leaf}, graph.Edge{Src: 0, Dst: 0}, graph.Edge{Src: 0, Dst: 0})
	}
	edges := graph.Undirect(star)
	parts := make([]*partition.Part, p)
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		var err error
		if parts[r.Rank()], err = partition.BuildEdgeList(r, edges[r.Rank()*len(edges)/p:(r.Rank()+1)*len(edges)/p], n); err != nil {
			panic(err)
		}
	})
	part := parts[me]
	if part.IsMaster(part.StateStart) || part.StateStart != 0 {
		f.Fatalf("rank %d's first row is %d, not a fragment of the hub's", me, part.StateStart)
	}
	noSend := func(int, []byte) {}
	swept := func() *PR {
		pr := New(part, 3, noSend)
		for pr.TryAdvance() {
		}
		return pr
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		pr := swept()
		before := pr.mass()
		pr.Handle(payload)
		if got, want := pr.mass()-before, acceptedMass(pr, payload); got != want {
			t.Fatalf("the record added %d to the accumulators, want %d", got, want)
		}
		cur := slices.Clone(*pr.sums.Acc(0))
		next := slices.Clone(*pr.sums.Acc(1))
		chainC, chainIter := pr.chainC, pr.chainIter
		pr.Handle(payload) // a duplicate is dropped
		if !slices.Equal(*pr.sums.Acc(0), cur) || !slices.Equal(*pr.sums.Acc(1), next) ||
			pr.chainC != chainC || pr.chainIter != chainIter {
			t.Fatal("a second copy of the record changed the machine")
		}
		if pr.sums.Acc(2) != nil || pr.sums.Acc(^uint32(0)) != nil {
			t.Fatal("an accumulator exists outside the window")
		}
		for i := 0; i < 8 && pr.TryAdvance(); i++ {
		}
		pr.Idle()
	})
}

// mass is the sum of everything the window's two accumulators hold.
func (p *PR) mass() uint64 {
	var total uint64
	for r := p.sums.Round(); r <= p.sums.Round()+1; r++ {
		for _, s := range *p.sums.Acc(r) {
			total += s
		}
	}
	return total
}

// acceptedMass is what a round record must add on the fresh swept machine of
// FuzzPageRankRound: the sums of the pairs naming a master, when the header
// is one a peer could send.
func acceptedMass(pr *PR, rec []byte) uint64 {
	if len(rec) < 13 || rec[0] != kindRound {
		return 0
	}
	sender := binary.LittleEndian.Uint32(rec[1:])
	round := binary.LittleEndian.Uint32(rec[5:])
	if sender >= uint32(pr.part.P) || int(sender) == pr.part.Rank || round > 1 {
		return 0
	}
	var total uint64
	count := int(binary.LittleEndian.Uint32(rec[9:]))
	for i, pairs := 0, rec[13:]; i < count && len(pairs) >= core.PairBytes; i, pairs = i+1, pairs[core.PairBytes:] {
		if v, sum := core.ReadPair(pairs); v >= pr.lo && v < pr.hi {
			total += sum
		}
	}
	return total
}
