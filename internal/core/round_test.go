package core_test

import (
	"testing"

	"havoqgt/internal/core"
)

// roundRecord is a round record from sender naming round, with one body byte.
func roundRecord(sender int, round uint32, body byte) []byte {
	return append(core.AppendRoundHeader(nil, 7, sender, round), body)
}

// TestRoundExchangeCountsOnePerPeer: a round completes on a rank when each
// of its p−1 peers' records and its own contribution have arrived, not
// before, and records for the next round accumulate in the meantime without
// counting toward this one.
func TestRoundExchangeCountsOnePerPeer(t *testing.T) {
	const p, me = 4, 2
	x := core.NewRoundExchange(p, me, 5, []byte{}, []byte{})
	merge := func(rec []byte) bool {
		acc, body, ok := x.Accept(rec)
		if ok {
			*acc = append(*acc, body...)
		}
		return ok
	}
	if !merge(roundRecord(0, 6, 'n')) {
		t.Fatal("a record for the next round was dropped")
	}
	for _, sender := range []int{0, 1, 3} {
		if _, ready := x.Ready(); ready {
			t.Fatalf("round ready before sender %d arrived", sender)
		}
		if !merge(roundRecord(sender, 5, byte('a'+sender))) {
			t.Fatalf("sender %d's record dropped", sender)
		}
	}
	if _, ready := x.Ready(); ready {
		t.Fatal("round ready before the rank's own contribution")
	}
	x.Contribute()
	x.Contribute() // counted once
	acc, ready := x.Ready()
	if !ready || string(*acc) != "abd" {
		t.Fatalf("ready %v with %q, want the three peers' bodies", ready, *acc)
	}
	*acc = (*acc)[:0]
	x.Advance()
	if x.Round() != 6 || string(*x.Acc(6)) != "n" {
		t.Fatalf("after Advance: round %d holding %q", x.Round(), *x.Acc(6))
	}
	if _, ready := x.Ready(); ready {
		t.Fatal("the next round is ready with one record in")
	}
}

// TestRoundExchangeDropsWhatNoPeerSends: a record outside the two-round
// window, a second record from one sender for one round, a record claiming
// this rank or a sender outside the machine, and a record too short for its
// header are dropped — uncounted, unmerged, and without allocating.
func TestRoundExchangeDropsWhatNoPeerSends(t *testing.T) {
	const p, me = 4, 1
	x := core.NewRoundExchange(p, me, 3, 0, 0)
	if _, _, ok := x.Accept(roundRecord(0, 3, 0)); !ok {
		t.Fatal("a first record from sender 0 was dropped")
	}
	bad := [][]byte{
		roundRecord(0, 3, 0), // duplicate
		roundRecord(2, 2, 0), // a round already complete
		roundRecord(2, 5, 0), // two rounds ahead
		roundRecord(2, 3+1<<31, 0),
		roundRecord(me, 3, 0), // this rank
		roundRecord(p, 3, 0),  // outside the machine
		roundRecord(-1, 3, 0),
		roundRecord(2, 3, 0)[:core.RoundHeader-1],
		nil,
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, rec := range bad {
			if _, _, ok := x.Accept(rec); ok {
				t.Fatalf("accepted %x", rec)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("dropping records allocated %v times", allocs)
	}
	if x.Acc(2) != nil || x.Acc(5) != nil || x.Acc(3) == nil || x.Acc(4) == nil {
		t.Error("accumulators exist outside the window [3, 4], or not inside it")
	}
	x.Contribute()
	for _, sender := range []int{2, 3} {
		if _, ready := x.Ready(); ready {
			t.Fatalf("round ready before sender %d arrived", sender)
		}
		x.Accept(roundRecord(sender, 3, 0))
	}
	if _, ready := x.Ready(); !ready {
		t.Fatal("round not ready once every contribution arrived")
	}
}
