package bfs

import (
	"slices"
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// FuzzDOHandle feeds DO.Handle arbitrary payloads, as a peer process sends
// them in cluster mode, on rank 0 of a two-rank 70-vertex graph (the last
// bitmap word has bits beyond n). Seed corpus: testdata/fuzz/FuzzDOHandle/.
// Handle must not panic; a record of the retired kind 1 must leave the
// machine as it was; no bit at or beyond n may be set in any level being
// accumulated, nor a parent at or beyond n recorded; and TryAdvance and Idle
// stay callable afterwards, through whatever merge the payload completes.
func FuzzDOHandle(f *testing.F) {
	const n = 70
	var edges []graph.Edge
	for v := graph.Vertex(1); v < n; v++ {
		edges = append(edges, graph.Edge{Src: v - 1, Dst: v}, graph.Edge{Src: v, Dst: v - 1})
	}
	parts := make([]*partition.Part, 2)
	rt.NewMachine(2).Run(func(r *rt.Rank) {
		var err error
		if parts[r.Rank()], err = partition.BuildEdgeList(r, edges[r.Rank()*len(edges)/2:(r.Rank()+1)*len(edges)/2], n); err != nil {
			panic(err)
		}
	})
	part := parts[0]
	source := part.StateStart // a vertex rank 0 holds
	noSend := func(int, []byte) {}

	f.Fuzz(func(t *testing.T, payload []byte) {
		fresh := NewDO(part, source, noSend, nil)
		d := NewDO(part, source, noSend, nil)
		d.Handle(payload)
		d.Handle(payload) // a duplicate is dropped

		if len(payload) > 0 && payload[0] == 1 {
			if len(d.pending) != 0 || !slices.Equal(d.Level, fresh.Level) || !slices.Equal(d.Parent, fresh.Parent) {
				t.Fatalf("retired kind 1 changed the machine: %d levels pending", len(d.pending))
			}
		}
		for i, pv := range d.Parent {
			if pv != graph.Nil && uint64(pv) >= n {
				t.Fatalf("vertex %d took parent %d of a %d-vertex graph", part.Vertex(i), pv, n)
			}
		}
		for level, acc := range d.pending {
			if i, ok := firstBitFrom(acc.bits.Words(), n); ok {
				t.Fatalf("level %d accumulates bit %d of a %d-vertex graph", level, i, n)
			}
		}
		for i := 0; i < 4*n && d.TryAdvance(); i++ {
		}
		d.Idle()
		d.Done()
		if i, ok := firstBitFrom(d.Visited().Words(), n); ok {
			t.Fatalf("visited holds bit %d of a %d-vertex graph", i, n)
		}
	})
}

// firstBitFrom returns the lowest set bit at or beyond n in words.
func firstBitFrom(words []uint64, n uint64) (uint64, bool) {
	for i := n; i < uint64(len(words))*64; i++ {
		if words[i>>6]&(1<<(i&63)) != 0 {
			return i, true
		}
	}
	return 0, false
}
