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
	const n = pathVertices
	part := pathParts()[0]
	source := part.StateStart // a vertex rank 0 holds
	noSend := func(int, []byte) {}

	f.Fuzz(func(t *testing.T, payload []byte) {
		fresh := NewDO(part, source, noSend, nil)
		d := NewDO(part, source, noSend, nil)
		d.Handle(payload)
		d.Handle(payload) // a duplicate is dropped

		if len(payload) > 0 && payload[0] == 1 {
			if !sameMachine(d, fresh) {
				t.Fatal("retired kind 1 changed the machine")
			}
		}
		for i, pv := range d.Parent {
			if pv != graph.Nil && uint64(pv) >= n {
				t.Fatalf("vertex %d took parent %d of a %d-vertex graph", part.Vertex(i), pv, n)
			}
		}
		for level := d.levels.Round(); level <= d.levels.Round()+1; level++ {
			if i, ok := firstBitFrom(d.levels.Acc(level).Words(), n); ok {
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

// pathVertices is the length of the path pathParts partitions.
const pathVertices = 70

// pathParts partitions the path 0–1–…–69 over two ranks.
func pathParts() []*partition.Part {
	var edges []graph.Edge
	for v := graph.Vertex(1); v < pathVertices; v++ {
		edges = append(edges, graph.Edge{Src: v - 1, Dst: v}, graph.Edge{Src: v, Dst: v - 1})
	}
	parts := make([]*partition.Part, 2)
	rt.NewMachine(2).Run(func(r *rt.Rank) {
		var err error
		if parts[r.Rank()], err = partition.BuildEdgeList(r, edges[r.Rank()*len(edges)/2:(r.Rank()+1)*len(edges)/2], pathVertices); err != nil {
			panic(err)
		}
	})
	return parts
}

// sameMachine reports whether two machines hold the same state: levels,
// parents, and what both rounds in the exchange's window have accumulated
// and counted. A round outside the window has no state to compare.
func sameMachine(a, b *DO) bool {
	if a.levels.Round() != b.levels.Round() || !slices.Equal(a.Level, b.Level) || !slices.Equal(a.Parent, b.Parent) {
		return false
	}
	for level := a.levels.Round(); level <= a.levels.Round()+1; level++ {
		if !slices.Equal(a.levels.Acc(level).Words(), b.levels.Acc(level).Words()) {
			return false
		}
	}
	_, ra := a.levels.Ready()
	_, rb := b.levels.Ready()
	return ra == rb && a.Idle() == b.Idle()
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
