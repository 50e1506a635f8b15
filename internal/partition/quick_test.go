package partition

import (
	"sort"
	"testing"
	"testing/quick"

	"havoqgt/internal/graph"
)

// TestQuickOwnerTableMatchesLinearScan: Master must equal the first rank
// whose (start, next-start) range contains the vertex, for any monotone
// boundary table — and Part.IsMaster, which compares against the rank's own
// range instead of searching, must say so on that rank and no other, and
// must disown a vertex past the end.
func TestQuickOwnerTableMatchesLinearScan(t *testing.T) {
	f := func(deltas []uint8, n uint16) bool {
		if len(deltas) == 0 {
			return true
		}
		if len(deltas) > 16 {
			deltas = deltas[:16]
		}
		start := make([]uint64, 0, len(deltas)+1)
		start = append(start, 0)
		for _, d := range deltas {
			start = append(start, start[len(start)-1]+uint64(d)%8)
		}
		total := start[len(start)-1] + uint64(n)%64 + 1
		start[len(start)-1] = total
		ot, err := NewOwnerTable(start)
		if err != nil {
			return false
		}
		for v := uint64(0); v < total; v++ {
			want := -1
			for r := 0; r < ot.P(); r++ {
				lo, hi := ot.MasterRange(r)
				if v >= lo && v < hi {
					want = r
					break
				}
			}
			if got := ot.Master(graph.Vertex(v)); got != want {
				return false
			}
			for r := 0; r < ot.P(); r++ {
				if (&Part{Rank: r, Owners: ot}).IsMaster(graph.Vertex(v)) != (r == want) {
					return false
				}
			}
		}
		for r := 0; r < ot.P(); r++ {
			if part := (&Part{Rank: r, Owners: ot}); part.IsMaster(graph.Vertex(total)) || part.IsMaster(graph.Nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOwnerTableMatchesSortSearch: the hand-written binary search in
// Master is sort.Search's definition — the first r with start[r+1] > v — on
// boundary arrays of up to 256 ranks with empty ranges anywhere (leading,
// trailing, in runs), and it still panics past the last vertex.
func TestQuickOwnerTableMatchesSortSearch(t *testing.T) {
	f := func(widths []uint8, pSel uint8) (ok bool) {
		p := int(pSel) + 1
		start := make([]uint64, p+1)
		for r := 0; r < p; r++ {
			w := uint64(0) // ranks beyond the drawn widths master nothing
			if r < len(widths) && widths[r]%3 != 0 {
				w = uint64(widths[r])
			}
			start[r+1] = start[r] + w
		}
		ot, err := NewOwnerTable(start)
		if err != nil {
			return false
		}
		n := ot.NumVertices()
		for v := uint64(0); v < n; v++ {
			want := sort.Search(p, func(r int) bool { return start[r+1] > v })
			if ot.Master(graph.Vertex(v)) != want {
				return false
			}
		}
		defer func() { ok = recover() != nil }() // out of range must panic
		ot.Master(graph.Vertex(n))
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickImbalanceBounds: imbalance is always >= 1 (for nonempty counts
// with any edges) and equals 1 exactly when all counts are equal.
func TestQuickImbalanceBounds(t *testing.T) {
	f := func(counts []uint16) bool {
		if len(counts) == 0 {
			return true
		}
		cs := make([]uint64, len(counts))
		var sum uint64
		for i, c := range counts {
			cs[i] = uint64(c)
			sum += uint64(c)
		}
		imb := Imbalance(cs)
		if sum == 0 {
			return imb == 1
		}
		if imb < 0.999999 {
			return false
		}
		allEqual := true
		for _, c := range cs {
			if c != cs[0] {
				allEqual = false
			}
		}
		if allEqual && (imb < 0.999999 || imb > 1.000001) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEdgeCodecRoundTrip: any edge list survives the wire codec.
func TestQuickEdgeCodecRoundTrip(t *testing.T) {
	f := func(raw []uint64) bool {
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{Src: graph.Vertex(raw[i]), Dst: graph.Vertex(raw[i+1])})
		}
		got := decodeEdgesInto(nil, encodeEdges(edges))
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
