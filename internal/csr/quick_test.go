package csr

import (
	"slices"
	"testing"
	"testing/quick"

	"havoqgt/internal/graph"
)

// TestQuickCSRMatchesBruteForce: for any random edge list, the CSR rows must
// equal brute-force grouping by source, and HasTarget must equal a linear
// membership scan.
func TestQuickCSRMatchesBruteForce(t *testing.T) {
	f := func(raw []uint16, rowsSel uint8) bool {
		rows := int(rowsSel)%32 + 1
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{
				Src: graph.Vertex(int(raw[i]) % rows),
				Dst: graph.Vertex(raw[i+1] % 64),
			})
		}
		graph.SortEdges(edges)
		m, err := FromSortedEdges(edges, 0, rows)
		if err != nil {
			return false
		}
		want := make([][]Target, rows)
		for _, e := range edges {
			want[e.Src] = append(want[e.Src], Target(e.Dst))
		}
		for r := 0; r < rows; r++ {
			got := m.Row(r)
			if !slices.Equal(got, want[r]) {
				return false
			}
			for v := graph.Vertex(0); v < 64; v++ {
				if m.HasTarget(r, v) != slices.Contains(want[r], Target(v)) {
					return false
				}
			}
		}
		return m.NumEdges() == uint64(len(edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
