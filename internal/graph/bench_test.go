package graph_test

import (
	"testing"

	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
)

// BenchmarkSortEdges sorts one rank's share of a scale-15 Graph500 graph
// stored undirected over 8 ranks (131 K edges), the list each rank of the
// benchmark's build sorts before its exchange.
func BenchmarkSortEdges(b *testing.B) {
	in := graph.Undirect(generators.NewGraph500(15, 1).GenerateChunk(0, 8))
	work := make([]graph.Edge, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, in)
		graph.SortEdges(work)
	}
}
