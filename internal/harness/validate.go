package harness

import (
	"fmt"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// ValidateBFS performs Graph500-style validation of a BFS result (the global
// level and parent arrays of an engine.Result) against every rank's stored
// edges:
//
//  1. the source has level 0 and is its own parent;
//  2. a vertex is unreached iff it has no parent;
//  3. every reached vertex's parent is reached at exactly level-1;
//  4. for every stored edge (u, v): if u is reached then v is reached and
//     their levels differ by at most 1.
//
// Returns nil when every check passes; otherwise an error describing the
// first failure.
func ValidateBFS(parts []*partition.Part, levels []uint32, parents []graph.Vertex, source graph.Vertex) error {
	// (1), (2) and (3): structural checks over every vertex.
	for u, lvl := range levels {
		v, par := graph.Vertex(u), parents[u]
		switch {
		case v == source:
			if lvl != 0 || par != source {
				return fmt.Errorf("source %d has level %d parent %d", v, lvl, par)
			}
		case lvl == bfs.Unreached:
			if par != graph.Nil {
				return fmt.Errorf("unreached vertex %d has parent %d", v, par)
			}
		case par == graph.Nil:
			return fmt.Errorf("reached vertex %d (level %d) has no parent", v, lvl)
		case uint64(par) >= uint64(len(levels)):
			return fmt.Errorf("vertex %d has out-of-range parent %d", v, par)
		case levels[par] != lvl-1:
			return fmt.Errorf("vertex %d at level %d has parent %d at level %d", v, lvl, par, levels[par])
		}
	}

	// (4): level consistency across every stored edge.
	for _, part := range parts {
		m := part.CSR
		for row := 0; row < m.NumRows(); row++ {
			u := part.Vertex(row)
			lu := levels[u]
			for _, e := range m.Row(row) {
				t := e.Vertex()
				lt := levels[t]
				switch {
				case lu == bfs.Unreached && lt == bfs.Unreached:
				case lu == bfs.Unreached || lt == bfs.Unreached:
					return fmt.Errorf("edge %d-%d crosses the reached boundary (levels %d, %d)", u, t, lu, lt)
				default:
					if d := int64(lu) - int64(lt); d < -1 || d > 1 {
						return fmt.Errorf("edge %d-%d spans levels %d and %d", u, t, lu, lt)
					}
				}
			}
		}
	}
	return nil
}
