package partition

import (
	"errors"
	"slices"
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
)

// layouts is every layout × simplify combination Build offers.
var layouts = []struct {
	name     string
	layout   Layout
	simplify bool
}{
	{"edgelist", EdgeList, false},
	{"edgelist-simple", EdgeList, true},
	{"1d", OneD, false},
	{"1d-simple", OneD, true},
}

// TestBuildSimplifiesEveryLayout: a multigraph with self loops and duplicate
// edges — the copies dealt to different ranks — is stored as given without
// simplify and as graph.Simplify's edge list with it, under both layouts,
// and the degree table counts what is stored.
func TestBuildSimplifiesEveryLayout(t *testing.T) {
	var multi []graph.Edge
	for v := graph.Vertex(0); v < 40; v++ {
		multi = append(multi, graph.Edge{Src: v, Dst: (v + 1) % 40}, graph.Edge{Src: v, Dst: (v * 7) % 40})
		if v%3 == 0 {
			multi = append(multi, graph.Edge{Src: v, Dst: v}, graph.Edge{Src: v, Dst: (v + 1) % 40})
		}
	}
	for _, c := range layouts {
		for _, p := range []int{1, 3, 4} {
			parts, err := Build(rt.NewMachine(p), 40, RoundRobin(multi), c.layout, c.simplify)
			if err != nil {
				t.Fatal(err)
			}
			want := graph.SortedEdges(multi)
			if c.simplify {
				want = graph.Simplify(want)
			}
			var got []graph.Edge
			for _, part := range parts {
				got = append(got, storedEdges(part)...)
			}
			if graph.SortEdges(got); !slices.Equal(got, want) {
				t.Fatalf("%s/p=%d: stored %d edges, want %d", c.name, p, len(got), len(want))
			}
			if parts[0].GlobalEdges != uint64(len(want)) {
				t.Fatalf("%s/p=%d: degree table counts %d edges, want %d", c.name, p, parts[0].GlobalEdges, len(want))
			}
		}
	}
}

// TestBuildChunkError: a rank whose chunk fails still enters the
// collectives, so the build returns that error instead of hanging the
// others.
func TestBuildChunkError(t *testing.T) {
	errRead := errors.New("read failed")
	chunk := func(rank, size int) ([]graph.Edge, error) {
		if rank == 1 {
			return nil, errRead
		}
		return []graph.Edge{{Src: graph.Vertex(rank), Dst: 0}}, nil
	}
	for _, c := range layouts {
		if _, err := Build(rt.NewMachine(3), 4, chunk, c.layout, c.simplify); !errors.Is(err, errRead) {
			t.Errorf("%s: build error %v, want the chunk's", c.name, err)
		}
	}
}
