package partition

import (
	"fmt"
	"slices"
	"testing"

	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

// TestBuildEdgeListHoldsEqualCountSlices: on every rank, a build stores
// exactly that rank's equal-count slice of one sequential comparison sort of
// all ranks' input (simplified first, for BuildEdgeListSimple), and leaves
// the input lists as they were. Inputs cover empty ranks, duplicates and
// self loops, fewer edges than ranks, and one hub whose row spans every rank.
func TestBuildEdgeListHoldsEqualCountSlices(t *testing.T) {
	const n, hub = 1 << 12, 7
	rng := xrand.New(19)
	randomEdge := func() graph.Edge {
		if rng.Bool(0.5) { // a small id range: duplicates and self loops
			return graph.Edge{Src: graph.Vertex(rng.Uint64n(16)), Dst: graph.Vertex(rng.Uint64n(16))}
		}
		return graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(rng.Uint64n(n))}
	}
	inputs := []struct {
		name string
		rank func(r, p int) []graph.Edge
	}{
		{"random", func(r, p int) []graph.Edge {
			if r%3 == 1 {
				return nil
			}
			es := make([]graph.Edge, rng.Intn(400))
			for i := range es {
				es[i] = randomEdge()
			}
			return es
		}},
		{"hub", func(r, p int) []graph.Edge {
			es := []graph.Edge{randomEdge()}
			for range 64 {
				es = append(es, graph.Edge{Src: hub, Dst: graph.Vertex(rng.Uint64n(n))})
			}
			return es
		}},
		{"tiny", func(r, p int) []graph.Edge {
			if r != p-1 {
				return nil
			}
			return []graph.Edge{{Src: 9, Dst: 3}, {Src: 2, Dst: 2}, {Src: 9, Dst: 3}}
		}},
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, in := range inputs {
			locals := make([][]graph.Edge, p)
			for r := range locals {
				locals[r] = in.rank(r, p)
			}
			for _, simple := range []bool{false, true} {
				name := fmt.Sprintf("%s/p=%d/simple=%v", in.name, p, simple)
				want := slices.Concat(locals...)
				if simple {
					want = graph.Simplify(want)
				}
				slices.SortFunc(want, graph.CompareEdges)

				before := make([][]graph.Edge, p)
				for r := range locals {
					before[r] = slices.Clone(locals[r])
				}
				parts := make([]*Part, p)
				rt.NewMachine(p).Run(func(r *rt.Rank) {
					build := BuildEdgeList
					if simple {
						build = BuildEdgeListSimple
					}
					part, err := build(r, locals[r.Rank()], n)
					if err != nil {
						panic(err)
					}
					parts[r.Rank()] = part
				})
				for r, part := range parts {
					slice := want[len(want)*r/p : len(want)*(r+1)/p]
					if got := storedEdges(part); !slices.Equal(got, slice) {
						t.Errorf("%s: rank %d stores %v, want %v", name, r, got, slice)
					}
					if in.name == "hub" && !slices.ContainsFunc(slice, func(e graph.Edge) bool { return e.Src == hub }) {
						t.Errorf("%s: the hub's row misses rank %d", name, r)
					}
					if !slices.Equal(locals[r], before[r]) {
						t.Errorf("%s: the build rewrote rank %d's input", name, r)
					}
				}
			}
		}
	}
}

// storedEdges lists a rank's stored edges in CSR order.
func storedEdges(part *Part) []graph.Edge {
	var es []graph.Edge
	for row := 0; row < part.CSR.NumRows(); row++ {
		for _, t := range part.CSR.Row(row) {
			es = append(es, graph.Edge{Src: part.Vertex(row), Dst: t.Vertex()})
		}
	}
	return es
}

// BenchmarkBuildEdgeListSimple is the build the benchmark's set-up runs: a
// scale-15 Graph500 graph stored undirected over 8 ranks, simplified. The
// ranks' input lists are generated once; the build leaves them untouched.
func BenchmarkBuildEdgeListSimple(b *testing.B) {
	const ranks = 8
	g := generators.NewGraph500(15, 1)
	locals := make([][]graph.Edge, ranks)
	for r := range locals {
		locals[r] = graph.Undirect(g.GenerateChunk(r, ranks))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.NewMachine(ranks).Run(func(r *rt.Rank) {
			if _, err := BuildEdgeListSimple(r, locals[r.Rank()], g.NumVertices()); err != nil {
				panic(err)
			}
		})
	}
}
