package graph

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"havoqgt/internal/xrand"
)

func TestCompareEdges(t *testing.T) {
	cases := []struct {
		a, b Edge
		want int
	}{
		{Edge{0, 0}, Edge{0, 0}, 0},
		{Edge{0, 1}, Edge{0, 2}, -1},
		{Edge{1, 0}, Edge{0, 9}, 1},
		{Edge{2, 3}, Edge{2, 3}, 0},
		{Edge{5, 1}, Edge{5, 0}, 1},
	}
	for _, c := range cases {
		if got := CompareEdges(c.a, c.b); got != c.want {
			t.Errorf("CompareEdges(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSortEdges(t *testing.T) {
	edges := []Edge{{3, 1}, {0, 2}, {3, 0}, {1, 1}, {0, 1}}
	SortEdges(edges)
	if !EdgesSorted(edges) {
		t.Fatalf("edges not sorted: %v", edges)
	}
	want := []Edge{{0, 1}, {0, 2}, {1, 1}, {3, 0}, {3, 1}}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestUndirect(t *testing.T) {
	edges := []Edge{{0, 1}, {2, 2}, {1, 3}}
	und := Undirect(edges)
	if len(und) != 5 { // self loop emitted once
		t.Fatalf("Undirect produced %d edges, want 5", len(und))
	}
	count := map[Edge]int{}
	for _, e := range und {
		count[e]++
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 3}, {3, 1}, {2, 2}} {
		if count[e] != 1 {
			t.Errorf("edge %v appears %d times", e, count[e])
		}
	}
}

func TestSimplify(t *testing.T) {
	edges := []Edge{{1, 2}, {0, 0}, {1, 2}, {2, 1}, {3, 3}, {1, 2}, {0, 1}}
	out := Simplify(edges)
	want := []Edge{{0, 1}, {1, 2}, {2, 1}}
	if len(out) != len(want) {
		t.Fatalf("Simplify returned %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Simplify returned %v, want %v", out, want)
		}
	}
}

func TestSimplifyProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Vertex(raw[i] % 64), Vertex(raw[i+1] % 64)})
		}
		out := Simplify(edges)
		if !EdgesSorted(out) {
			return false
		}
		for i, e := range out {
			if e.IsSelfLoop() {
				return false
			}
			if i > 0 && out[i-1] == e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegrees(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 0}, {3, 0}}
	out := OutDegrees(edges, 4)
	in := InDegrees(edges, 4)
	wantOut := []uint32{2, 1, 0, 1}
	wantIn := []uint32{2, 1, 1, 0}
	for v := range wantOut {
		if out[v] != wantOut[v] {
			t.Errorf("out-degree of %d = %d, want %d", v, out[v], wantOut[v])
		}
		if in[v] != wantIn[v] {
			t.Errorf("in-degree of %d = %d, want %d", v, in[v], wantIn[v])
		}
	}
}

func TestCensus(t *testing.T) {
	deg := make([]uint32, 100)
	deg[0] = 15000 // a 10K+ hub
	deg[1] = 2000  // a 1K hub
	deg[2] = 999
	deg[3] = 16
	c := Census(deg)
	if c.MaxDegree != 15000 || c.MaxDegreeHubEdges != 15000 {
		t.Errorf("max degree census wrong: %+v", c)
	}
	if c.EdgesDeg1K != 17000 {
		t.Errorf("EdgesDeg1K = %d, want 17000", c.EdgesDeg1K)
	}
	if c.EdgesDeg10K != 15000 {
		t.Errorf("EdgesDeg10K = %d, want 15000", c.EdgesDeg10K)
	}
	if c.NumEdges != 15000+2000+999+16 {
		t.Errorf("NumEdges = %d", c.NumEdges)
	}
}

func TestMaxVertex(t *testing.T) {
	if got := MaxVertex(nil); got != 0 {
		t.Fatalf("MaxVertex(nil) = %d", got)
	}
	if got := MaxVertex([]Edge{{5, 9}, {11, 2}}); got != 11 {
		t.Fatalf("MaxVertex = %d, want 11", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram([]uint32{0, 1, 1, 3, 3, 3})
	if h[0] != 1 || h[1] != 2 || h[3] != 3 {
		t.Fatalf("histogram wrong: %v", h)
	}
}

// TestSortEdgesMatchesComparisonSort checks the radix SortEdges and
// SortedEdges against the comparison sort over short and long lists and ids
// of up to 40 bits, where a packed (Src, Dst) key no longer fits one word and
// the sort takes one key after the other.
func TestSortEdgesMatchesComparisonSort(t *testing.T) {
	rng := xrand.New(11)
	shapes := []struct {
		name string
		gen  func(n int) []Edge
	}{
		{"ids40", func(n int) []Edge { return randomEdges(rng, n, 1<<40) }},
		{"ids20", func(n int) []Edge { return randomEdges(rng, n, 1<<20) }},
		// 16 wide sources, so the order within a source rests on the Dst
		// key: four Dst passes, or three, then the Src key.
		{"hubs40", func(n int) []Edge { return hubEdges(rng, n, 1<<40) }},
		{"hubs40dst30", func(n int) []Edge { return hubEdges(rng, n, 1<<30) }},
		{"duplicates", func(n int) []Edge { return randomEdges(rng, n, 6) }},
		{"selfloops", func(n int) []Edge {
			es := randomEdges(rng, n, 1<<12)
			for i := 0; i < len(es); i += 3 {
				es[i].Dst = es[i].Src
			}
			return es
		}},
		{"allequal", func(n int) []Edge {
			es := make([]Edge, n)
			for i := range es {
				es[i] = Edge{Src: 1<<40 - 1, Dst: 1<<33 + 5}
			}
			return es
		}},
		{"presorted", func(n int) []Edge {
			es := randomEdges(rng, n, 1<<40)
			slices.SortFunc(es, CompareEdges)
			return es
		}},
		{"reversed", func(n int) []Edge {
			es := randomEdges(rng, n, 1<<20)
			slices.SortFunc(es, func(a, b Edge) int { return CompareEdges(b, a) })
			return es
		}},
	}
	for _, n := range []int{0, 1, 2, 511, 512, 513, 100_000} {
		for _, sh := range shapes {
			in := sh.gen(n)
			want := slices.Clone(in)
			slices.SortFunc(want, CompareEdges)
			orig := slices.Clone(in)
			if got := SortedEdges(in); !slices.Equal(got, want) {
				t.Errorf("%s/%d: SortedEdges disagrees with the comparison sort", sh.name, n)
			}
			if !slices.Equal(in, orig) {
				t.Errorf("%s/%d: SortedEdges wrote its input", sh.name, n)
			}
			if SortEdges(in); !slices.Equal(in, want) {
				t.Errorf("%s/%d: SortEdges disagrees with the comparison sort", sh.name, n)
			}
		}
	}
}

func randomEdges(rng *xrand.Rand, n int, ids uint64) []Edge {
	es := make([]Edge, n)
	for i := range es {
		es[i] = Edge{Src: Vertex(rng.Uint64n(ids)), Dst: Vertex(rng.Uint64n(ids))}
	}
	return es
}

func hubEdges(rng *xrand.Rand, n int, dsts uint64) []Edge {
	es := make([]Edge, n)
	for i := range es {
		es[i] = Edge{Src: Vertex(rng.Uint64n(16) << 36), Dst: Vertex(rng.Uint64n(dsts))}
	}
	return es
}

// TestRadixSortStable: elements with equal keys keep their input order, in
// place (src passed as tmp) and into a separate list, for key widths that
// take one pass, several, and a full word.
func TestRadixSortStable(t *testing.T) {
	type item struct{ key, seq uint64 }
	rng := xrand.New(5)
	for _, keyBits := range []int{0, 3, 11, 12, 35, 64} {
		in := make([]item, 5000)
		for i := range in {
			in[i] = item{rng.Uint64() & (1<<keyBits - 1), uint64(i)}
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.key, b.key) })
		key := func(x item) uint64 { return x.key }

		orig := slices.Clone(in)
		if got := RadixSort(in, make([]item, len(in)), make([]item, len(in)), keyBits, key); !slices.Equal(got, want) {
			t.Errorf("%d-bit keys: sorted copy is not the stable order", keyBits)
		}
		if !slices.Equal(in, orig) {
			t.Errorf("%d-bit keys: RadixSort wrote src", keyBits)
		}
		if got := RadixSort(in, make([]item, len(in)), in, keyBits, key); !slices.Equal(got, want) {
			t.Errorf("%d-bit keys: in-place sort is not the stable order", keyBits)
		}
	}
}
