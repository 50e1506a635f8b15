package core

import (
	"sort"
	"testing"
	"testing/quick"

	"havoqgt/internal/graph"
	"havoqgt/internal/xrand"
)

// heapHarness exposes the queue's heap for property testing without a
// traversal.
func newHeapHarness(locality bool) *Queue[orderVisitor] {
	return &Queue[orderVisitor]{algo: &orderAlgo{}, localityOrder: locality}
}

// TestQuickHeapPopsSorted: for any push sequence, pops come out
// non-decreasing under the algorithm's Less, and with the locality
// tie-break, equal priorities come out in vertex order.
func TestQuickHeapPopsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		q := newHeapHarness(true)
		for i := 0; i+1 < len(raw); i += 2 {
			q.heapPush(orderVisitor{v: graph.Vertex(raw[i] % 64), prio: uint32(raw[i+1] % 8)})
		}
		var out []orderVisitor
		for len(q.heap) > 0 {
			out = append(out, q.heapPop())
		}
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			if a.prio > b.prio {
				return false
			}
			if a.prio == b.prio && a.v > b.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeapIsPermutation: pops return exactly the pushed multiset.
func TestQuickHeapIsPermutation(t *testing.T) {
	f := func(raw []uint16) bool {
		q := newHeapHarness(false)
		var in []orderVisitor
		for i := 0; i+1 < len(raw); i += 2 {
			v := orderVisitor{v: graph.Vertex(raw[i]), prio: uint32(raw[i+1])}
			in = append(in, v)
			q.heapPush(v)
		}
		var out []orderVisitor
		for len(q.heap) > 0 {
			out = append(out, q.heapPop())
		}
		if len(in) != len(out) {
			return false
		}
		key := func(o orderVisitor) uint64 { return uint64(o.prio)<<32 | uint64(o.v) }
		sort.Slice(in, func(i, j int) bool { return key(in[i]) < key(in[j]) })
		sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGhostLookupMatchesMap: for any table of 0..256 distinct vertices,
// scattered over the id space or clustered in a small range, the
// open-addressed probe answers exactly as a map from vertex to index does —
// for members, their neighbours and arbitrary non-members alike.
func TestQuickGhostLookupMatchesMap(t *testing.T) {
	f := func(seed uint64, sizeSel uint16, clustered bool) bool {
		rng := xrand.New(seed)
		want := make(map[graph.Vertex]int)
		var vertices []graph.Vertex
		for n := int(sizeSel) % 257; len(vertices) < n; {
			v := graph.Vertex(rng.Uint64())
			if clustered {
				v %= 1024
			}
			if _, dup := want[v]; !dup {
				want[v] = len(vertices)
				vertices = append(vertices, v)
			}
		}
		gt := newGhostTable(vertices)
		if gt.Len() != len(vertices) {
			return false
		}
		probes := []graph.Vertex{0, graph.Nil, graph.Vertex(rng.Uint64())}
		for _, v := range vertices {
			probes = append(probes, v, v+1, v-1)
		}
		for _, v := range probes {
			wi, wok := want[v]
			if gi, gok := gt.Lookup(v); gok != wok || gi != wi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
