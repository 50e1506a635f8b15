package csr

import (
	"slices"
	"testing"

	"havoqgt/internal/graph"
)

func mustBuild(t *testing.T, edges []graph.Edge, base graph.Vertex, rows int) *Matrix {
	t.Helper()
	m, err := FromSortedEdges(edges, base, rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromSortedEdges(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 2, Dst: 0}, {Src: 2, Dst: 2}, {Src: 3, Dst: 1}}
	m := mustBuild(t, edges, 0, 4)
	if m.NumRows() != 4 || m.NumEdges() != 5 {
		t.Fatalf("rows=%d edges=%d", m.NumRows(), m.NumEdges())
	}
	wantDeg := []uint64{2, 0, 2, 1}
	for i, w := range wantDeg {
		if m.Degree(i) != w {
			t.Errorf("degree(%d) = %d, want %d", i, m.Degree(i), w)
		}
	}
	row0 := m.Row(0)
	if len(row0) != 2 || row0[0] != 1 || row0[1] != 3 {
		t.Errorf("row 0 = %v", row0)
	}
	if len(m.Row(1)) != 0 {
		t.Errorf("row 1 should be empty")
	}
}

func TestFromSortedEdgesWithBase(t *testing.T) {
	edges := []graph.Edge{{Src: 10, Dst: 5}, {Src: 11, Dst: 0}, {Src: 11, Dst: 9}}
	m := mustBuild(t, edges, 10, 3)
	if m.Degree(0) != 1 || m.Degree(1) != 2 || m.Degree(2) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", m.Degree(0), m.Degree(1), m.Degree(2))
	}
}

func TestFromSortedEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromSortedEdges([]graph.Edge{{Src: 5, Dst: 0}}, 0, 3); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := FromSortedEdges([]graph.Edge{{Src: 0, Dst: 0}}, 1, 3); err == nil {
		t.Fatal("source below base accepted")
	}
}

func TestFromSortedEdgesRejectsUnsorted(t *testing.T) {
	if _, err := FromSortedEdges([]graph.Edge{{Src: 1, Dst: 0}, {Src: 0, Dst: 0}}, 0, 2); err == nil {
		t.Fatal("unsorted edges accepted")
	}
}

func TestHasTarget(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 2}, {Src: 0, Dst: 5}, {Src: 0, Dst: 9}, {Src: 1, Dst: 1}}
	m := mustBuild(t, edges, 0, 2)
	for _, v := range []graph.Vertex{2, 5, 9} {
		if !m.HasTarget(0, v) {
			t.Errorf("HasTarget(0, %d) = false", v)
		}
	}
	for _, v := range []graph.Vertex{0, 1, 3, 10} {
		if m.HasTarget(0, v) {
			t.Errorf("HasTarget(0, %d) = true", v)
		}
	}
	if !m.HasTarget(1, 1) || m.HasTarget(1, 2) {
		t.Error("row 1 membership wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, MemTargets{}); err == nil {
		t.Error("empty offsets accepted")
	}
	if _, err := New([]uint64{0, 2}, MemTargets{1}); err == nil {
		t.Error("offset/store mismatch accepted")
	}
	if _, err := New([]uint64{0, 2, 1}, MemTargets{1}); err == nil {
		t.Error("non-monotone offsets accepted")
	}
}

func TestReplaceTargets(t *testing.T) {
	m := mustBuild(t, []graph.Edge{{Src: 0, Dst: 7}}, 0, 1)
	if err := m.ReplaceTargets(MemTargets{8}); err != nil {
		t.Fatal(err)
	}
	if got := m.Row(0)[0]; got != 8 {
		t.Fatalf("after replace, row = %d", got)
	}
	if err := m.ReplaceTargets(MemTargets{1, 2}); err == nil {
		t.Fatal("length-mismatched store accepted")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := mustBuild(t, nil, 0, 0)
	if m.NumRows() != 0 || m.NumEdges() != 0 {
		t.Fatal("empty matrix misreports size")
	}
}

func TestTargetWord(t *testing.T) {
	v := graph.Vertex(MaxVertices - 1)
	bare := Target(v)
	if bare.Vertex() != v || bare.Local() || bare.Slot() != -1 {
		t.Fatalf("bare word %#x: vertex %d local %v slot %d", uint64(bare), bare.Vertex(), bare.Local(), bare.Slot())
	}
	if l := bare.AsLocal(); l.Vertex() != v || !l.Local() || l.Slot() != -1 {
		t.Fatalf("local word %#x: vertex %d local %v slot %d", uint64(l), l.Vertex(), l.Local(), l.Slot())
	}
	for _, s := range []int{0, 1, MaxSlots - 1} {
		if w := bare.WithSlot(s); w.Vertex() != v || w.Local() || w.Slot() != s {
			t.Fatalf("slot %d word %#x: vertex %d local %v slot %d", s, uint64(w), w.Vertex(), w.Local(), w.Slot())
		}
	}
	if _, err := FromSortedEdges([]graph.Edge{{Src: 0, Dst: graph.Vertex(MaxVertices)}}, 0, 1); err == nil {
		t.Fatal("a target beyond the word's vertex field was stored")
	}
}

// TestHasTargetComparesVertices: tags sit above the vertex bits, so a tagged
// row is sorted by vertex but not by raw word — here the local bit on the
// lowest target makes it the largest word, and slots run against the vertex
// order. The membership search must look at the vertex alone.
func TestHasTargetComparesVertices(t *testing.T) {
	row := MemTargets{Target(2).AsLocal(), Target(5).WithSlot(7), Target(9).WithSlot(0), Target(11)}
	if slices.IsSorted(row) {
		t.Fatal("the tagged row is still sorted by raw word: the test tests nothing")
	}
	m, err := New([]uint64{0, uint64(len(row))}, row)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.Vertex(0); v < 16; v++ {
		if want := v == 2 || v == 5 || v == 9 || v == 11; m.HasTarget(0, v) != want {
			t.Errorf("HasTarget(0, %d) = %v", v, !want)
		}
	}
}
