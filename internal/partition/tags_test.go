package partition

import (
	"errors"
	"testing"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
)

// TestBuildRejectsVertexCountBeyondTargetWord: a graph whose identifiers would
// not fit a target word's vertex field is refused, typed, under every layout,
// before any collective step.
func TestBuildRejectsVertexCountBeyondTargetWord(t *testing.T) {
	for _, c := range layouts {
		_, err := Build(rt.NewMachine(2), csr.MaxVertices+1, RoundRobin(nil), c.layout, c.simplify)
		if !errors.Is(err, ErrTooManyVertices) {
			t.Errorf("%s: n = 2^40+1 built with error %v", c.name, err)
		}
	}
	if err := checkVertexCount(csr.MaxVertices); err != nil {
		t.Errorf("n = 2^40 refused: %v", err)
	}
}

// TestBuildRejectsTargetOutOfRange: an edge to a vertex the graph does not
// have is an input error at build, not a panic at the first push to it.
func TestBuildRejectsTargetOutOfRange(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		if _, err := BuildEdgeList(r, []graph.Edge{{Src: 0, Dst: 9}}, 4); err == nil {
			t.Error("edge 0->9 of a 4-vertex graph was stored")
		}
	})
}

// TestSlotCapLeavesExcessUntagged: candidates beyond the slot cap are not an
// error — they stay untagged, as single-edge remotes do — and the slots that
// are assigned are still the highest counts.
func TestSlotCapLeavesExcessUntagged(t *testing.T) {
	// Rank 0's sources 0..5 each point at remote targets 20.. with falling
	// multiplicity: target 20+j is hit by the 6−j sources above j−1.
	var edges []graph.Edge
	for s := 0; s < 6; s++ {
		for j := 0; j <= s; j++ {
			edges = append(edges, graph.Edge{Src: graph.Vertex(s), Dst: graph.Vertex(20 + j)})
		}
	}
	edges = append(edges, graph.Edge{Src: 20, Dst: 0}, graph.Edge{Src: 21, Dst: 0}, graph.Edge{Src: 30, Dst: 0})
	part := buildCollective(t, edges, 32, 2)[0]
	full := len(part.SlotVertex)
	if full <= 2 {
		t.Fatalf("rank 0 has %d slots: the graph tests nothing", full)
	}
	want := append([]graph.Vertex(nil), part.SlotVertex[:2]...)

	mem := part.CSR.Targets().(csr.MemTargets)
	for i, w := range mem {
		mem[i] = csr.Target(w.Vertex())
	}
	if err := part.tagTargets(2); err != nil {
		t.Fatal(err)
	}
	if len(part.SlotVertex) != 2 || part.SlotVertex[0] != want[0] || part.SlotVertex[1] != want[1] {
		t.Fatalf("capped at 2 slots: %v, want %v", part.SlotVertex, want)
	}
	for _, w := range mem {
		switch s := w.Slot(); {
		case w.Local() != part.IsMaster(w.Vertex()):
			t.Fatalf("target %d: local bit %v", w.Vertex(), w.Local())
		case s >= 2:
			t.Fatalf("target %d names slot %d past the cap", w.Vertex(), s)
		case s >= 0 && part.SlotVertex[s] != w.Vertex():
			t.Fatalf("target %d names slot %d = vertex %d", w.Vertex(), s, part.SlotVertex[s])
		case s < 0 && (w.Vertex() == want[0] || w.Vertex() == want[1]):
			t.Fatalf("target %d is within the cap and untagged", w.Vertex())
		}
	}
}
