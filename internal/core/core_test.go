package core

import (
	"encoding/binary"
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// buildPart builds a single-rank edge-list partition for unit tests.
func buildPart(t *testing.T, edges []graph.Edge, n uint64) *partition.Part {
	t.Helper()
	var part *partition.Part
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		var err error
		part, err = partition.BuildEdgeList(r, edges, n)
		if err != nil {
			panic(err)
		}
	})
	return part
}

// buildParts builds a p-rank edge-list partition.
func buildParts(t *testing.T, edges []graph.Edge, n uint64, p int) []*partition.Part {
	t.Helper()
	parts := make([]*partition.Part, p)
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := partition.BuildEdgeList(r, local, n)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	return parts
}

func TestGhostTableSelectsHighInDegreeRemotes(t *testing.T) {
	// Rank 0 holds sources 0..k with many edges to a remote hub vertex.
	var edges []graph.Edge
	n := uint64(64)
	hub := graph.Vertex(60)
	for v := uint64(0); v < 16; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: hub})
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex(v + 16)})
	}
	// Give the hub some out-edges so it exists as a source elsewhere.
	edges = append(edges, graph.Edge{Src: hub, Dst: 0})
	parts := buildParts(t, edges, n, 2)
	gt := BuildGhostTable(parts[0], 8)
	if _, ok := gt.Lookup(hub); !ok {
		t.Fatalf("hub %d not ghosted; table = %v", hub, gt.Vertices())
	}
	if gt.Len() > 8 {
		t.Fatalf("table exceeded k: %d", gt.Len())
	}
}

func TestGhostTableExcludesLocalAndRareTargets(t *testing.T) {
	var edges []graph.Edge
	n := uint64(32)
	// Local target (same rank, p=1): never ghosted.
	for v := uint64(0); v < 8; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: 9})
	}
	part := buildPart(t, edges, n)
	gt := BuildGhostTable(part, 8)
	if gt.Len() != 0 {
		t.Fatalf("single-rank build ghosted local vertices: %v", gt.Vertices())
	}
}

func TestGhostTableRequiresMultiplicity(t *testing.T) {
	// Remote targets seen only once cannot filter anything and must not be
	// selected.
	edges := []graph.Edge{
		{Src: 0, Dst: 30}, {Src: 0, Dst: 31},
		{Src: 1, Dst: 30},
		{Src: 16, Dst: 0}, {Src: 17, Dst: 0},
	}
	parts := buildParts(t, edges, 32, 2)
	gt := BuildGhostTable(parts[0], 8)
	for _, v := range gt.Vertices() {
		if v == 31 {
			t.Fatal("target seen once was ghosted")
		}
	}
}

func TestGhostTableZeroK(t *testing.T) {
	part := buildPart(t, []graph.Edge{{Src: 0, Dst: 1}}, 4)
	if gt := BuildGhostTable(part, 0); gt.Len() != 0 {
		t.Fatal("k=0 produced ghosts")
	}
}

// orderVisitor is a minimal visitor for the heap property tests
// (quick_test.go). The tests that drive toy visitors through a traversal run
// on the one executor: internal/engine/visitor_test.go.
type orderVisitor struct {
	v    graph.Vertex
	prio uint32
}

func (o orderVisitor) Vertex() graph.Vertex { return o.v }

type orderAlgo struct{ executed []orderVisitor }

func (a *orderAlgo) PreVisit(v orderVisitor) bool { return true }
func (a *orderAlgo) Visit(v orderVisitor, q *Queue[orderVisitor]) {
	a.executed = append(a.executed, v)
}
func (a *orderAlgo) Less(x, y orderVisitor) bool { return x.prio < y.prio }
func (a *orderAlgo) Encode(v orderVisitor, buf []byte) []byte {
	var w [12]byte
	binary.LittleEndian.PutUint64(w[0:], uint64(v.v))
	binary.LittleEndian.PutUint32(w[8:], v.prio)
	return append(buf, w[:]...)
}
func (a *orderAlgo) Decode(buf []byte) orderVisitor {
	return orderVisitor{
		v:    graph.Vertex(binary.LittleEndian.Uint64(buf)),
		prio: binary.LittleEndian.Uint32(buf[8:]),
	}
}

func TestDefaultGhostsConstant(t *testing.T) {
	if DefaultGhostsPerPartition != 256 {
		t.Fatal("paper uses 256 ghosts per partition for all BFS experiments")
	}
}
