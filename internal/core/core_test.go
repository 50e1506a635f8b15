package core

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
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
	if !slices.Contains(gt.Vertices(), hub) {
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

// orderVisitor is a minimal visitor for the calendar property tests
// (quick_test.go). The tests that drive toy visitors through a traversal run
// on the one executor: internal/engine/visitor_test.go.
type orderVisitor struct {
	v    graph.Vertex
	prio uint32
}

func (o orderVisitor) Vertex() graph.Vertex { return o.v }

// orderAlgo schedules orderVisitors on the calendar, one bucket per prio.
type orderAlgo struct{ executed []orderVisitor }

func (a *orderAlgo) PreVisit(v orderVisitor) bool { return true }
func (a *orderAlgo) Visit(v orderVisitor, q *Queue[orderVisitor]) {
	a.executed = append(a.executed, v)
}
func (a *orderAlgo) Bucket(v orderVisitor) uint64 { return uint64(v.prio) }
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

// TestGhostTableCoverage: the default table holds every remote target the
// rank has at least two edges to — no top-k cut — and a positive k still
// keeps exactly the k highest counts.
func TestGhostTableCoverage(t *testing.T) {
	// Skewed: source s has an edge to every target t in [32, 32+s), so target
	// 32+j is hit by the 23−j sources above j. Both ranks hold a share.
	var edges []graph.Edge
	for s := uint64(0); s < 24; s++ {
		for j := uint64(0); j < s; j++ {
			edges = append(edges, graph.Edge{Src: graph.Vertex(s), Dst: graph.Vertex(32 + j)})
		}
	}
	for _, part := range buildParts(t, edges, 64, 2) {
		counts := map[graph.Vertex]int{}
		for row := 0; row < part.CSR.NumRows(); row++ {
			for _, tgt := range part.CSR.Row(row) {
				if v := tgt.Vertex(); !part.IsMaster(v) {
					counts[v]++
				}
			}
		}
		var repeated []int
		for _, c := range counts {
			if c >= 2 {
				repeated = append(repeated, c)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(repeated)))
		if part.Rank == 0 && len(repeated) < 8 {
			t.Fatalf("rank 0 repeats only %d remote targets: the graph tests nothing", len(repeated))
		}

		full := BuildGhostTable(part, DefaultGhostsPerPartition)
		if full.Len() != len(repeated) {
			t.Fatalf("rank %d: default table holds %d ghosts, %d remote targets have >= 2 local edges",
				part.Rank, full.Len(), len(repeated))
		}
		for _, v := range full.Vertices() {
			if counts[v] < 2 {
				t.Fatalf("rank %d: ghosted %d, seen %d times", part.Rank, v, counts[v])
			}
		}

		const k = 3
		capped := BuildGhostTable(part, k)
		if want := min(k, len(repeated)); capped.Len() != want {
			t.Fatalf("rank %d: k=%d table holds %d ghosts, want %d", part.Rank, k, capped.Len(), want)
		}
		for i, v := range capped.Vertices() {
			if counts[v] != repeated[i] {
				t.Fatalf("rank %d: k=%d ghost %d has count %d, the %d-th highest is %d",
					part.Rank, k, i, counts[v], i, repeated[i])
			}
		}
	}
}

// TestBuildGhostTablesSetting: BuildGhostTables is where the ghost setting
// is interpreted — 0 the default, negative off, positive a cap.
func TestBuildGhostTablesSetting(t *testing.T) {
	var edges []graph.Edge
	for s := uint64(0); s < 8; s++ {
		for j := uint64(0); j < 4; j++ {
			edges = append(edges, graph.Edge{Src: graph.Vertex(s), Dst: graph.Vertex(24 + j)})
		}
	}
	parts := buildParts(t, edges, 32, 2)
	if BuildGhostTables(parts, -1) != nil {
		t.Fatal("negative setting built tables")
	}
	def, capped := BuildGhostTables(parts, 0), BuildGhostTables(parts, 1)
	for rank, part := range parts {
		if want := BuildGhostTable(part, DefaultGhostsPerPartition).Len(); def[rank].Len() != want {
			t.Fatalf("rank %d: setting 0 built %d ghosts, the default table has %d", rank, def[rank].Len(), want)
		}
		if capped[rank].Len() > 1 {
			t.Fatalf("rank %d: setting 1 built %d ghosts", rank, capped[rank].Len())
		}
	}
	if def[0].Len() < 2 {
		t.Fatalf("rank 0's default table holds %d ghosts: the graph tests nothing", def[0].Len())
	}
	if sparse := BuildGhostTables([]*partition.Part{nil, parts[1]}, 0); sparse[0] != nil || sparse[1] == nil {
		t.Fatal("a process that holds only some ranks' parts must get tables for exactly those")
	}
}

// TestLocalPushAppliedInPlace: a push for a vertex the rank masters is
// applied before Push returns — queued, the queue no longer idle — and never
// touches the mailbox or the detector's in-flight counts; a remote push still
// becomes a record; a cancelled queue counts a push and drops it.
func TestLocalPushAppliedInPlace(t *testing.T) {
	parts := buildParts(t, []graph.Edge{{Src: 0, Dst: 9}, {Src: 9, Dst: 0}}, 16, 2)
	topo, err := mailbox.ByName("1d", 2)
	if err != nil {
		t.Fatal(err)
	}
	rt.NewMachine(2).Run(func(r *rt.Rank) {
		if r.Rank() != 0 {
			return
		}
		part := parts[0]
		lo, hi := part.Owners.MasterRange(0)
		if lo >= hi || hi >= part.NumVertices {
			t.Errorf("rank 0 masters [%d, %d): the test needs a local and a remote vertex", lo, hi)
			return
		}
		local, remote := graph.Vertex(lo), graph.Vertex(hi)
		det := termination.New(r)
		box := mailbox.New(r, topo, det)
		algo := &orderAlgo{}
		q := NewQueue[orderVisitor](r, part, algo, nil, nil, box, 0)
		if !q.LocalIdle() {
			t.Error("fresh queue not idle")
		}

		q.Push(orderVisitor{v: local, prio: 1})
		if st := q.Stats(); st.Pushed != 1 || st.Local != 1 || st.Queued != 1 || st.Received != 0 {
			t.Errorf("after a local push: %+v", st)
		}
		if q.LocalIdle() {
			t.Error("queue idle with a local push queued")
		}
		if mb := box.Stats(); mb.RecordsSent != 0 || box.PendingRecords() != 0 || len(box.Poll()) != 0 {
			t.Errorf("local push entered the mailbox: %+v", mb)
		}
		if det.Sent() != 0 || det.Received() != 0 {
			t.Errorf("local push counted in flight: S=%d R=%d", det.Sent(), det.Received())
		}
		if !q.Step(8) || len(algo.executed) != 1 || algo.executed[0].v != local {
			t.Errorf("local push did not execute: %v", algo.executed)
		}

		q.Push(orderVisitor{v: remote})
		if st, mb := q.Stats(), box.Stats(); st.Pushed != 2 || st.Local != 1 || st.Queued != 1 ||
			mb.RecordsSent != 1 || det.Sent() != 1 {
			t.Errorf("after a remote push: %+v, mailbox %+v, S=%d", st, mb, det.Sent())
		}

		q.Cancel()
		q.Push(orderVisitor{v: local})
		if st := q.Stats(); st.Pushed != 3 || st.Local != 2 || st.Queued != 1 {
			t.Errorf("cancelled queue, after a local push: %+v", st)
		}
		if !q.LocalIdle() {
			t.Error("cancelled queue queued a local push")
		}
		st, mb := q.Stats(), box.Stats()
		if st.Pushed-st.GhostFiltered-st.Local+st.Forwarded != mb.RecordsSent {
			t.Errorf("push accounting: %+v against %d records sent", st, mb.RecordsSent)
		}
	})
}
