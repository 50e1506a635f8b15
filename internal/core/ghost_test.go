package core_test

import (
	"testing"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// filterGraph is 1025 vertices on p ranks in which each half's sources
// repeat 300 targets of the other half, so a rank holding one half has more
// than 256 slots, and vertex 1024 has no edges at all.
func filterGraph(r *rt.Rank, p int) *partition.Part {
	const half = 512
	var local []graph.Edge
	for s := uint64(0); s < 2*half; s++ {
		other := half - s/half*half // the first vertex of the other half
		for _, d := range []uint64{other + s%300, other + (s+150)%300} {
			local = append(local, graph.Edge{Src: graph.Vertex(s), Dst: graph.Vertex(d)})
		}
	}
	var mine []graph.Edge
	for i, e := range local {
		if i%p == r.Rank() {
			mine = append(mine, e)
		}
	}
	part, err := partition.BuildEdgeList(r, mine, 2*half+1)
	if err != nil {
		panic(err)
	}
	return part
}

// TestGhostFilterContract: under a 256-slot cap, an untagged word and a slot
// at or past the table's length always pass; a slot's key passes only while
// it improves on the best the slot has passed, which it then becomes; and
// every dropped push shows, once published, in Stats.Pushed and
// Stats.GhostFiltered and in the core.* registry counters.
func TestGhostFilterContract(t *testing.T) {
	const p, capSlots = 2, 256
	topo, err := mailbox.ByName("1d", p)
	if err != nil {
		t.Fatal(err)
	}
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		part := filterGraph(r, p)
		if r.Rank() != 0 {
			return
		}
		if len(part.SlotVertex) <= capSlots {
			t.Errorf("rank 0 has %d slots: the cap tests nothing", len(part.SlotVertex))
			return
		}
		det := termination.New(r)
		box := mailbox.New(r, topo, det)
		q := core.NewQueue[bfs.Visitor](r, part, bfs.New(part), core.BuildGhostTable(part, capSlots), nil, box, det, 0)
		g := q.Ghosts()
		slot := func(s int) csr.Target { return csr.Target(part.SlotVertex[s]).WithSlot(s) }
		worst := ^uint64(0)

		for _, c := range []struct {
			name string
			t    csr.Target
			key  uint64
			drop bool
		}{
			{"untagged word", csr.Target(part.SlotVertex[0]), worst, false},
			{"slot at the table's length", slot(capSlots), worst, false},
			{"slot past the table's length", slot(capSlots + 1), worst, false},
			{"last slot, a key nothing improves on", slot(capSlots - 1), worst, true},
			{"first key", slot(0), 5, false},
			{"equal key", slot(0), 5, true},
			{"worse key", slot(0), 6, true},
			{"better key", slot(0), 4, false},
			{"the better key, again", slot(0), 4, true},
			{"another slot", slot(1), 5, false},
		} {
			if got := g.Drop(c.t, c.key); got != c.drop {
				t.Errorf("%s: Drop(slot %d, %d) = %v, want %v", c.name, c.t.Slot(), c.key, got, c.drop)
			}
		}

		const dropped = 4
		for range 2 { // a second publication folds nothing twice
			st := q.Stats()
			if st.Pushed != dropped || st.GhostFiltered != dropped {
				t.Errorf("Stats: pushed %d, ghost-filtered %d, want %d each", st.Pushed, st.GhostFiltered, dropped)
			}
			for _, name := range []string{obs.CorePushed, obs.CoreGhostFiltered} {
				if got := r.Obs().PerRank(name, p).Rank(0); got != dropped {
					t.Errorf("registry %s = %d, want %d", name, got, dropped)
				}
			}
		}
	})
}

// TestGhostFilterUnallocatedFromDegreeZeroSource: a query whose source has no
// edges sizes no ghost filter on any rank — a query pays for coverage only
// once it pushes along an edge — while one from a source with edges does.
func TestGhostFilterUnallocatedFromDegreeZeroSource(t *testing.T) {
	const p, isolated, connected = 2, graph.Vertex(1024), graph.Vertex(0)
	for _, tc := range []struct {
		name string
		run  func(src graph.Vertex) []bool
	}{
		{"bfs", func(src graph.Vertex) []bool {
			return filterSized(p, func(part *partition.Part) core.Algorithm[bfs.Visitor] { return bfs.New(part) },
				bfs.Visitor{V: src, Parent: src})
		}},
		{"cc", func(src graph.Vertex) []bool {
			return filterSized(p, func(part *partition.Part) core.Algorithm[cc.Visitor] { return cc.New(part) },
				cc.Visitor{V: src, Label: src})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for rank, sized := range tc.run(isolated) {
				if sized {
					t.Errorf("degree-0 source: rank %d sized its ghost filter", rank)
				}
			}
			any := false
			for _, sized := range tc.run(connected) {
				any = any || sized
			}
			if !any {
				t.Error("a source with edges sized no ghost filter: the test observes nothing")
			}
		})
	}
}

// filterSized runs one query seeded with seed on p ranks of filterGraph under
// the default ghost tables, to quiescence, and reports per rank whether the
// query sized its ghost filter.
func filterSized[V core.Visitor](p int, newAlgo func(*partition.Part) core.Algorithm[V], seed V) []bool {
	topo, err := mailbox.ByName("2d", p)
	if err != nil {
		panic(err)
	}
	sized := make([]bool, p)
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		part := filterGraph(r, p)
		det := termination.New(r)
		box := mailbox.New(r, topo, det)
		ghosts := core.BuildGhostTable(part, core.DefaultGhostsPerPartition)
		q := core.NewQueue[V](r, part, newAlgo(part), ghosts, nil, box, det, 0)
		if part.IsMaster(seed.Vertex()) {
			q.Push(seed)
		}
		for {
			q.Step(64)
			for _, rec := range box.Poll() {
				q.Deliver(rec)
			}
			box.FlushAll()
			if q.PumpTermination(q.LocalIdle()) {
				break
			}
		}
		sized[r.Rank()] = core.FilterSized(q)
	})
	return sized
}
