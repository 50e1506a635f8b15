package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

// stalledMarking is a cc runner whose marking stops advancing once this rank
// has scanned its first level: the query cannot end until it is cancelled.
type stalledMarking struct {
	*run
	stalled *sync.WaitGroup // one Done per rank, when its marking stalls
	once    sync.Once
	marking *atomic.Int32 // ranks whose marking was still running when cancelled
}

func (m *stalledMarking) Step(batch int) bool {
	if d, _ := m.phase.(*bfs.DO); d != nil && d.TopDownLevels+d.BottomUpLevels > 0 {
		m.once.Do(m.stalled.Done)
		return m.queue.Step(batch)
	}
	return m.run.Step(batch)
}

func (m *stalledMarking) Cancel() {
	if m.then != nil {
		m.marking.Add(1)
	}
	m.run.Cancel()
}

// startCC starts an engine on g and submits one query of a cc variant: cc's
// entry, registered for the test under another name, with rank runners run
// builds.
func startCC(t *testing.T, g *testGraph, run func(*runEnv) runner) (*Engine, *Ticket) {
	t.Helper()
	variant := *lookup(AlgoCC)
	variant.name, variant.run = "cc_variant", run
	t.Cleanup(register(&variant))
	e, err := Start(Config{Machine: g.m, Parts: g.parts, Ghosts: g.ghosts, Topology: g.topo}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(Spec{Algo: variant.name})
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return e, tk
}

// TestCCMarkingHoldsOffIdle: a rank whose marking has a level to scan is not
// idle, though its queue holds nothing. The marking can scan level 0 from the
// build-time hub as soon as the runner is built, and on one rank nothing is
// in flight, so a runner that reported the queue's idleness alone would let
// the detector end the query before the marking began.
func TestCCMarkingHoldsOffIdle(t *testing.T) {
	idle := true
	e, tk := startCC(t, buildTestGraph(t, graph.Undirect(ring(16, 1)), 16, 1), func(env *runEnv) runner {
		rn := newCCRunner(env)
		idle = rn.LocalIdle()
		return rn
	})
	defer e.Close()
	if res := tk.Wait(); idle || res.Components != 1 {
		t.Fatalf("runner idle before its marking: %v; components %d, want 1", idle, res.Components)
	}
}

// TestCCCancelDuringMarkingResumes: a cc query cancelled while its marking
// runs leaves a valid checkpoint — every label is a vertex of the labelled
// vertex's component — and resuming from it reaches the reference's labels
// and component count.
func TestCCCancelDuringMarkingResumes(t *testing.T) {
	const p = 4
	gen := generators.NewGraph500(10, 42)
	edges := graph.Undirect(gen.Generate())
	n := gen.NumVertices()
	g := buildTestGraph(t, edges, n, p)
	g.ghosts = core.BuildGhostTables(g.parts, 0)
	g.topo = "2d"

	var stalled sync.WaitGroup
	stalled.Add(p)
	var marking atomic.Int32
	e, tk := startCC(t, g, func(env *runEnv) runner {
		return &stalledMarking{run: newCCRunner(env).(*run), stalled: &stalled, marking: &marking}
	})
	defer e.Close()
	stalled.Wait()
	tk.Cancel()
	if res := tk.Wait(); !res.Cancelled {
		t.Fatal("the stalled query completed uncancelled")
	}
	if got := marking.Load(); got != p {
		t.Fatalf("the cancel reached %d of %d ranks while their marking ran", got, p)
	}
	cp := tk.Checkpoint()
	if cp == nil {
		t.Fatal("a cc query cancelled during its marking left no checkpoint")
	}
	want, count := ref.Components(ref.BuildAdj(edges, n))
	for v, l := range cp.Res.Labels {
		if uint64(l) >= n || want[l] != want[v] {
			t.Fatalf("checkpoint labels vertex %d with %d, outside its component", v, l)
		}
	}

	resumed, err := e.Submit(cp.ResumeSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	res := resumed.Wait()
	for v := range want {
		if res.Labels[v] != want[v] {
			t.Fatalf("resumed label(%d) = %d, reference %d", v, res.Labels[v], want[v])
		}
	}
	if res.Components != count {
		t.Fatalf("resumed count %d, reference %d", res.Components, count)
	}
}
