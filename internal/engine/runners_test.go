package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// heldRun is a runner that holds its query open, never locally idle, until
// release is closed.
type heldRun struct {
	*run
	release <-chan struct{}
}

func (h heldRun) LocalIdle() bool {
	select {
	case <-h.release:
		return true
	default:
		return false
	}
}

// TestEngineWaitCtxReleasesQueuedQuery is the wait-queue cancellation
// regression test: a query parked behind a full in-flight set whose caller
// context expires must come back promptly with context.DeadlineExceeded and
// free its wait-queue slot immediately — not linger until a slot opens. The
// in-flight slot is held by a query that cannot end before the test lets it.
func TestEngineWaitCtxReleasesQueuedQuery(t *testing.T) {
	g := rmatTestGraph(t, 10, 4)
	release := make(chan struct{})
	t.Cleanup(register(&algo{name: "held", run: func(*runEnv) runner {
		return heldRun{&run{finish: func() {}}, release}
	}}))
	e, err := Start(Config{Machine: g.m, Parts: g.parts, Ghosts: g.ghosts}, Options{MaxInFlight: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var free sync.Once
	defer free.Do(func() { close(release) })

	blocker, err := e.Submit(Spec{Algo: "held"})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, err := e.Submit(Spec{Algo: AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	// Pre-expired context: the deadline has already passed when WaitCtx runs,
	// so the call must cancel the still-queued query rather than wait for
	// the blocker to free a slot. Timeout 0 keeps the DeadlineExceeded cause.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	begin := time.Now()
	res, werr := queued.WaitCtx(ctx)
	elapsed := time.Since(begin)
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx = %v, want context.DeadlineExceeded", werr)
	}
	if !res.Cancelled {
		t.Fatal("queued query released by WaitCtx not marked Cancelled")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("WaitCtx took %v; queued query was not released promptly", elapsed)
	}

	// The wait-queue slot must be free immediately: with MaxQueue 1 and the
	// blocker still holding the in-flight slot, this submit must not hit
	// ErrRejected.
	next, err := e.Submit(Spec{Algo: AlgoBFS, Source: 1})
	if err != nil {
		t.Fatalf("post-release submit: %v (wait-queue slot not reclaimed)", err)
	}
	free.Do(func() { close(release) })
	if res := next.Wait(); res.Cancelled {
		t.Fatal("follow-up query cancelled unexpectedly")
	}
	if res := blocker.Wait(); res.Cancelled {
		t.Fatal("blocker cancelled unexpectedly")
	}
}
