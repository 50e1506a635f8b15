package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"havoqgt/internal/graph"
)

// TestControlLogDropsReplayedEvents: a resident engine must not retain a
// retired query through its control log. 300 sequential queries, a third of
// them cancelled, against one engine: the retained log stays at in-flight plus
// a small constant, and a retired query's Result is collectable once the
// caller drops its ticket.
func TestControlLogDropsReplayedEvents(t *testing.T) {
	const n = 256
	g := buildTestGraph(t, ring(n, 1, 7), n, 4)
	e, err := Start(Config{Machine: g.m, Parts: g.parts}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	collected := make(chan struct{})
	maxRetained := 0
	for i := 0; i < 300; i++ {
		tk, err := e.Submit(Spec{Algo: AlgoBFS, Source: graph.Vertex(i % n)})
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			tk.Cancel()
		}
		res := tk.Wait()
		if i == 10 {
			runtime.SetFinalizer(res, func(*Result) { close(collected) })
		}
		e.log.mu.RLock()
		retained := len(e.log.events)
		e.log.mu.RUnlock()
		if retained > maxRetained {
			maxRetained = retained
		}
	}
	// One query in flight at a time: its start, its cancel, and the previous
	// query's cancel if a rank that had already retired it has not replayed
	// that yet.
	if maxRetained > 4 {
		t.Fatalf("control log retained up to %d events with one query in flight, want <= 4", maxRetained)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a retired query's Result is still reachable after its ticket was dropped")
}

// gated is a runner that cannot report idle, and so cannot quiesce, until its
// gate opens.
type gated struct {
	runner
	open *atomic.Bool
}

func (g gated) LocalIdle() bool { return g.open.Load() && g.runner.LocalIdle() }

// TestUnwaitLeavesNoStaleTail: cancelling or aborting a query that is still in
// the wait queue, and not its last entry, splices it out without leaving the
// old last element — a pointer to a query — in the backing array past
// len(waitq).
func TestUnwaitLeavesNoStaleTail(t *testing.T) {
	g := buildTestGraph(t, ring(64, 1), 64, 2)
	e, err := Start(Config{Machine: g.m, Parts: g.parts}, Options{MaxInFlight: 1, MaxQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var open atomic.Bool
	defer open.Store(true) // before Close, which waits for the blocker
	t.Cleanup(register(&algo{name: "gated", run: func(env *runEnv) runner {
		qu := newQueue[orderVisitor](env, &orderAlgo{})
		return gated{&run{queue: qu, finish: func() {}}, &open}
	}}))
	blocker, err := e.Submit(Spec{Algo: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	var waiting []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := e.Submit(Spec{Algo: AlgoBFS, Source: graph.Vertex(i)})
		if err != nil {
			t.Fatal(err)
		}
		waiting = append(waiting, tk)
	}
	for _, retire := range []func(){waiting[1].Cancel, waiting[0].Abort} {
		retire()
		e.mu.Lock()
		n := len(e.waitq)
		stale := e.waitq[:n+1][n]
		e.mu.Unlock()
		if stale != nil {
			t.Fatalf("wait queue of %d keeps a query at index %d of its backing array", n, n)
		}
	}
	open.Store(true)
	for _, tk := range []*Ticket{blocker, waiting[2], waiting[3]} {
		if res := tk.Wait(); res.Cancelled {
			t.Fatal("a query nobody cancelled completed cancelled")
		}
	}
}
