package engine

import (
	"runtime"
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
