package havoqgt

// Regression tests for the facade's concurrency contract: concurrent public
// API calls on one Graph must not corrupt each other (two engines on one
// simulated machine would mix their records and desynchronize termination
// detection), and with an attached engine they must interleave as
// independent tagged queries. Run under -race.

import (
	"sync"
	"testing"
	"time"

	"havoqgt/internal/check"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

// TestConcurrentOneShotCallsAreSerialized hammers the no-engine path from 8
// goroutines; the internal mutex must serialize the transient engines so
// every result stays correct, and each must leave no goroutine behind.
func TestConcurrentOneShotCallsAreSerialized(t *testing.T) {
	check.NoLeaks(t)
	const n = 300
	edges := testEdges(n, 1200, 7)
	g, err := NewGraph(edges, n, Options{Ranks: 4, Undirect: true})
	if err != nil {
		t.Fatal(err)
	}
	adj := ref.BuildAdj(graph.Undirect(edges), n)

	var wg sync.WaitGroup
	for w := 0; w < 7; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				src := Vertex((w*31 + i*7) % n)
				res, err := g.BFS(src)
				if err != nil {
					t.Errorf("BFS(%d): %v", src, err)
					return
				}
				want, _ := ref.BFS(adj, src)
				for v := uint64(0); v < n; v++ {
					if res.Levels[v] != want[v] {
						t.Errorf("concurrent BFS(%d) vertex %d: level %d, want %d", src, v, res.Levels[v], want[v])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			res, err := g.Components()
			if err != nil {
				t.Errorf("Components: %v", err)
				return
			}
			_, want := ref.Components(adj)
			if res.Count != want {
				t.Errorf("concurrent Components: %d, want %d", res.Count, want)
				return
			}
		}
	}()
	wg.Wait()
}

// TestEngineBackedFacadeCalls attaches an engine and checks that (a) every
// Graph query method routes through it and stays correct under concurrency,
// (b) a second engine cannot attach, and (c) one-shot calls work again after
// Close — on the instantaneous transport and under a modeled 1 ms
// interconnect, where every termination wave and frontier round trip stalls
// with other queries' work filling the gap.
func TestEngineBackedFacadeCalls(t *testing.T) {
	for _, latency := range []time.Duration{0, time.Millisecond} {
		t.Run(latency.String(), func(t *testing.T) { engineBackedFacadeCalls(t, latency) })
	}
}

func engineBackedFacadeCalls(t *testing.T, latency time.Duration) {
	check.NoLeaks(t)
	const n = 300
	edges := testEdges(n, 1200, 11)
	g, err := NewGraph(edges, n, Options{Ranks: 4, Undirect: true, Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	g.SetSimLatency(latency)
	adj := ref.BuildAdj(graph.Undirect(edges), n)
	unattachedEst, err := g.EstimateTriangles(0.5, 1)
	if err != nil {
		t.Fatalf("EstimateTriangles with no engine: %v", err)
	}

	e, err := g.StartEngine(EngineOptions{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.StartEngine(EngineOptions{}); err == nil {
		t.Error("second StartEngine should fail while one is attached")
	}
	if count, err := g.CountTriangles(); err != nil {
		t.Errorf("engine-routed CountTriangles: %v", err)
	} else if want := ref.CountTriangles(ref.BuildAdj(graph.Simplify(graph.Undirect(edges)), n)); count != want {
		t.Errorf("engine-routed CountTriangles: %d, want %d", count, want)
	}
	// The wedge sample is a deterministic hash of (wedge, seed): the estimate
	// is the same number on the attached engine as on a transient one.
	if est, err := g.EstimateTriangles(0.5, 1); err != nil {
		t.Errorf("engine-routed EstimateTriangles: %v", err)
	} else if est != unattachedEst {
		t.Errorf("EstimateTriangles: %v attached, %v with no engine", est, unattachedEst)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := Vertex((w * 37) % n)
			res, err := g.BFS(src)
			if err != nil {
				t.Errorf("engine-backed BFS(%d): %v", src, err)
				return
			}
			want, _ := ref.BFS(adj, src)
			for v := uint64(0); v < n; v++ {
				if res.Levels[v] != want[v] {
					t.Errorf("engine-backed BFS(%d) vertex %d: level %d, want %d", src, v, res.Levels[v], want[v])
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, err := g.BFS(0)
	if err != nil {
		t.Fatalf("one-shot BFS after Close: %v", err)
	}
	want, _ := ref.BFS(adj, 0)
	for v := uint64(0); v < n; v++ {
		if res.Levels[v] != want[v] {
			t.Fatalf("post-Close BFS vertex %d: level %d, want %d", v, res.Levels[v], want[v])
		}
	}
}
