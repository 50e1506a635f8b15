package engine_test

import (
	"context"
	"errors"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/check"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/obs"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/rt"
)

// buildConfig constructs a partitioned RMAT graph on a fresh machine. Also
// returns the full edge list for reference computations.
func buildConfig(t *testing.T, scale uint, p int, topo string) (engine.Config, []graph.Edge, uint64) {
	t.Helper()
	check.NoLeaks(t) // before anything spawns: the leak check must run last
	gen := generators.NewGraph500(scale, 42)
	n := gen.NumVertices()
	var edges []graph.Edge
	for r := 0; r < p; r++ {
		edges = append(edges, graph.Undirect(gen.GenerateChunk(r, p))...)
	}
	m := rt.NewMachine(p)
	parts := make([]*partition.Part, p)
	m.Run(func(r *rt.Rank) {
		local := graph.Undirect(gen.GenerateChunk(r.Rank(), r.Size()))
		part, err := partition.BuildEdgeList(r, local, n)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	return engine.Config{Machine: m, Parts: parts, Ghosts: core.BuildGhostTables(parts, 0), Topology: topo}, edges, n
}

// buildEngine starts an engine over a buildConfig graph.
func buildEngine(t *testing.T, scale uint, p int, topo string, opts engine.Options) (*engine.Engine, []graph.Edge, uint64) {
	t.Helper()
	cfg, edges, n := buildConfig(t, scale, p, topo)
	e, err := engine.Start(cfg, opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return e, edges, n
}

// checkFlows asserts the per-query conservation invariants on a completed
// ticket.
func checkFlows(t *testing.T, tk *engine.Ticket) {
	t.Helper()
	if err := check.Error(check.QueryConservation(tk.Stats())); err != nil {
		t.Errorf("query %d: %v", tk.ID(), err)
	}
}

// TestEngineBFSMatchesReference runs one engine-backed BFS and compares
// levels against the sequential reference, and parents for consistency.
func TestEngineBFSMatchesReference(t *testing.T) {
	e, edges, n := buildEngine(t, 8, 4, "1d", engine.Options{})
	defer e.Close()

	adj := ref.BuildAdj(edges, n)
	wantLevels, _ := ref.BFS(adj, 0)

	tk, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := tk.Wait()
	if res.Cancelled {
		t.Fatal("query reported cancelled without a Cancel call")
	}
	for v := uint64(0); v < n; v++ {
		if res.Levels[v] != wantLevels[v] {
			t.Fatalf("vertex %d: level %d, reference %d", v, res.Levels[v], wantLevels[v])
		}
	}
	// Parent consistency: a reached non-source vertex's parent must sit one
	// level above it (exact parents are run-dependent among equals).
	for v := uint64(0); v < n; v++ {
		if res.Levels[v] == bfs.Unreached || v == 0 {
			continue
		}
		p := res.Parents[v]
		if p == graph.Nil || res.Levels[p] != res.Levels[v]-1 {
			t.Fatalf("vertex %d at level %d has parent %d at level %d", v, res.Levels[v], p, res.Levels[p])
		}
	}
	if res.Waves == 0 {
		t.Error("expected at least one termination wave")
	}
	checkFlows(t, tk)
}

// TestEngineConcurrentQueries drives at least 8 concurrent in-flight
// traversals (mixed algorithms) through one engine and checks every result
// against the sequential references plus per-query conservation.
func TestEngineConcurrentQueries(t *testing.T) {
	const p = 4
	e, edges, n := buildEngine(t, 8, p, "2d", engine.Options{MaxInFlight: 8})
	defer e.Close()

	adj := ref.BuildAdj(edges, n)

	type job struct {
		spec engine.Spec
		tk   *engine.Ticket
	}
	var jobs []job
	for i := 0; i < 4; i++ {
		jobs = append(jobs,
			job{spec: engine.Spec{Algo: engine.AlgoBFS, Source: graph.Vertex(i * 3)}},
			job{spec: engine.Spec{Algo: engine.AlgoSSSP, Source: graph.Vertex(i * 5), WeightSeed: uint64(i)}},
		)
	}
	jobs = append(jobs,
		job{spec: engine.Spec{Algo: engine.AlgoCC}},
		job{spec: engine.Spec{Algo: engine.AlgoKCore, K: 2}},
		job{spec: engine.Spec{Algo: engine.AlgoBFSDO, Source: 7}},
		job{spec: engine.Spec{Algo: engine.AlgoPageRank, Iters: 8}},
		job{spec: engine.Spec{Algo: engine.AlgoTriangles}},
	)

	// Submit everything up front: with MaxInFlight 8 and 10 jobs, at least 8
	// traversals interleave over the shared message plane.
	var wg sync.WaitGroup
	for i := range jobs {
		tk, err := e.Submit(jobs[i].spec)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs[i].tk = tk
		wg.Add(1)
		go func() { defer wg.Done(); tk.Wait() }()
	}
	wg.Wait()

	for i, j := range jobs {
		res := j.tk.Wait()
		if res.Cancelled {
			t.Fatalf("job %d cancelled unexpectedly", i)
		}
		switch j.spec.Algo {
		case engine.AlgoBFS:
			want, _ := ref.BFS(adj, j.spec.Source)
			for v := uint64(0); v < n; v++ {
				if res.Levels[v] != want[v] {
					t.Fatalf("job %d (bfs from %d) vertex %d: level %d, reference %d",
						i, j.spec.Source, v, res.Levels[v], want[v])
				}
			}
		case engine.AlgoSSSP:
			seed := j.spec.WeightSeed
			want, _ := ref.Dijkstra(adj, j.spec.Source, func(u, v graph.Vertex) uint64 {
				return sssp.Weight(u, v, seed)
			})
			for v := uint64(0); v < n; v++ {
				if res.Dist[v] != want[v] {
					t.Fatalf("job %d (sssp from %d) vertex %d: dist %d, reference %d",
						i, j.spec.Source, v, res.Dist[v], want[v])
				}
			}
		case engine.AlgoCC:
			want, count := ref.Components(adj)
			if res.Components != count {
				t.Fatalf("job %d (cc): %d components, reference %d", i, res.Components, count)
			}
			for v := uint64(0); v < n; v++ {
				if res.Labels[v] != want[v] {
					t.Fatalf("job %d (cc) vertex %d: label %d, reference %d", i, v, res.Labels[v], want[v])
				}
			}
		case engine.AlgoKCore:
			want := ref.KCore(adj, j.spec.K)
			if res.CoreSize != ref.CoreSize(want) {
				t.Fatalf("job %d (kcore): core size %d, reference %d", i, res.CoreSize, ref.CoreSize(want))
			}
			for v := uint64(0); v < n; v++ {
				if res.InCore[v] != want[v] {
					t.Fatalf("job %d (kcore) vertex %d: in-core %v, reference %v", i, v, res.InCore[v], want[v])
				}
			}
		case engine.AlgoBFSDO:
			// Hash-identity bar: DO levels must equal the reference (and so the
			// visitor-queue BFS) exactly, with consistent parents.
			want, _ := ref.BFS(adj, j.spec.Source)
			for v := uint64(0); v < n; v++ {
				if res.Levels[v] != want[v] {
					t.Fatalf("job %d (bfs_do from %d) vertex %d: level %d, reference %d",
						i, j.spec.Source, v, res.Levels[v], want[v])
				}
				if res.Levels[v] != bfs.Unreached && v != uint64(j.spec.Source) {
					p := res.Parents[v]
					if p == graph.Nil || res.Levels[p] != res.Levels[v]-1 {
						t.Fatalf("job %d (bfs_do) vertex %d parent %d invalid", i, v, p)
					}
				}
			}
		case engine.AlgoPageRank:
			want := ref.PageRank(adj, int(j.spec.Iters))
			for v := uint64(0); v < n; v++ {
				if res.Ranks[v] != want[v] {
					t.Fatalf("job %d (pagerank) vertex %d: rank %d, reference %d",
						i, v, res.Ranks[v], want[v])
				}
			}
		case engine.AlgoTriangles:
			// The engine graph is a raw RMAT multigraph; the count must match
			// the reference over the simplified graph.
			want := ref.CountTriangles(ref.BuildAdj(graph.Simplify(edges), n))
			if res.Triangles != want {
				t.Fatalf("job %d (triangles): %d, reference %d", i, res.Triangles, want)
			}
		}
		checkFlows(t, j.tk)
	}
}

// TestEngineAdmissionControl fills every in-flight slot and the wait queue,
// then verifies the next submission is rejected with the distinct error and
// that waiting queries run after slots free up.
func TestEngineAdmissionControl(t *testing.T) {
	e, _, _ := buildEngine(t, 7, 3, "1d", engine.Options{MaxInFlight: 2, MaxQueue: 3})
	defer e.Close()

	var tickets []*engine.Ticket
	for i := 0; i < 5; i++ { // 2 in flight + 3 waiting
		tk, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: graph.Vertex(i)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if _, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0}); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("6th submit: got %v, want ErrRejected", err)
	}
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Cancelled {
			t.Fatalf("ticket %d cancelled", i)
		}
		checkFlows(t, tk)
	}
	// Slots are free again: a new submission is admitted.
	tk, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	tk.Wait()
}

// TestEngineCancellation cancels an in-flight query and checks the engine
// quiesces it with no stranded records: per-query conservation must hold
// exactly even though visitors stopped being applied mid-flight, and later
// queries on the same engine must be unaffected.
func TestEngineCancellation(t *testing.T) {
	e, edges, n := buildEngine(t, 9, 4, "3d", engine.Options{})
	defer e.Close()

	tk, err := e.Submit(engine.Spec{Algo: engine.AlgoSSSP, Source: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	tk.Cancel()
	res := tk.Wait()
	if !res.Cancelled {
		t.Fatal("cancelled query did not report Cancelled")
	}
	checkFlows(t, tk) // no stranded tagged records anywhere

	// Cancelling again (completed query) is a no-op.
	tk.Cancel()

	// The engine keeps serving correct results after a cancellation.
	adj := ref.BuildAdj(edges, n)
	want, _ := ref.BFS(adj, 2)
	tk2, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 2})
	if err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
	res2 := tk2.Wait()
	for v := uint64(0); v < n; v++ {
		if res2.Levels[v] != want[v] {
			t.Fatalf("post-cancel BFS vertex %d: level %d, reference %d", v, res2.Levels[v], want[v])
		}
	}
	checkFlows(t, tk2)
}

// TestEngineDeadline submits a query with a deadline short enough to expire
// mid-flight and checks it completes as cancelled with conserved flows.
func TestEngineDeadline(t *testing.T) {
	e, _, _ := buildEngine(t, 10, 4, "1d", engine.Options{})
	defer e.Close()

	tk, err := e.Submit(engine.Spec{Algo: engine.AlgoCC, Deadline: time.Microsecond})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res := tk.Wait()
	if !res.Cancelled {
		t.Skip("query beat a 1µs deadline; nothing to assert")
	}
	checkFlows(t, tk)
}

// TestCancelledQueriesKeepThePushLaw: a cancelled queue discards what it had
// queued and drops what it is delivered, but it holds nothing back at the
// sender, so every push it made is still accounted for (check.Traversal). A
// cancelled round protocol stops stepping and drains what it is delivered,
// and every record it sent is still counted. k-core (k = 8), top-down BFS,
// and the round protocols — SSSP, direction-optimizing BFS and PageRank — on
// a scale-12 graph are cut off by deadlines spread over one uncut run's
// time (a warm one: the first run is cold and slower); each run must keep
// every law, and each query type must have been cancelled at least once. Then the same, plus cc, out of core at 1/8
// resident, where a cancel can leave visitors and rows parked on pages still
// in flight: after each query type's cancelled runs, an uncut run must still
// return the reference's answer.
func TestCancelledQueriesKeepThePushLaw(t *testing.T) {
	check.NoLeaks(t)
	const p, topoName, runs = 4, "2d", 24
	gen := generators.NewGraph500(12, 42)
	m := rt.NewMachine(p)
	parts, err := partition.Build(m, gen.NumVertices(), partition.Undirected(gen.GenerateChunk), partition.EdgeList, true)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mailbox.ByName(topoName, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Machine: m, Parts: parts, Ghosts: core.BuildGhostTables(parts, 0), Topology: topoName}
	var source graph.Vertex // the highest-degree vertex: its BFS reaches the giant component
	for v, d := range parts[0].Degrees {
		if d > parts[0].Degrees[source] {
			source = graph.Vertex(v)
		}
	}
	specs := []engine.Spec{{Algo: engine.AlgoKCore, K: 8}, {Algo: engine.AlgoBFS, Source: source},
		{Algo: engine.AlgoSSSP, Source: source, WeightSeed: 3}, {Algo: engine.AlgoBFSDO, Source: source},
		{Algo: engine.AlgoPageRank, Iters: 5}}
	cut := func(name string, spec engine.Spec) {
		var full time.Duration // the second of two uncut runs: the first is cold
		for range 2 {
			start := time.Now()
			if _, _, err := engine.RunOnce(cfg, engine.Options{}, spec); err != nil {
				t.Fatal(err)
			}
			full = time.Since(start)
		}
		cancelled := 0
		for i := 1; i <= runs; i++ {
			spec.Deadline = full * time.Duration(i) / (runs + 1)
			_, stats, err := engine.RunOnce(cfg, engine.Options{}, spec)
			cut := errors.Is(err, context.DeadlineExceeded)
			if err != nil && !cut {
				t.Fatal(err)
			}
			if cut {
				cancelled++
			}
			if err := check.Error(check.Traversal(topo, stats)); err != nil {
				t.Errorf("%s %s, deadline %v (cancelled %v): %v", name, spec.Algo, spec.Deadline, cut, err)
			}
		}
		t.Logf("%s %s: %d of %d runs cancelled (an uncut run took %v)", name, spec.Algo, cancelled, runs, full)
		if cancelled == 0 {
			t.Errorf("no %s %s run was cancelled: its deadlines test nothing", name, spec.Algo)
		}
	}
	for _, spec := range specs {
		cut("resident", spec)
	}

	var edges []graph.Edge
	for r := 0; r < p; r++ {
		edges = append(edges, graph.Undirect(gen.GenerateChunk(r, p))...)
	}
	adj := ref.BuildAdj(graph.Simplify(edges), gen.NumVertices())
	stores, err := ooc.ExternalizeAll(parts, m.Obs(), func(*partition.Part) ooc.Config {
		return ooc.Config{ResidentFraction: 1.0 / 8, Latency: time.Microsecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stores.Close() })
	cfg.Pagers = engine.RowPagers(stores.Pagers())
	for _, spec := range append(specs, engine.Spec{Algo: engine.AlgoCC}) {
		cut("out of core", spec)
		res, _, err := engine.RunOnce(cfg, engine.Options{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		var same bool
		switch spec.Algo {
		case engine.AlgoKCore:
			same = slices.Equal(res.InCore, ref.KCore(adj, spec.K))
		case engine.AlgoBFS, engine.AlgoBFSDO:
			want, _ := ref.BFS(adj, spec.Source)
			same = slices.Equal(res.Levels, want)
		case engine.AlgoSSSP:
			want, _ := ref.Dijkstra(adj, spec.Source, func(u, v graph.Vertex) uint64 { return sssp.Weight(u, v, spec.WeightSeed) })
			same = slices.Equal(res.Dist, want)
		case engine.AlgoPageRank:
			same = slices.Equal(res.Ranks, ref.PageRank(adj, int(spec.Iters)))
		case engine.AlgoCC:
			want, _ := ref.Components(adj)
			same = slices.Equal(res.Labels, want)
		}
		if !same {
			t.Errorf("out of core %s after cancelled runs: the answer differs from the reference", spec.Algo)
		}
	}
}

// TestEngineCancelWaiting cancels a query still parked in the wait queue: it
// must complete immediately as cancelled without ever touching the ranks.
func TestEngineCancelWaiting(t *testing.T) {
	e, _, _ := buildEngine(t, 8, 3, "1d", engine.Options{MaxInFlight: 1, MaxQueue: 4})
	defer e.Close()

	first, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waiting, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit waiting: %v", err)
	}
	waiting.Cancel()
	res := waiting.Wait()
	if !res.Cancelled {
		t.Fatal("cancelled waiting query did not report Cancelled")
	}
	for r, st := range waiting.Stats() {
		if st != (core.Stats{}) {
			t.Fatalf("never-started query has nonzero stats on rank %d: %+v", r, st)
		}
	}
	first.Wait()
}

// TestEngineSubmitValidation covers spec validation and post-Close rejection.
func TestEngineSubmitValidation(t *testing.T) {
	e, _, n := buildEngine(t, 7, 2, "1d", engine.Options{})

	if _, err := e.Submit(engine.Spec{Algo: "betweenness"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: graph.Vertex(n)}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := e.Submit(engine.Spec{Algo: engine.AlgoBFSDO, Source: graph.Vertex(n)}); err == nil {
		t.Error("out-of-range bfs_do source accepted")
	}
	if _, err := e.Submit(engine.Spec{Algo: engine.AlgoKCore, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.Submit(engine.Spec{Algo: engine.AlgoPageRank, Iters: 1000}); err == nil {
		t.Error("pagerank iteration count beyond MaxIters accepted")
	}
	// Resume capability: algorithms without monotone per-vertex state reject
	// Spec.Resume with the typed sentinel.
	for _, algo := range []engine.Algo{engine.AlgoKCore, engine.AlgoPageRank,
		engine.AlgoTriangles, engine.AlgoBFSDO} {
		spec := engine.Spec{Algo: algo, K: 2}
		spec.Resume = &engine.Checkpoint{Spec: spec, Res: &engine.Result{Cancelled: true}}
		if _, err := e.Submit(spec); !errors.Is(err, engine.ErrNotResumable) {
			t.Errorf("%s resume: got %v, want ErrNotResumable", algo, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := e.Submit(engine.Spec{Algo: engine.AlgoCC}); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("post-Close submit: got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineCloseDrains submits a batch and closes immediately: Close must
// block until every outstanding query (including waiting ones) completed.
func TestEngineCloseDrains(t *testing.T) {
	e, _, _ := buildEngine(t, 8, 3, "1d", engine.Options{MaxInFlight: 2})

	var tickets []*engine.Ticket
	for i := 0; i < 6; i++ {
		tk, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: graph.Vertex(i)})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("Close returned with query %d still outstanding", i)
		}
	}
}

// TestRegistryAtQuiescence pins the two registry contracts a retired rank
// loop owes. The counters: hot paths write plain ledgers and publish to the
// registry in batches, and the registry equals the ledgers when a query's
// done closes, not only once the engine is gone. The pool gauge: a closed box
// takes its pooled buffers out of mailbox.pool_free and the box that adopts
// its storage brings them back in, so the gauge reads 0 after Engine.Close
// and after RunOnce instead of climbing with every engine the machine has
// ever hosted — and a one-shot after the first starts with the carried
// free-lists counted, before it ships anything, and draws pool hits on them.
func TestRegistryAtQuiescence(t *testing.T) {
	cfg, edges, n := buildConfig(t, 10, 4, "2d")
	spec := engine.Spec{Algo: engine.AlgoBFS, Source: edges[0].Src}
	poolFree := cfg.Machine.Obs().Gauge(obs.MBPoolFree)

	e, err := engine.Start(cfg, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()
	// done has closed and the engine is still running: the registry already
	// holds everything the ranks' ledgers do.
	var pushed, executed, sent, hops uint64
	for _, s := range tk.Stats() {
		pushed += s.Pushed
		executed += s.Executed
		sent += s.Mailbox.RecordsSent
		hops += s.Mailbox.Hops
	}
	snap := e.Obs().Snapshot()
	for _, c := range []struct {
		name string
		want uint64
	}{{obs.CorePushed, pushed}, {obs.CoreExecuted, executed}, {obs.MBRecordsSent, sent},
		{obs.MBRecordsDelivered, sent}, {obs.MBHops, hops}} {
		if got := snap.Counter(c.name); got != c.want || got == 0 {
			t.Errorf("when done closed: registry %s = %d, ledgers say %d", c.name, got, c.want)
		}
	}
	if poolFree.Value() <= 0 {
		t.Fatalf("%s = %d with resident boxes after a routed BFS, want > 0", obs.MBPoolFree, poolFree.Value())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := poolFree.Value(); got != 0 {
		t.Errorf("%s = %d after Engine.Close, want 0", obs.MBPoolFree, got)
	}

	for i := 0; i < 3; i++ {
		if _, _, err := engine.RunOnce(cfg, engine.Options{}, spec); err != nil {
			t.Fatal(err)
		}
		if got := poolFree.Value(); got != 0 {
			t.Errorf("%s = %d after RunOnce %d, want 0", obs.MBPoolFree, got, i)
		}
	}

	// The same one-shots spelled out (RunOnce is Start, one query, Close)
	// with a probe in front: a BFS from an isolated vertex ships nothing, so
	// once it is done every box is built and the gauge holds only what they
	// adopted at New, the free-lists the previous engine's boxes carried.
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	isolated := graph.Vertex(0)
	for deg[isolated] > 0 {
		isolated++
	}
	for i := 0; i < 3; i++ {
		e, err := engine.Start(cfg, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		probe, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: isolated})
		if err != nil {
			t.Fatal(err)
		}
		probe.Wait()
		carried := poolFree.Value()
		tk, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		tk.Wait()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		var shipped, hits uint64
		for _, s := range probe.Stats() {
			shipped += s.Mailbox.EnvelopesSent
		}
		for _, s := range tk.Stats() {
			hits += s.Mailbox.PoolHits
		}
		t.Logf("one-shot %d: %d free buffers carried before the first ship, %d pool hits", i, carried, hits)
		if got := poolFree.Value(); got != 0 {
			t.Errorf("%s = %d after one-shot %d, want 0", obs.MBPoolFree, got, i)
		}
		if shipped != 0 {
			t.Fatalf("the isolated probe shipped %d envelopes", shipped)
		}
		// The race runtime's sync.Pool drops a quarter of its puts at random.
		if i > 0 && !raceBuild() && (carried <= 0 || hits == 0) {
			t.Errorf("one-shot %d: %d free buffers carried before the first ship and %d pool hits, want both > 0",
				i, carried, hits)
		}
	}
}

// raceBuild reports whether the test binary was built with the race detector.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
