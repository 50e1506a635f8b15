package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"havoqgt"
	"havoqgt/internal/core"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/pagecache"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// Drills time one layer's public API in isolation. They do not depend on the
// workload: a traced single-workload run (the driver's form, which must
// report every per-layer metric) runs them after its measured phase, and the
// all-workloads run runs them once, on a graph of their own.

// runDrillsAlone is the all-workloads run's one measurement of the drills.
func runDrillsAlone(cfg runConfig) (result, error) {
	g, err := havoqgt.GenerateRMAT(cfg.shape.scale, graphSeed, cfg.shape.options())
	if err != nil {
		return result{}, fmt.Errorf("drills: generate: %w", err)
	}
	m, err := runDrills(g, cfg.shape, cfg.seed)
	if err != nil {
		return result{}, err
	}
	rendered, missing := m.render(drillMetrics)
	if len(missing) > 0 {
		return result{}, fmt.Errorf("drills declared but not measured: %v", missing)
	}
	return result{Correct: true, Attempted: 1, Metrics: rendered}, nil
}

// runDrills takes a plain graph: no engine attached, fully resident (a
// workload's own after tearDown).
func runDrills(g *havoqgt.Graph, shape graphShape, seed uint64) (metricSet, error) {
	m := metricSet{}
	for _, drill := range []func(metricSet) error{
		func(m metricSet) error { return drillSetUp(m, shape) },
		func(m metricSet) error { return drillEngine(m, g, seed) },
		func(m metricSet) error { return drillMailbox(m, shape) },
		func(m metricSet) error { return drillTermination(m, shape) },
		func(m metricSet) error { return drillTriangles(m, shape) },
		drillPageCache,
	} {
		if err := drill(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// drillSetUp times the stages of set-up apart, on chunks generated before
// the clock starts for the stage after.
func drillSetUp(m metricSet, shape graphShape) error {
	gen := generators.NewGraph500(shape.scale, graphSeed)
	chunks := make([][]graph.Edge, shape.ranks)
	start := time.Now()
	for i := range chunks {
		chunks[i] = gen.GenerateChunk(i, shape.ranks)
	}
	m["generators.edges_per_s"] = float64(gen.NumEdges()) / time.Since(start).Seconds()
	for i := range chunks {
		chunks[i] = graph.Undirect(chunks[i])
	}

	machine := rt.NewMachine(shape.ranks)
	parts := make([]*partition.Part, shape.ranks)
	errs := make([]error, shape.ranks)
	start = time.Now()
	machine.Run(func(r *rt.Rank) {
		parts[r.Rank()], errs[r.Rank()] = partition.BuildEdgeListSimple(r, chunks[r.Rank()], gen.NumVertices())
	})
	m["partition.build_s"] = time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("partition drill: %w", err)
		}
	}
	counts := make([]uint64, len(parts))
	for i, p := range parts {
		counts[i] = p.CSR.NumEdges()
	}
	m["partition.max_over_mean_edges"] = partition.Imbalance(counts)

	start = time.Now()
	machine.Run(func(r *rt.Rank) {
		core.BuildGhostTable(parts[r.Rank()], core.DefaultGhostsPerPartition)
	})
	m["core.ghost_build_s"] = time.Since(start).Seconds()
	return nil
}

// drillEngine times the facade's own set-up steps and two engine questions
// the ROADMAP leaves open: what a query that does no work costs, and what
// running eight heavy traversals at once costs against running them in turn.
func drillEngine(m metricSet, g *havoqgt.Graph, seed uint64) (err error) {
	// Serial side first, with no engine attached: the first eight sources of
	// the BFS list that reach the giant component.
	list, err := bfsList(seed, g)
	if err != nil {
		return fmt.Errorf("engine drill: %w", err)
	}
	var giants []havoqgt.Vertex
	var serial time.Duration
	seen := map[havoqgt.Vertex]bool{}
	for _, q := range list {
		if len(giants) == 8 {
			break
		}
		if seen[q.source] {
			continue
		}
		seen[q.source] = true
		start := time.Now()
		res, err := g.BFS(q.source)
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("engine drill: %w", err)
		}
		if res.Reached > g.NumVertices()/8 {
			giants = append(giants, q.source)
			serial += d
		}
	}
	if len(giants) == 0 {
		return fmt.Errorf("engine drill: no source of the list reaches the giant component")
	}

	start := time.Now()
	if err := g.SetMemoryBudget(oocMemory); err != nil {
		return fmt.Errorf("externalize drill: %w", err)
	}
	m["ooc.externalize_s"] = time.Since(start).Seconds()
	if err := g.ResetMemoryBudget(); err != nil {
		return fmt.Errorf("externalize drill: %w", err)
	}

	start = time.Now()
	eng, err := g.StartEngine(havoqgt.EngineOptions{MaxInFlight: len(giants)})
	if err != nil {
		return fmt.Errorf("engine drill: %w", err)
	}
	m["engine.start_s"] = time.Since(start).Seconds()
	defer func() {
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
	}()

	// A BFS from a vertex with no edge: admission, the Mux's detector, the
	// waves that find nothing to do, and the O(n) collect.
	isolated, err := (&sourceDrawer{g: g, seed: seed}).draw(noEdge)
	if err != nil {
		return fmt.Errorf("engine drill: %w", err)
	}
	trivial := make([]float64, 200)
	for i := range trivial {
		start := time.Now()
		q, err := eng.SubmitBFS(isolated)
		if err != nil {
			return fmt.Errorf("engine drill: %w", err)
		}
		if _, err := q.Wait(); err != nil {
			return fmt.Errorf("engine drill: %w", err)
		}
		trivial[i] = float64(time.Since(start)) / 1e3
	}
	m["engine.trivial_query_us"] = median(trivial)

	start = time.Now()
	handles := make([]*havoqgt.Query, len(giants))
	for i, src := range giants {
		if handles[i], err = eng.SubmitBFS(src); err != nil {
			return fmt.Errorf("engine drill: %w", err)
		}
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			return fmt.Errorf("engine drill: %w", err)
		}
	}
	m["engine.concurrent_over_serial_bfs"] = float64(time.Since(start)) / float64(serial)
	return nil
}

// drillMailbox routes 16-byte records to random destinations through
// Box.SendTagged / Poll / FlushAll until every one is delivered, and reports
// wall time per record machine-wide.
func drillMailbox(m metricSet, shape graphShape) error {
	const perRank = 100_000
	topo, err := mailbox.ByName(shape.topology, shape.ranks)
	if err != nil {
		return err
	}
	total := int64(perRank * shape.ranks)
	var delivered atomic.Int64
	machine := rt.NewMachine(shape.ranks)
	start := time.Now()
	machine.Run(func(r *rt.Rank) {
		box := mailbox.New(r, topo, nil)
		record := make([]byte, 16)
		state := uint64(r.Rank())
		sent := 0
		for delivered.Load() < total {
			for i := 0; i < 256 && sent < perRank; i++ {
				state = splitmix64(state)
				box.SendTagged(int(state%uint64(r.Size())), 1, record)
				sent++
			}
			got := len(box.Poll())
			if got > 0 {
				delivered.Add(int64(got))
			}
			if sent == perRank {
				box.FlushAll() // also ships what Poll re-routed through this rank
				if got == 0 {
					runtime.Gosched()
				}
			}
		}
	})
	m["mailbox.route_ns_per_record"] = float64(time.Since(start)) / float64(total)
	return nil
}

// drillTermination times quiescence detection on a machine where every rank
// is already idle: from the root's first Pump to detection.
func drillTermination(m metricSet, shape graphShape) error {
	const reps = 200
	times := make([]float64, 0, reps)
	rt.NewMachine(shape.ranks).Run(func(r *rt.Rank) {
		for i := 0; i < reps; i++ {
			r.Barrier() // nobody starts a detector while another rank still runs the last one
			det := termination.New(r)
			start := time.Now()
			for !det.Pump(true) {
				runtime.Gosched()
			}
			if r.Rank() == 0 {
				times = append(times, float64(time.Since(start))/1e3)
			}
		}
	})
	m["termination.wave_us"] = median(times)
	return nil
}

// drillTriangles runs the kernel the analytics workload leaves out, at a
// scale where it takes seconds and not minutes.
func drillTriangles(m metricSet, shape graphShape) error {
	shape.scale = min(shape.scale, 12)
	g, err := havoqgt.GenerateRMAT(shape.scale, graphSeed, shape.options())
	if err != nil {
		return fmt.Errorf("triangles drill: %w", err)
	}
	start := time.Now()
	if _, err := g.CountTriangles(); err != nil {
		return fmt.Errorf("triangles drill: %w", err)
	}
	m["algos.triangles.s12_ms"] = float64(time.Since(start)) / 1e6
	return nil
}

// drillPageCache times Cache.ReadAt over the simulated device of the ooc_bfs
// workload: a resident page, and a page whose load must evict another.
func drillPageCache(m metricSet) error {
	cfg := oocMemory
	const frames, pages = 64, 1024
	dev := pagecache.NewSimDevice(&pagecache.MemDevice{Data: make([]byte, pages*cfg.PageSize)}, cfg.DeviceLatency, cfg.DeviceQueueDepth)
	cache, err := pagecache.New(dev, cfg.PageSize, frames)
	if err != nil {
		return fmt.Errorf("pagecache drill: %w", err)
	}
	defer cache.Close()
	buf := make([]byte, 8)
	read := func(page int) error {
		_, err := cache.ReadAt(buf, int64(page*cfg.PageSize))
		return err
	}
	if err := read(0); err != nil {
		return fmt.Errorf("pagecache drill: %w", err)
	}
	const hits = 200_000
	start := time.Now()
	for i := 0; i < hits; i++ {
		if err := read(0); err != nil {
			return fmt.Errorf("pagecache drill: %w", err)
		}
	}
	m["pagecache.hit_ns"] = float64(time.Since(start)) / hits

	// A cyclic scan over 16× the frames misses every time; fill the frames
	// first so every timed miss also evicts.
	for p := 1; p <= frames; p++ {
		if err := read(p); err != nil {
			return fmt.Errorf("pagecache drill: %w", err)
		}
	}
	const misses = 1000
	start = time.Now()
	for i := 0; i < misses; i++ {
		if err := read((frames + 1 + i) % pages); err != nil {
			return fmt.Errorf("pagecache drill: %w", err)
		}
	}
	m["pagecache.miss_evict_ns"] = float64(time.Since(start)) / misses
	return nil
}
