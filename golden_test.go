package havoqgt

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/engine"
)

// k-core(64) at the benchmark's shape. Its first peel is a dense round:
// 2,095 of the 32,768 vertices have degree ≥ 64, and the other 30,673 die
// in round 0 without a visit. The cascade visits a vertex once, when it
// leaves — whatever the schedule, since no vertex that leaves is split here —
// so it executes exactly 2,095 − 1,941 (the 64-core) = 154 visits; seeding
// every vertex with a visitor executed 30,829. What it sends is exact, with
// a ghost table or without, since k-core reads none: round 0 is one record
// from every rank to every peer, p(p−1) = 56, and every cascade push not
// applied in place is one record — the 154 leavers' notices to survivors of
// round 0 mastered elsewhere, plus any forward down a replica chain — 6,653,
// for 6,709 in all (252,464 before the dense round; 4,340–4,418 over runs
// when notices for one remote vertex were merged at the sender).
const kcoreExecuted, kcoreRecords = 154, 6_709

// cc at the same shape. Min-label propagation over the whole graph executed
// 99,221 visits and sent 230,090 records. Marking the hub's component first
// leaves 8,605 components of 1–3 vertices to propagate over: 17–32 visits and
// 299–307 records over runs, 282 of them the marking's (338 when each
// marking re-sent the degree table).
const ccExecutedMax, ccRecordsMax = 1_000, 1_000

// cc's flood at the same shape (ccFlood) on the FIFO, over 31 runs: 79–135 K
// visits (median ≈ 104 K) and 146–337 K records. The budgets are about 1.4×
// the highest of each.
const ccFloodExecutedMax, ccFloodRecordsMax = 200_000, 470_000

// goldenHashes are FNV-1a hashes of every query type's deterministic output
// on GenerateRMAT(12, 42, {Ranks: 8, Topology: "2d", Simplify: true}),
// recorded through the facade at the commit before the classic executor was
// removed (PR 11, 9529f61). BFS/SSSP parents are excluded: BFS's depend on
// arrival order among equal-cost alternatives (cluster.HashResult excludes
// them for the same reason), and SSSP's did until its rounds took the
// smaller parent on equal distances.
var goldenHashes = map[string]uint64{
	"bfs":       0x16e372a9a7e3d76e,
	"bfs_do":    0x16e372a9a7e3d76e,
	"sssp":      0x51a91e68c93d821b,
	"cc":        0xcd5403dcb8fd82f3,
	"kcore":     0xbb1c2f5993bfca13,
	"pagerank":  0x1dfe6634fc2e8e58,
	"triangles": 0x16cd2e6b704c36d1,
	"estimate":  0x190822ae263481cb,
}

func hashU64s(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

func widen[T ~uint32 | ~uint64](in []T, extra ...uint64) []uint64 {
	out := make([]uint64, 0, len(in)+len(extra))
	for _, v := range in {
		out = append(out, uint64(v))
	}
	return append(out, extra...)
}

// goldenRun answers all seven query types plus EstimateTriangles through the
// facade and returns one hash per type.
func goldenRun(t *testing.T, g *Graph) map[string]uint64 {
	t.Helper()
	var src Vertex
	for v := Vertex(0); uint64(v) < g.NumVertices(); v++ {
		if d, _ := g.Degree(v); d > 0 {
			src = v
			break
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]uint64{}

	bfs, err := g.BFS(src)
	must(err)
	got["bfs"] = hashU64s(widen(bfs.Levels)...)
	do, err := g.BFSDirOpt(src)
	must(err)
	got["bfs_do"] = hashU64s(widen(do.Levels)...)
	sp, err := g.ShortestPaths(src, 7)
	must(err)
	got["sssp"] = hashU64s(sp.Distances...)
	cc, err := g.Components()
	must(err)
	got["cc"] = hashU64s(widen(cc.Labels, cc.Count)...)
	kc, err := g.KCore(4)
	must(err)
	in := make([]uint64, len(kc.InCore), len(kc.InCore)+1)
	for v, alive := range kc.InCore {
		if alive {
			in[v] = 1
		}
	}
	got["kcore"] = hashU64s(append(in, kc.CoreSize)...)
	pr, err := g.PageRank(5)
	must(err)
	got["pagerank"] = hashU64s(pr.Ranks...)
	tri, err := g.CountTriangles()
	must(err)
	got["triangles"] = hashU64s(tri)
	est, err := g.EstimateTriangles(0.25, 9)
	must(err)
	got["estimate"] = hashU64s(math.Float64bits(est))
	return got
}

func goldenGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateRMAT(12, 42, Options{Ranks: 8, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkGolden(t *testing.T, got map[string]uint64) {
	t.Helper()
	for name, want := range goldenHashes {
		if got[name] != want {
			t.Errorf("%s: hash %#x, golden %#x", name, got[name], want)
		}
	}
}

// TestGoldenHashes pins every query type's output across the executor
// change, in the three ways a facade call can run — on a transient engine,
// on an attached engine, and out of core at 1/8 resident adjacency — and on
// an attached engine whose every message takes a modeled 1 ms to arrive.
func TestGoldenHashes(t *testing.T) {
	t.Run("unattached", func(t *testing.T) {
		checkGolden(t, goldenRun(t, goldenGraph(t)))
	})
	attached := func(t *testing.T, latency time.Duration) {
		g := goldenGraph(t)
		g.SetSimLatency(latency)
		e, err := g.StartEngine(EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		checkGolden(t, goldenRun(t, g))
	}
	t.Run("attached", func(t *testing.T) { attached(t, 0) })
	t.Run("modeled-latency", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two seconds plain, half a minute under -race")
		}
		attached(t, time.Millisecond)
	})
	t.Run("out-of-core", func(t *testing.T) {
		if testing.Short() {
			t.Skip("a minute and a half under -race; check's differential sweep parks every algorithm there")
		}
		// 1/8 resident is four cache frames a rank at this scale, so the
		// triangle kernels fault tens of thousands of times; the simulated
		// device answers in 1µs instead of its default 25µs to keep the run
		// in seconds. Latency changes no code path, only the waiting.
		g := goldenGraph(t)
		if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 1.0 / 8, DeviceLatency: time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		defer g.ResetMemoryBudget()
		checkGolden(t, goldenRun(t, g))
	})
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

// TestOneShotAllocBudget pins what one-shot queries allocate at the
// benchmark's shape (scale 15, 8 ranks, 2d). Each is a transient engine that
// builds eight mailboxes and closes them. When every box grew its delivery
// arenas, Record batches and envelope free-list from empty, a BFS allocated
// 17-18 MB, about 12 MB of it that regrowth, and a KCore(64) 12 MB. Now a
// closed box hands its storage to the next one built: a BFS allocates
// 5.3-6.5 MB (budget 10). A KCore(64) allocated 4.8-4.9 MB with a seed
// visitor per vertex, 2.5 MB once its first peel was a dense round, and
// 0.9 MB since its notices are no longer merged at the sender, whose held
// visitor per ghost slot was the rest (budget 1.5). The effect does not
// exist at scale 12, so a smaller graph pins nothing.
func TestOneShotAllocBudget(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("scale-15 allocation budget: not under -short or -race")
	}
	g, err := GenerateRMAT(15, 42, Options{Ranks: 8, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	var sources []Vertex
	for v := Vertex(0); len(sources) < 8; v++ {
		if d, _ := g.Degree(v); d >= 8 {
			sources = append(sources, v)
		}
	}
	// perQuery runs query n times after one warm-up (lazy set-up is not the
	// query's) and returns the mean MB allocated per run.
	perQuery := func(n int, query func(i int) error) float64 {
		if err := query(0); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := query(i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1e6
	}
	for _, c := range []struct {
		name     string
		budgetMB float64
		mb       float64
	}{
		{"BFS", 10, perQuery(len(sources), func(i int) error { _, err := g.BFS(sources[i]); return err })},
		{"KCore(64)", 1.5, perQuery(4, func(int) error { _, err := g.KCore(64); return err })},
		{"PageRank(3)", 4, perQuery(4, func(int) error { _, err := g.PageRank(3); return err })},
	} {
		t.Logf("one-shot %s allocates %.1f MB per query", c.name, c.mb)
		if c.mb > c.budgetMB {
			t.Errorf("one-shot %s allocates %.1f MB per query, budget %g MB", c.name, c.mb, c.budgetMB)
		}
	}
}

// TestBFSRecordBudget pins what a one-shot BFS sends at the benchmark's
// shape (scale 15, 8 ranks, 2d), in counts, which the box's timing noise
// cannot move: with the sender deciding — ghost filtering over every
// repeated remote target, local targets applied in place — one traversal of
// the giant component routes about 105 K records (736 K when the ghost table
// stopped at 256 entries and local targets went through the mailbox), filters
// three pushes in four, and executes what it always did: 1.15–1.3 visits per
// reached vertex (an asynchronous traversal re-visits a vertex whose better
// level arrives late, and a split row is visited on every rank holding a
// piece), so sending less has not meant visiting more.
//
// A direction-optimizing BFS from an isolated vertex scans level 0, sends its
// empty contribution to each peer and ends: exactly p(p−1) records, 56 on 8
// ranks, and a few KB on the transport. When each query replicated the
// degree table itself, the same query sent 112 records and 1.32 MB.
func TestBFSRecordBudget(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("scale-15 record budget: not under -short or -race")
	}
	g, err := GenerateRMAT(15, 42, Options{Ranks: 8, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	var source Vertex
	for d, _ := g.Degree(source); d < 8; d, _ = g.Degree(source) {
		source++
	}
	res, stats, err := engine.RunOnce(g.engineConfig(), engine.Options{}, engine.Spec{Algo: engine.AlgoBFS, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	reached, _ := bfs.Summary(res.Levels)
	if reached < g.NumVertices()/4 {
		t.Fatalf("source %d reaches %d vertices: not in the giant component", source, reached)
	}
	var pushed, filtered, local, forwarded, executed, records uint64
	slots := make([]int, len(g.parts))
	for rank, s := range stats {
		pushed += s.Pushed
		filtered += s.GhostFiltered
		local += s.Local
		forwarded += s.Forwarded
		executed += s.Executed
		records += s.Mailbox.RecordsSent
		slots[rank] = len(g.parts[rank].SlotVertex)
	}
	t.Logf("reached %d: pushed %d, applied in place %d, ghost-filtered %d (%.3f), records sent %d, executed %d (%.3f per reached vertex); remote slots per rank %v",
		reached, pushed, local, filtered, float64(filtered)/float64(pushed), records, executed, float64(executed)/float64(reached), slots)
	if local+filtered+records-forwarded != pushed {
		t.Errorf("applied in place %d + ghost-filtered %d + records sent %d − replica-forwarded %d != pushed %d: a push took no outcome, or two",
			local, filtered, records, forwarded, pushed)
	}
	if records > 300_000 {
		t.Errorf("one BFS sent %d records, budget 300000", records)
	}
	if float64(filtered) < 0.70*float64(pushed) {
		t.Errorf("ghost filter dropped %d of %d pushes, want at least 0.70", filtered, pushed)
	}
	if executed < reached || float64(executed) > 1.5*float64(reached) {
		t.Errorf("executed %d visits to reach %d vertices, want between 1 and 1.5 per vertex", executed, reached)
	}

	var isolated Vertex
	for d, _ := g.Degree(isolated); d > 0; d, _ = g.Degree(isolated) {
		isolated++
	}
	g.machine.ResetStats()
	if _, stats, err = engine.RunOnce(g.engineConfig(), engine.Options{}, engine.Spec{Algo: engine.AlgoBFSDO, Source: isolated}); err != nil {
		t.Fatal(err)
	}
	var protocol uint64
	records = 0
	for _, s := range stats {
		protocol += s.ProtocolSent
		records += s.Mailbox.RecordsSent
	}
	p := uint64(len(g.parts))
	t.Logf("bfs_do from isolated vertex %d: %d protocol records, %d records sent, %d transport bytes",
		isolated, protocol, records, g.machine.Stats().BytesSent)
	if protocol != p*(p-1) || records != p*(p-1) {
		t.Errorf("bfs_do from an isolated vertex sent %d protocol records (%d records), want exactly p(p-1) = %d",
			protocol, records, p*(p-1))
	}
}

// TestAnalyticsExecutedBudget pins what the analytics kernels execute and
// send at the benchmark's shape (scale 15, 8 ranks, 2d; k-core 64, three
// PageRank iterations and cc, as bench/'s analytics round runs them).
// k-core: what it executes and what it sends are exact, with the default
// ghost table and with none — it sends its round-0 records and one record per
// cascade push not applied in place, whatever the table. cc must leave
// label propagation only what its marking did not reach, and its whole-graph
// flood (a resume that labelled nothing) must stay within its own budget.
//
// PageRank executes no visitor and its counts are exact, with or without a
// ghost table. Each of its iters rounds is one record from every rank to
// every peer: p(p−1)·iters. A split row's contribution goes down its replica
// chain once per iteration after the first, one record to each rank holding
// a non-master fragment, and a rank holds at most one, its first row: with f
// such ranks, (iters−1)·f more. Every record is a protocol record.
func TestAnalyticsExecutedBudget(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("scale-15 visit budget: not under -short or -race")
	}
	g, err := GenerateRMAT(15, 42, Options{Ranks: 8, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	noGhosts := g.engineConfig()
	noGhosts.Ghosts = core.BuildGhostTables(g.parts, -1)
	for _, cfg := range []engine.Config{g.engineConfig(), noGhosts} {
		_, stats, err := engine.RunOnce(cfg, engine.Options{}, engine.Spec{Algo: engine.AlgoKCore, K: 64})
		if err != nil {
			t.Fatal(err)
		}
		var executed, queued, records uint64
		for _, s := range stats {
			executed += s.Executed
			queued += s.Queued
			records += s.Mailbox.RecordsSent
		}
		t.Logf("kcore (ghost table %v): executed %d, queued %d, records sent %d",
			cfg.Ghosts != nil, executed, queued, records)
		if executed != kcoreExecuted || records != kcoreRecords {
			t.Errorf("kcore (ghost table %v) executed %d visits and sent %d records, want exactly %d and %d",
				cfg.Ghosts != nil, executed, records, kcoreExecuted, kcoreRecords)
		}
	}

	const iters = 3
	p := uint64(len(g.parts))
	var fragments uint64
	for _, part := range g.parts {
		if part.StateLen > 0 && !part.IsMaster(part.StateStart) {
			fragments++
		}
	}
	want := p*(p-1)*iters + (iters-1)*fragments
	for _, cfg := range []engine.Config{g.engineConfig(), noGhosts} {
		_, stats, err := engine.RunOnce(cfg, engine.Options{}, engine.Spec{Algo: engine.AlgoPageRank, Iters: iters})
		if err != nil {
			t.Fatal(err)
		}
		var executed, protocol, records uint64
		for _, s := range stats {
			executed += s.Executed
			protocol += s.ProtocolSent
			records += s.Mailbox.RecordsSent
		}
		t.Logf("pagerank (ghost table %v): executed %d, protocol records %d, records sent %d (%d split-row fragments)",
			cfg.Ghosts != nil, executed, protocol, records, fragments)
		if executed != 0 || protocol != want || records != want {
			t.Errorf("pagerank executed %d visits and sent %d records (%d protocol), want 0 and exactly %d",
				executed, records, protocol, want)
		}
	}

	for _, c := range []struct {
		name              string
		spec              engine.Spec
		executed, records uint64
	}{
		{"cc", engine.Spec{Algo: engine.AlgoCC}, ccExecutedMax, ccRecordsMax},
		{"cc flood", ccFlood(g.NumVertices()), ccFloodExecutedMax, ccFloodRecordsMax},
	} {
		_, stats, err := engine.RunOnce(g.engineConfig(), engine.Options{}, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var executed, records, marking uint64
		for _, s := range stats {
			executed += s.Executed
			records += s.Mailbox.RecordsSent
			marking += s.ProtocolSent
		}
		t.Logf("%s: executed %d, records sent %d (marking %d, label propagation %d)", c.name, executed, records, marking, records-marking)
		if executed > c.executed || records > c.records {
			t.Errorf("%s executed %d visits and sent %d records, budget %d and %d", c.name, executed, records, c.executed, c.records)
		}
	}
}

// ccFlood is cc resumed from a checkpoint that labelled nothing on a graph of
// n vertices: min-label propagation over the whole graph, with no marking.
func ccFlood(n uint64) engine.Spec {
	own := make([]Vertex, n)
	for v := range own {
		own[v] = Vertex(v)
	}
	cp := &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoCC}, Res: &engine.Result{Labels: own, Cancelled: true}}
	return cp.ResumeSpec(0)
}

// TestUntaggedTargetsTraverseIdentically: the tags in the stored target words
// are an accelerator, not data. With every tag stripped from a built graph —
// what an old target file or a hand-built matrix looks like — each push takes
// the general path (range compare, owner table), nothing is ghost-filtered,
// and all seven query types return the golden answers. cc's marking leaves
// its label propagation only isolated vertices on this graph, so cc pushes
// here as a resume from a checkpoint that labelled nothing, which propagates
// over the whole graph.
func TestUntaggedTargetsTraverseIdentically(t *testing.T) {
	g := goldenGraph(t)
	for _, part := range g.parts {
		mem := part.CSR.Targets().(csr.MemTargets)
		for i, w := range mem {
			mem[i] = csr.Target(w.Vertex())
		}
	}
	checkGolden(t, goldenRun(t, g))
	for _, spec := range []engine.Spec{
		{Algo: engine.AlgoBFS, Source: 1}, {Algo: engine.AlgoSSSP, Source: 1, WeightSeed: 7},
		{Algo: engine.AlgoCC}, ccFlood(g.NumVertices()),
	} {
		_, stats, err := engine.RunOnce(g.engineConfig(), engine.Options{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		var pushed, local uint64
		for rank, s := range stats {
			pushed += s.Pushed
			local += s.Local
			if s.GhostFiltered != 0 {
				t.Errorf("%s rank %d: %d pushes ghost-filtered through untagged words", spec.Algo, rank, s.GhostFiltered)
			}
			if want := s.Pushed - s.Local + s.Forwarded + s.ProtocolSent; want != s.Mailbox.RecordsSent {
				t.Errorf("%s rank %d: pushed %d − applied in place %d + forwarded %d + protocol %d != %d records sent",
					spec.Algo, rank, s.Pushed, s.Local, s.Forwarded, s.ProtocolSent, s.Mailbox.RecordsSent)
			}
		}
		if spec.Resume != nil && (pushed == 0 || local == 0) {
			t.Errorf("cc pushed %d, %d in place: untagged local targets must still be applied in place", pushed, local)
		}
	}
}

// One-shot SSSP at the benchmark's shape, from the first vertex of degree at
// least 8 with weight seed 7: bulk-synchronous Δ-stepping at Δ = 16 runs
// exactly 46 rounds, each one record from every rank to every peer, and
// relaxes exactly 1,507,748 stored edges (1.7 per edge of the 882,584 it can
// reach) to settle 24,155 vertices. The split rows' distances ride the
// masters' round records, so nothing else is sent, and it executes no
// visitor. The asynchronous visitor SSSP it replaced pushed 2.81–3.00 M
// times, ran 135–142 K visits and sent 402–430 K records for the same query
// over three runs, varying with the schedule. At Δ = 8 the same query runs
// 73 rounds and 974,887 relaxations; Δ = 16 relaxes more but waits on fewer
// rounds, which is what costs under concurrent queries (sssp.Delta).
const ssspRounds, ssspRelaxed = 46, 1_507_748

// TestSSSPRoundBudget pins what a one-shot SSSP runs and sends at the
// benchmark's shape (scale 15, 8 ranks, 2d), in counts: rounds, records and
// relaxations are functions of the graph and the source alone, so they are
// exact, with the default ghost table and with none (SSSP reads none).
func TestSSSPRoundBudget(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("scale-15 round budget: not under -short or -race")
	}
	g, err := GenerateRMAT(15, 42, Options{Ranks: 8, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	var source Vertex
	for d, _ := g.Degree(source); d < 8; d, _ = g.Degree(source) {
		source++
	}
	p := uint64(len(g.parts))
	noGhosts := g.engineConfig()
	noGhosts.Ghosts = core.BuildGhostTables(g.parts, -1)
	for _, cfg := range []engine.Config{g.engineConfig(), noGhosts} {
		res, stats, err := engine.RunOnce(cfg, engine.Options{}, engine.Spec{Algo: engine.AlgoSSSP, Source: source, WeightSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var executed, protocol, records, relaxed uint64
		for _, s := range stats {
			executed += s.Executed
			protocol += s.ProtocolSent
			records += s.Mailbox.RecordsSent
			relaxed += s.Relaxed
		}
		reached, _ := sssp.Summary(res.Dist)
		t.Logf("sssp from %d (ghost table %v): reached %d, executed %d, protocol records %d, records sent %d, relaxed %d",
			source, cfg.Ghosts != nil, reached, executed, protocol, records, relaxed)
		if want := ssspRounds * p * (p - 1); executed != 0 || protocol != want || records != want {
			t.Errorf("sssp executed %d visits and sent %d records (%d protocol), want 0 and exactly %d rounds·p(p−1) = %d",
				executed, records, protocol, ssspRounds, want)
		}
		if relaxed != ssspRelaxed {
			t.Errorf("sssp relaxed %d edges, want exactly %d", relaxed, ssspRelaxed)
		}
	}
}
