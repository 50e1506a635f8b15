package engine

// Tests that drive caller-built visitor algorithms — toy visitors probing
// the core.Queue scheduler, and algorithm variants no Spec reaches — through
// the one rank loop. The seam is the query-type table: a test registers its
// toy as an entry (register, algos_test.go) and submits it, so these run on
// exactly the loop, mailbox, detector and retire path every real query runs
// on.

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// testGraph is a partitioned edge list on its own machine.
type testGraph struct {
	m      *rt.Machine
	parts  []*partition.Part
	ghosts []*core.GhostTable // nil: no ghost filtering
	topo   string             // mailbox routing; "" is the engine's default, 1d
}

func buildTestGraph(t testing.TB, edges []graph.Edge, n uint64, p int) *testGraph {
	t.Helper()
	g := &testGraph{m: rt.NewMachine(p), parts: make([]*partition.Part, p)}
	g.m.Run(func(r *rt.Rank) {
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
		g.parts[r.Rank()] = part
	})
	return g
}

// runVisitors runs one toy query to quiescence on a transient engine:
// start builds each rank's algorithm and pushes its initial visitors (it
// runs on the rank's own goroutine, concurrently with the other ranks').
func runVisitors[V core.Visitor](t testing.TB, g *testGraph,
	start func(part *partition.Part, newQueue func(core.Algorithm[V]) *core.Queue[V])) []core.Stats {
	t.Helper()
	return runCustom(t, g, func(env *runEnv) runner {
		var qu *core.Queue[V]
		start(env.part, func(algo core.Algorithm[V]) *core.Queue[V] {
			qu = newQueue[V](env, algo)
			return qu
		})
		return &run{queue: qu, finish: func() {}}
	})
}

// runCustom runs one query whose runner the caller builds, per rank, to
// quiescence on a transient engine: a toy entry registered for the call.
func runCustom(t testing.TB, g *testGraph, run func(*runEnv) runner) []core.Stats {
	t.Helper()
	defer register(&algo{name: "custom", run: run})()
	_, stats, err := RunOnce(Config{Machine: g.m, Parts: g.parts, Ghosts: g.ghosts, Topology: g.topo}, Options{},
		Spec{Algo: "custom"})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// rmatTestGraph is buildTestGraph over a Graph500 RMAT edge list, with the
// default ghost tables.
func rmatTestGraph(t testing.TB, scale uint, p int) *testGraph {
	t.Helper()
	gen := generators.NewGraph500(scale, 42)
	g := buildTestGraph(t, graph.Undirect(gen.Generate()), gen.NumVertices(), p)
	g.ghosts = core.BuildGhostTables(g.parts, 0)
	return g
}

func ring(n uint64, strides ...uint64) []graph.Edge {
	var edges []graph.Edge
	for v := uint64(0); v < n; v++ {
		for _, s := range strides {
			edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + s) % n)})
		}
	}
	return edges
}

// orderVisitor/orderAlgo record the order the local scheduler executes in;
// orderAlgo declares one bucket per prio.
type orderVisitor struct {
	v    graph.Vertex
	prio uint32
}

func (o orderVisitor) Vertex() graph.Vertex { return o.v }

type orderAlgo struct{ executed []orderVisitor }

func (a *orderAlgo) PreVisit(v orderVisitor) bool { return true }
func (a *orderAlgo) Visit(v orderVisitor, q *core.Queue[orderVisitor]) {
	a.executed = append(a.executed, v)
}
func (a *orderAlgo) Bucket(v orderVisitor) uint64 { return uint64(v.prio) }
func (a *orderAlgo) Encode(v orderVisitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.v))
	return binary.LittleEndian.AppendUint32(buf, v.prio)
}
func (a *orderAlgo) Decode(buf []byte) orderVisitor {
	return orderVisitor{
		v:    graph.Vertex(binary.LittleEndian.Uint64(buf)),
		prio: binary.LittleEndian.Uint32(buf[8:]),
	}
}

// runOrder pushes the visitors on a single rank and returns the algorithm
// (with its execution log) and the rank's stats.
func runOrder(t *testing.T, push []orderVisitor) (*orderAlgo, core.Stats) {
	t.Helper()
	algo := &orderAlgo{}
	stats := runVisitors(t, buildTestGraph(t, ring(16, 1), 16, 1),
		func(part *partition.Part, newQueue func(core.Algorithm[orderVisitor]) *core.Queue[orderVisitor]) {
			q := newQueue(algo)
			for _, v := range push {
				q.Push(v)
			}
		})
	return algo, stats[0]
}

func TestLocalQueueOrdering(t *testing.T) {
	// The lowest bucket drains first, and each bucket in arrival order.
	algo, _ := runOrder(t, []orderVisitor{
		{v: 9, prio: 1}, {v: 3, prio: 0}, {v: 7, prio: 0},
		{v: 1, prio: 1}, {v: 5, prio: 0},
	})
	want := []orderVisitor{
		{v: 3, prio: 0}, {v: 7, prio: 0}, {v: 5, prio: 0},
		{v: 9, prio: 1}, {v: 1, prio: 1},
	}
	if !slices.Equal(algo.executed, want) {
		t.Fatalf("execution order %v, want %v", algo.executed, want)
	}
}

func TestQueueStatsConsistency(t *testing.T) {
	var push []orderVisitor
	for i := uint32(0); i < 10; i++ {
		push = append(push, orderVisitor{v: graph.Vertex(i), prio: i})
	}
	// One rank masters every vertex, so every push is applied in place and
	// the mailbox carries nothing.
	_, stats := runOrder(t, push)
	if stats.Pushed != 10 || stats.Local != 10 || stats.Received != 0 || stats.Queued != 10 || stats.Executed != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Mailbox.RecordsSent != 0 || stats.Mailbox.RecordsDelivered != 0 {
		t.Fatalf("mailbox stats = %+v", stats.Mailbox)
	}
}

// floodAlgo floods a few hops from every vertex; a visitor stamped with
// another round reaching it means two traversals' records mixed.
type floodAlgo struct {
	part  *partition.Part
	seen  []bool
	round uint32
}

type floodVisitor struct {
	v     graph.Vertex
	round uint32
	hops  uint32
}

func (f floodVisitor) Vertex() graph.Vertex { return f.v }

func (a *floodAlgo) PreVisit(v floodVisitor) bool {
	if v.round != a.round {
		panic("cross-traversal visitor contamination")
	}
	i, ok := a.part.LocalIndex(v.v)
	if !ok || a.seen[i] {
		return false
	}
	a.seen[i] = true
	return true
}

func (a *floodAlgo) Visit(v floodVisitor, q *core.Queue[floodVisitor]) {
	if v.hops == 0 {
		return
	}
	for _, t := range q.OutEdges(v.v) {
		q.PushEdge(t, floodVisitor{v: t.Vertex(), round: v.round, hops: v.hops - 1})
	}
}

func (a *floodAlgo) Encode(v floodVisitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.v))
	buf = binary.LittleEndian.AppendUint32(buf, v.round)
	return binary.LittleEndian.AppendUint32(buf, v.hops)
}

func (a *floodAlgo) Decode(buf []byte) floodVisitor {
	return floodVisitor{
		v:     graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		round: binary.LittleEndian.Uint32(buf[8:]),
		hops:  binary.LittleEndian.Uint32(buf[12:]),
	}
}

func TestConsecutiveTraversalsDoNotContaminate(t *testing.T) {
	// Many back-to-back one-shot traversals on one machine: every transient
	// engine reuses query id 1, so nothing of a finished traversal — record,
	// termination wave — may survive into the next one's plane.
	g := buildTestGraph(t, ring(64, 1, 7), 64, 4)
	for round := uint32(0); round < 20; round++ {
		runVisitors(t, g,
			func(part *partition.Part, newQueue func(core.Algorithm[floodVisitor]) *core.Queue[floodVisitor]) {
				q := newQueue(&floodAlgo{part: part, seen: make([]bool, part.StateLen), round: round})
				forMasters(part, func(v graph.Vertex) {
					q.Push(floodVisitor{v: v, round: round, hops: 3})
				})
			})
	}
}

// TestKCoreCountersNeverWrap: a master's counter starts at its degree, round
// 0 subtracts a count per peer at once, and every cascade notice one more. A
// live vertex hears at most one notice per edge, so after any k-core run on
// the real runner no master's counter may read above its degree, which is
// what a wrapped uint32 would. (The cascade at k = 4 is two visits; at 16 it
// has more.) At the largest k every vertex dies in round 0: nothing is
// visited, and the round's one record from every rank to every peer is all
// that is sent.
func TestKCoreCountersNeverWrap(t *testing.T) {
	const p = 4
	gen := generators.NewGraph500(10, 42)
	g := buildTestGraph(t, graph.Simplify(graph.Undirect(gen.Generate())), gen.NumVertices(), p)
	g.ghosts = core.BuildGhostTables(g.parts, 0)
	g.topo = "2d"
	states := make([]*kcore.KCore, p)
	probe := *lookup(AlgoKCore)
	probe.name, probe.run = "kcore_probe", func(env *runEnv) runner {
		rn, st := kcoreRunner(env)
		states[env.part.Rank] = st
		return rn
	}
	defer register(&probe)()
	for _, k := range []uint32{4, 16, 1 << 20} {
		_, stats, err := RunOnce(Config{Machine: g.m, Parts: g.parts, Ghosts: g.ghosts, Topology: g.topo}, Options{},
			Spec{Algo: probe.name, K: k})
		if err != nil {
			t.Fatal(err)
		}
		var executed, protocol, records uint64
		for _, s := range stats {
			executed += s.Executed
			protocol += s.ProtocolSent
			records += s.Mailbox.RecordsSent
		}
		if k == 1<<20 && (executed != 0 || protocol != p*(p-1) || records != p*(p-1)) {
			t.Errorf("k=%d: executed %d visits and sent %d records (%d protocol), want 0 and exactly %d",
				k, executed, records, protocol, p*(p-1))
		}
		for rank, st := range states {
			part := g.parts[rank]
			forMasters(part, func(v graph.Vertex) {
				i, _ := part.LocalIndex(v)
				if deg := part.GlobalDegree(v); uint64(st.Core[i]) > deg {
					t.Errorf("k=%d: vertex %d's counter reads %d, degree %d", k, v, st.Core[i], deg)
				}
			})
		}
	}
}

// countTriangles runs the triangle counter with options no Spec carries and
// returns every rank's algorithm state.
func countTriangles(t *testing.T, pairs []graph.Edge, n uint64, p int, opts triangle.Options) []*triangle.Triangle {
	t.Helper()
	states := make([]*triangle.Triangle, p)
	runVisitors(t, buildTestGraph(t, graph.Simplify(graph.Undirect(pairs)), n, p),
		func(part *partition.Part, newQueue func(core.Algorithm[triangle.Visitor]) *core.Queue[triangle.Visitor]) {
			st := triangle.New(part, opts)
			states[part.Rank] = st
			st.Seed(newQueue(st))
		})
	return states
}

func sumCounts(states []*triangle.Triangle) uint64 {
	var total uint64
	for _, st := range states {
		total += st.LocalCount()
	}
	return total
}

func TestTriangleSubsetCounting(t *testing.T) {
	// K5 on vertices 0..4 plus a triangle on 5,6,7. Restricting to 0..4
	// counts only K5's C(5,3)=10 triangles.
	var pairs []graph.Edge
	for a := uint64(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			pairs = append(pairs, graph.Edge{Src: graph.Vertex(a), Dst: graph.Vertex(b)})
		}
	}
	pairs = append(pairs, graph.Edge{Src: 5, Dst: 6}, graph.Edge{Src: 6, Dst: 7}, graph.Edge{Src: 5, Dst: 7})
	subset := triangle.Options{Subset: func(v graph.Vertex) bool { return v < 5 }}
	if got := sumCounts(countTriangles(t, pairs, 8, 3, subset)); got != 10 {
		t.Fatalf("subset counted %d, want 10", got)
	}
	if got := sumCounts(countTriangles(t, pairs, 8, 3, triangle.Options{})); got != 11 {
		t.Fatalf("full count %d, want 11", got)
	}
}

func TestTriangleSubsetCrossTrianglesExcluded(t *testing.T) {
	// Triangle 0-1-2 where vertex 2 is outside the subset: not counted.
	pairs := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}
	subset := triangle.Options{Subset: func(v graph.Vertex) bool { return v < 2 }}
	if got := sumCounts(countTriangles(t, pairs, 3, 2, subset)); got != 0 {
		t.Fatalf("cross triangle counted: %d", got)
	}
}

func TestTrianglePerVertexCounts(t *testing.T) {
	// Two triangles sharing vertex 3, {1,2,3} and {0,1,3}: both are
	// attributed to their largest member, vertex 3. Per-vertex counts live on
	// disjoint rows except for split replicas, which hold disjoint
	// increments, so the exact total is the sum over ranks.
	pairs := []graph.Edge{
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 1, Dst: 3},
		{Src: 0, Dst: 1}, {Src: 0, Dst: 3},
	}
	states := countTriangles(t, pairs, 4, 3, triangle.Options{})
	want := []uint64{0, 0, 0, 2}
	for v := range want {
		var total uint64
		for _, st := range states {
			total += st.PerVertexCount(graph.Vertex(v))
		}
		if total != want[v] {
			t.Fatalf("per-vertex count(%d) = %d, want %d", v, total, want[v])
		}
	}
}

// levelWatch is a BFS runner that remembers the level of the rank's last
// visit since its last delivery; watchedBFS is the BFS that reports to it.
type levelWatch struct {
	*run
	floor          uint32
	visits, behind int
}

func (w *levelWatch) Deliver(rec mailbox.Record) {
	w.floor = 0
	w.run.Deliver(rec)
}

type watchedBFS struct {
	*bfs.BFS
	w *levelWatch
}

func (a watchedBFS) Visit(v bfs.Visitor, q *core.Queue[bfs.Visitor]) {
	a.w.visits++
	if v.Length < a.w.floor {
		a.w.behind++
	}
	a.w.floor = v.Length
	a.BFS.Visit(v, q)
}

// TestBFSVisitsLevelsInOrderBetweenDeliveries: BFS runs on level buckets, so
// between two deliveries — the only events that can hand a rank a level lower
// than the one it is draining — a rank's visits never step back a level, through
// the calendar's cached buckets too.
func TestBFSVisitsLevelsInOrderBetweenDeliveries(t *testing.T) {
	const p = 4
	g := rmatTestGraph(t, 10, p)
	g.topo = "2d"
	var source graph.Vertex
	for g.parts[0].GlobalDegree(source) < 8 {
		source++
	}
	watches := make([]*levelWatch, p)
	runCustom(t, g, func(env *runEnv) runner {
		w := &levelWatch{}
		watches[env.part.Rank] = w
		qu := newQueue[bfs.Visitor](env, watchedBFS{bfs.New(env.part), w})
		w.run = &run{queue: qu, finish: func() {}}
		if env.part.IsMaster(source) {
			qu.Push(bfs.Visitor{V: source, Parent: source})
		}
		return w
	})
	visits := 0
	for rank, w := range watches {
		visits += w.visits
		if w.behind > 0 {
			t.Errorf("rank %d: %d of %d visits ran a level below the one before, with no delivery between", rank, w.behind, w.visits)
		}
	}
	if visits < 256 {
		t.Fatalf("%d visits: the source reaches too little to test anything", visits)
	}
}

// burstAlgo is the toy behind BenchmarkVisitorPushRoute/random. A visitor with
// bursts left is a generator: executing it pushes burstSize leaves at
// pseudo-random vertices and then itself, one burst poorer. A leaf is
// delivered and dropped by PreVisit, so it takes the whole per-record path
// once and costs the scheduler nothing (the one leaf in p whose vertex the
// pushing rank masters is applied in place and takes none of it).
type burstAlgo struct{ n uint64 }

type burstVisitor struct {
	v    graph.Vertex
	left uint32 // bursts this generator still owes; 0 marks a leaf
}

const burstSize = 512

func (b burstVisitor) Vertex() graph.Vertex { return b.v }

func (a *burstAlgo) PreVisit(v burstVisitor) bool { return v.left > 0 }
func (a *burstAlgo) Visit(v burstVisitor, q *core.Queue[burstVisitor]) {
	x := uint64(v.v)<<32 | uint64(v.left)
	for i := 0; i < burstSize; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		q.Push(burstVisitor{v: graph.Vertex(x >> 33 % a.n)})
	}
	if v.left > 1 {
		q.Push(burstVisitor{v: v.v, left: v.left - 1})
	}
}
func (a *burstAlgo) Encode(v burstVisitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.v))
	return binary.LittleEndian.AppendUint32(buf, v.left)
}
func (a *burstAlgo) Decode(buf []byte) burstVisitor {
	return burstVisitor{
		v:    graph.Vertex(binary.LittleEndian.Uint64(buf)),
		left: binary.LittleEndian.Uint32(buf[8:]),
	}
}

// BenchmarkVisitorPushRoute holds the numbers below the 24-second benchmark
// for a change to the push path or the message plane: what a routed record
// costs end to end (random) and what a push costs by outcome (edges).
func BenchmarkVisitorPushRoute(b *testing.B) {
	b.Run("random", benchPushRandom)
	b.Run("edges", benchPushEdges)
}

// benchPushRandom is what one visitor record costs from Queue.Push through
// SendTagged, stage, the 2d route's forward hop, Poll and Deliver to its
// PreVisit, on 8 ranks, with nothing of a real algorithm around it. One
// generator per rank emits a burst per rank-loop iteration, so Step and Poll
// alternate as they do under a real traversal. ns/record is wall time over
// records the mailbox delivered machine-wide: on fewer cores than ranks, CPU
// per record divided by the cores.
func benchPushRandom(b *testing.B) {
	const p, n = 8, 1 << 12
	g := buildTestGraph(b, ring(n, 1), n, p)
	g.topo = "2d"
	bursts := uint32(b.N/(p*burstSize)) + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	stats := runVisitors(b, g,
		func(part *partition.Part, newQueue func(core.Algorithm[burstVisitor]) *core.Queue[burstVisitor]) {
			lo, _ := part.Owners.MasterRange(part.Rank)
			newQueue(&burstAlgo{n: n}).Push(burstVisitor{v: graph.Vertex(lo), left: bursts})
		})
	b.StopTimer()
	runtime.ReadMemStats(&after)
	var records, local uint64
	for _, s := range stats {
		records += s.Received
		local += s.Local
	}
	if want := uint64(p) * uint64(bursts) * (burstSize + 1); records+local != want {
		b.Fatalf("delivered %d records and applied %d pushes in place, want %d in all", records, local, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(records), "allocs/record")
}

// edgeAlgo is the toy behind BenchmarkVisitorPushRoute/edges. Its generator
// visitor pushes one visitor along every edge its rank stores — once per
// outcome the edge can have — and then itself, one pass poorer. The pushed
// visitors are dropped on arrival. The slotted class asks the ghost filter
// with the worst key, which it always drops; the remote class does not ask.
// ns is the rank's time inside each outcome's loop.
type edgeAlgo struct {
	local, slotted, remote []csr.Target
	ns                     [3]time.Duration // by outcome: local, ghost-filtered, sent
}

type edgeVisitor struct {
	v    graph.Vertex
	left uint32 // passes this generator still owes; 0 marks a pushed visitor
}

func (e edgeVisitor) Vertex() graph.Vertex { return e.v }

func newEdgeAlgo(part *partition.Part) *edgeAlgo {
	a := &edgeAlgo{}
	for row := 0; row < part.CSR.NumRows(); row++ {
		for _, t := range part.CSR.Row(row) {
			switch {
			case t.Local():
				a.local = append(a.local, t)
			case t.Slot() >= 0:
				a.slotted = append(a.slotted, t)
				fallthrough
			default:
				a.remote = append(a.remote, t)
			}
		}
	}
	return a
}

func (a *edgeAlgo) PreVisit(v edgeVisitor) bool { return v.left > 0 }
func (a *edgeAlgo) Visit(v edgeVisitor, q *core.Queue[edgeVisitor]) {
	ghosts, start := q.Ghosts(), time.Now()
	lap := func(outcome int) {
		now := time.Now()
		a.ns[outcome] += now.Sub(start)
		start = now
	}
	for _, t := range a.local {
		q.PushEdge(t, edgeVisitor{v: t.Vertex()})
	}
	lap(0)
	for _, t := range a.slotted {
		if !ghosts.Drop(t, ^uint64(0)) {
			q.PushEdge(t, edgeVisitor{v: t.Vertex()})
		}
	}
	lap(1)
	for _, t := range a.remote {
		q.PushEdge(t, edgeVisitor{v: t.Vertex()})
	}
	lap(2)
	if v.left > 1 {
		q.Push(edgeVisitor{v: v.v, left: v.left - 1})
	}
}
func (a *edgeAlgo) Encode(v edgeVisitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.v))
	return binary.LittleEndian.AppendUint32(buf, v.left)
}
func (a *edgeAlgo) Decode(buf []byte) edgeVisitor {
	return edgeVisitor{
		v:    graph.Vertex(binary.LittleEndian.Uint64(buf)),
		left: binary.LittleEndian.Uint32(buf[8:]),
	}
}

// benchPushEdges is what Queue.PushEdge costs by outcome, over the edges of a
// real partition (scale-12 RMAT, 8 ranks, 2d, default ghost tables), where the
// target words carry what a BFS push reads: ns per push applied in place (to
// a PreVisit that drops it), per push the ghost filter drops, and per push
// sent — encode and SendTagged included, delivery not. Each is the ranks'
// time inside that outcome's loop over the pushes that took it, so on fewer
// cores than ranks it includes the time a rank spent descheduled there.
func benchPushEdges(b *testing.B) {
	const p = 8
	g := rmatTestGraph(b, 12, p)
	g.topo = "2d"
	var edges uint64
	for _, part := range g.parts {
		edges += part.LocalEdges()
	}
	passes := uint32(uint64(b.N)/edges) + 1
	algos := make([]*edgeAlgo, p)
	b.ResetTimer()
	stats := runVisitors(b, g,
		func(part *partition.Part, newQueue func(core.Algorithm[edgeVisitor]) *core.Queue[edgeVisitor]) {
			algos[part.Rank] = newEdgeAlgo(part)
			lo, _ := part.Owners.MasterRange(part.Rank)
			newQueue(algos[part.Rank]).Push(edgeVisitor{v: graph.Vertex(lo), left: passes})
		})
	b.StopTimer()
	var ns [3]time.Duration
	var want, got [3]uint64 // by outcome, as in edgeAlgo.ns
	for rank, s := range stats {
		a := algos[rank]
		for i := range ns {
			ns[i] += a.ns[i]
		}
		want[0] += uint64(passes) * uint64(len(a.local))
		want[1] += uint64(passes) * uint64(len(a.slotted))
		want[2] += uint64(passes) * uint64(len(a.remote))
		got[0] += s.Local - uint64(passes) // the generator's own pushes are local too
		got[1] += s.GhostFiltered
		got[2] += s.Mailbox.RecordsSent
	}
	if got != want {
		b.Fatalf("pushes by outcome (local, filtered, sent) = %v, want %v", got, want)
	}
	for i, name := range []string{"ns/local-push", "ns/filtered-push", "ns/sent-push"} {
		b.ReportMetric(float64(ns[i].Nanoseconds())/float64(want[i]), name)
	}
}
