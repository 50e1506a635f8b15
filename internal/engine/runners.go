package engine

// Per-algorithm runner constructors — the one place a traversal is seeded.
// Each is its query type's entry's run (algos.go). Each builds the
// algorithm's rank state and the query's visitor queue (core.NewQueue) over
// the rank loop's shared mailbox and the query's detector instance, pushes
// the initial visitors, and supplies the Finish gather. The embedded Queue
// provides Deliver/Step/Unpark/LocalIdle/Cancel/PumpTermination/Stats. The
// dense kernels — direction-optimizing BFS and PageRank — are state machines
// on a core.RoundExchange instead, behind one adapter (protocolRunner).

import (
	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// runEnv is what one query's runner is built from on one rank: the rank, its
// share of the graph, the rank loop's shared plane, and the query.
type runEnv struct {
	r      *rt.Rank
	part   *partition.Part
	ghosts *core.GhostTable // nil: no ghost filtering on this rank
	pager  core.RowPager    // nil: fully resident
	box    *mailbox.Box
	det    *termination.Detector
	q      *query
}

// queueRunner is a visitor-queue runner: the query's core.Queue plus the
// algorithm's gather.
type queueRunner[V core.Visitor] struct {
	*core.Queue[V]
	finish func()
}

func (rn *queueRunner[V]) Finish() { rn.finish() }

// newQueue builds the query's visitor queue for algo. The ghost table filters
// only for the algorithms whose push loops ask it (core.GhostFilter.Drop: bfs,
// sssp, cc); k-core needs every removal notice delivered and triangle
// counting every adjacency membership query (§VI-C), so neither asks.
// PageRank and direction-optimizing BFS run no visitor queue (protocolRunner).
func newQueue[V core.Visitor](env *runEnv, algo core.Algorithm[V]) *core.Queue[V] {
	return core.NewQueue[V](env.r, env.part, algo, env.ghosts, env.pager, env.box, env.det, env.q.id)
}

// forMasters calls fn for every vertex this rank masters.
func forMasters(part *partition.Part, fn func(v graph.Vertex)) {
	lo, hi := part.Owners.MasterRange(part.Rank)
	for v := lo; v < hi; v++ {
		fn(graph.Vertex(v))
	}
}

// gatherInto copies a per-vertex value from this rank's masters into the
// shared global array. Master ranges are disjoint across ranks, and every
// write happens before the rank's ranksDone increment, so waiters observing
// the done channel see a complete array.
func gatherInto[T any](out []T, part *partition.Part, local []T) {
	forMasters(part, func(v graph.Vertex) {
		i, _ := part.LocalIndex(v)
		out[v] = local[i]
	})
}

// --- BFS ---

func newBFSRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := bfs.New(part)
	qu := newQueue[bfs.Visitor](env, st)
	src := bfs.Visitor{V: q.spec.Source, Length: 0, Parent: q.spec.Source}
	if cp := q.spec.Resume; cp != nil {
		// Resume: replay the checkpointed frontier onto fresh state. Every
		// reached master re-enters as a visitor carrying its checkpointed
		// level; PreVisit admits it (fresh state is Unreached, and levels are
		// monotone) and Visit re-expands its neighbors, so the traversal
		// continues outward from wherever the cancelled run stopped. The
		// interior is re-offered but immediately pruned by the level test —
		// coarse, but it costs one visitor per reached vertex, not a restart
		// of the whole traversal.
		forMasters(part, func(v graph.Vertex) {
			if lv := cp.Res.Levels[v]; lv != bfs.Unreached {
				qu.Push(bfs.Visitor{V: v, Length: lv, Parent: cp.Res.Parents[v]})
			}
		})
		if part.IsMaster(q.spec.Source) && cp.Res.Levels[q.spec.Source] == bfs.Unreached {
			// Checkpoint from a run cancelled before the source was settled:
			// fall back to a fresh start.
			qu.Push(src)
		}
	} else if part.IsMaster(q.spec.Source) {
		qu.Push(src)
	}
	return &queueRunner[bfs.Visitor]{Queue: qu, finish: func() {
		gatherInto(q.res.Levels, part, st.Level)
		gatherInto(q.res.Parents, part, st.Parent)
	}}
}

// --- SSSP ---

func newSSSPRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := sssp.New(part, q.spec.WeightSeed)
	qu := newQueue[sssp.Visitor](env, st)
	src := sssp.Visitor{V: q.spec.Source, Dist: 0, Parent: q.spec.Source}
	if cp := q.spec.Resume; cp != nil {
		// Same frontier-replay scheme as BFS, over tentative distances.
		// Distances in the checkpoint are upper bounds that only the relax
		// rule can lower, so replaying them is safe even if the cancelled run
		// had not converged them yet.
		forMasters(part, func(v graph.Vertex) {
			if d := cp.Res.Dist[v]; d != sssp.Unreached {
				qu.Push(sssp.Visitor{V: v, Dist: d, Parent: cp.Res.Parents[v]})
			}
		})
		if part.IsMaster(q.spec.Source) && cp.Res.Dist[q.spec.Source] == sssp.Unreached {
			qu.Push(src)
		}
	} else if part.IsMaster(q.spec.Source) {
		qu.Push(src)
	}
	return &queueRunner[sssp.Visitor]{Queue: qu, finish: func() {
		gatherInto(q.res.Dist, part, st.Dist)
		gatherInto(q.res.Parents, part, st.Parent)
	}}
}

// --- A counted phase, then a visitor queue: cc and k-core ---

// phase is a protocol a visitor queue runs after on one rank (cc's marking,
// k-core's first peel: bfs.DO, kcore.KCore); Done reports that it has ended.
type phase interface {
	protocol
	Done() bool
}

// phasedRunner runs a phase and then a visitor queue under the one query tag.
// Every visitor record starts with kind, a byte no record of the phase starts
// with, so each delivery says which of the two it belongs to. When the phase
// ends on this rank, then seeds the queue; until it has ended everywhere,
// peers' visitors may already arrive and are applied at once, and the
// phase's and the queue's records share one detector epoch. The embedded
// Queue provides Unpark, PumpTermination and the visitor counters; the
// phase's records count as protocol records.
type phasedRunner[V core.Visitor] struct {
	*core.Queue[V]
	phase  phase // nil once it has ended on this rank, or when there is none
	kind   byte
	then   func()
	finish func()

	protocolSent, protocolReceived uint64
}

func (rn *phasedRunner[V]) Deliver(rec mailbox.Record) {
	if len(rec.Payload) > 0 && rec.Payload[0] == rn.kind {
		rn.Queue.Deliver(rec)
		return
	}
	rn.protocolReceived++
	if rn.phase != nil {
		rn.phase.Handle(rec.Payload)
	}
}

func (rn *phasedRunner[V]) Step(batch int) bool {
	progress := false
	if rn.phase != nil {
		for i := 0; i < batch && rn.phase.TryAdvance(); i++ {
			progress = true
		}
		if rn.phase.Done() {
			rn.phase = nil
			rn.then()
			progress = true
		}
	}
	return rn.Queue.Step(batch) || progress
}

func (rn *phasedRunner[V]) LocalIdle() bool {
	return (rn.phase == nil || rn.phase.Idle()) && rn.Queue.LocalIdle()
}

func (rn *phasedRunner[V]) Cancel() {
	rn.phase = nil
	rn.Queue.Cancel()
}

func (rn *phasedRunner[V]) Stats() core.Stats {
	s := rn.Queue.Stats()
	s.ProtocolSent, s.ProtocolReceived = rn.protocolSent, rn.protocolReceived
	return s
}

func (rn *phasedRunner[V]) Finish() { rn.finish() }

// --- Connected components ---

// ccKind is the first byte of a cc visitor record. A cc query's marking and
// its label propagation send under the one query tag; the marking's DO
// payloads start with a kind of their own, and this byte is above them all.
const ccKind = bfs.DOKindMax + 1

// ccWire is cc's algorithm with ccKind ahead of its wire form.
type ccWire struct{ *cc.CC }

func (w ccWire) Encode(v cc.Visitor, buf []byte) []byte { return w.CC.Encode(v, append(buf, ccKind)) }
func (w ccWire) Decode(buf []byte) cc.Visitor           { return w.CC.Decode(buf[1:]) }

// newCCRunner labels the giant component first. On a scale-free graph the
// hub sits in the giant component, so a direction-optimizing BFS from it
// (bfs.DO from partition.Part.Hub, picked at build) marks most of the graph;
// DO's visited set is replicated, so when the marking ends every rank holds
// the same component, and its lowest set bit — the component's minimum id —
// is already the final label: no reduction, no barrier. Label propagation
// then runs over the unmarked masters only. Components are closed, so a
// remainder visitor never reaches a marked vertex.
func newCCRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := cc.New(part)
	rn := &phasedRunner[cc.Visitor]{Queue: newQueue[cc.Visitor](env, ccWire{st}), kind: ccKind}
	rn.finish = func() {
		var local uint64
		forMasters(part, func(v graph.Vertex) {
			i, _ := part.LocalIndex(v)
			if st.Label[i] == graph.Nil {
				// Cancelled before the marking ended: a master nothing
				// labelled keeps its own id, which leaves a valid checkpoint.
				st.Label[i] = v
			}
			// Component count: a master whose label is its own id represents
			// one component. Accumulate atomically instead of AllReduce (see
			// runner).
			if st.Label[i] == v {
				local++
			}
		})
		gatherInto(q.res.Labels, part, st.Label)
		q.accum.Add(local)
	}
	if cp := q.spec.Resume; cp != nil {
		// Resume: full propagation, each master starting from its
		// checkpointed label instead of its own id. Labels only decrease
		// toward the component minimum, so any partial label is a valid
		// (better) start.
		forMasters(part, func(v graph.Vertex) { rn.Push(cc.Visitor{V: v, Label: min(v, cp.Res.Labels[v])}) })
		return rn
	}
	mark := newDO(env, part.Hub, protocolSender(env, &rn.protocolSent))
	rn.phase = mark
	rn.then = func() { label(part, st, mark.Visited(), rn.Queue) }
	return rn
}

// label ends the marking on this rank: every locally held marked vertex takes
// the marked set's lowest id; an unmarked master of degree 0 is a component of
// its own and takes its id without a visit; every other unmarked master seeds
// label propagation with its own id.
func label(part *partition.Part, st *cc.CC, marked core.Bitmap, qu *core.Queue[cc.Visitor]) {
	first, _ := marked.First() // the source at least is marked
	for i := range st.Label {
		if marked.Get(uint64(part.StateStart) + uint64(i)) {
			st.Label[i] = graph.Vertex(first)
		}
	}
	forMasters(part, func(v graph.Vertex) {
		switch {
		case marked.Get(uint64(v)):
		case part.GlobalDegree(v) == 0:
			i, _ := part.LocalIndex(v)
			st.Label[i] = v
		default:
			qu.Push(cc.Visitor{V: v, Label: v})
		}
	})
}

// --- K-core ---

func newKCoreRunner(env *runEnv) runner {
	rn, _ := kcoreRunner(env)
	return rn
}

// kcoreRunner builds a k-core query's runner and returns it with the rank's
// algorithm state. Round 0 — the first peel, a degree test of every vertex —
// is the phase (kcore.KCore); the removal cascade from its survivors below k
// then runs on the queue to quiescence.
func kcoreRunner(env *runEnv) (runner, *kcore.KCore) {
	part, q := env.part, env.q
	rn := &phasedRunner[kcore.Visitor]{kind: kcore.KindVisitor}
	st := kcore.New(part, q.spec.K, protocolSender(env, &rn.protocolSent))
	rn.Queue = newQueue[kcore.Visitor](env, st)
	rn.phase = st
	rn.then = func() { st.Seed(rn.Queue) }
	rn.finish = func() {
		gatherInto(q.res.InCore, part, st.Alive)
		q.accum.Add(st.LocalCoreSize())
	}
	return rn, st
}

// --- Counted rounds: direction-optimizing BFS and PageRank ---

// protocol is a state machine that runs on a core.RoundExchange instead of a
// visitor queue (bfs.DO, pagerank.PR, kcore.KCore): it sends through the
// function it was built with (protocolSender), and the runner hands it
// deliveries and execution slices until it is Idle, or the query cancelled.
type protocol interface {
	Handle(payload []byte)
	TryAdvance() bool
	Idle() bool
}

// protocolSender returns the send function a protocol is built with: one
// protocol record to a peer, under the query's tag, counted in *sent.
func protocolSender(env *runEnv, sent *uint64) func(dest int, payload []byte) {
	return func(dest int, payload []byte) {
		*sent++
		env.box.SendTagged(dest, env.q.id, payload)
	}
}

// protocolRunner adapts a protocol to the engine's runner face. Sends travel
// through the shared mailbox under the query's tag, so the rank-level flow
// counter and the per-query detector account for them exactly like visitor
// records, and Stats counts them as protocol records; quiescence is reached
// when every rank has finished its last round and all records have drained.
type protocolRunner struct {
	m         protocol
	det       *termination.Detector
	cancelled bool
	stats     core.Stats
	finish    func()
}

func newDOBFSRunner(env *runEnv) runner {
	rn := &protocolRunner{det: env.det}
	d := newDO(env, env.q.spec.Source, protocolSender(env, &rn.stats.ProtocolSent))
	rn.m = d
	rn.finish = func() {
		gatherInto(env.q.res.Levels, env.part, d.Level)
		gatherInto(env.q.res.Parents, env.part, d.Parent)
	}
	return rn
}

func newPageRankRunner(env *runEnv) runner {
	rn := &protocolRunner{det: env.det}
	pr := pagerank.New(env.part, env.q.spec.Iters, protocolSender(env, &rn.stats.ProtocolSent))
	rn.m = pr
	rn.finish = func() {
		lo, _ := env.part.Owners.MasterRange(env.part.Rank)
		copy(env.q.res.Ranks[lo:], pr.Ranks())
	}
	return rn
}

// newDO builds a direction-optimizing BFS from source that sends through
// send.
func newDO(env *runEnv, source graph.Vertex, send func(dest int, payload []byte)) *bfs.DO {
	// Bottom-up unvisited-row scans read ahead through the pager, when it
	// offers hints (ooc.Pager does).
	hint, _ := env.pager.(bfs.RowHinter)
	return bfs.NewDO(env.part, source, send, hint)
}

func (rn *protocolRunner) Deliver(rec mailbox.Record) {
	rn.stats.ProtocolReceived++
	if rn.cancelled {
		return // drain: delivery already counted, state no longer advances
	}
	rn.m.Handle(rec.Payload)
}

func (rn *protocolRunner) Step(batch int) bool {
	progress := false
	for i := 0; i < batch && !rn.cancelled && rn.m.TryAdvance(); i++ {
		progress = true
	}
	return progress
}

// Unpark: a protocol never parks — bottom-up scans hint the pager ahead of
// reads, and every scan faults synchronously on a miss.
func (rn *protocolRunner) Unpark(pages []int64) bool { return false }

func (rn *protocolRunner) LocalIdle() bool { return rn.cancelled || rn.m.Idle() }

func (rn *protocolRunner) Cancel() { rn.cancelled = true }

func (rn *protocolRunner) PumpTermination(localIdle bool) bool {
	if !rn.det.Pump(localIdle) {
		return false
	}
	rn.stats.DetectorWaves = rn.det.Waves
	rn.stats.DetectorSent = rn.det.Sent()
	rn.stats.DetectorReceived = rn.det.Received()
	return true
}

func (rn *protocolRunner) Stats() core.Stats { return rn.stats }

func (rn *protocolRunner) Finish() { rn.finish() }

// --- Triangle counting ---

func newTriangleRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := triangle.New(part, triangle.Options{SampleProb: q.spec.SampleProb, SampleSeed: q.spec.SampleSeed})
	qu := newQueue[triangle.Visitor](env, st)
	st.Seed(qu)
	return &queueRunner[triangle.Visitor]{Queue: qu, finish: func() {
		// Queries quiesce in different orders on different ranks, so the
		// local tallies accumulate atomically rather than all-reduce.
		q.accum.Add(st.LocalCount())
	}}
}
