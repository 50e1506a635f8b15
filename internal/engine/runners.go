package engine

// Per-algorithm runner constructors — the one place a traversal is seeded.
// Each is its query type's entry's run (algos.go). Each builds the
// algorithm's rank state and the query's visitor queue (core.NewQueue) over
// the rank loop's shared mailbox and the query's detector instance, pushes
// the initial visitors, and supplies the Finish gather. The embedded Queue
// provides Deliver/Step/Unpark/LocalIdle/Cancel/PumpTermination/Stats.

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
// only for the algorithms that declare ghost usage (core.GhostAlgorithm: bfs,
// sssp, cc); the counted ones need every visitor's effect delivered and merge
// over the same table instead (core.CombineAlgorithm: k-core's removal
// counts, PageRank's contributions); triangle counting needs every adjacency
// membership query (§VI-C) and does neither.
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

// --- Connected components ---

// ccKind is the first byte of a cc visitor record. A cc query's marking and
// its label propagation send under the one query tag; the marking's DO
// payloads start with a kind of their own, and this byte is above them all.
const ccKind = bfs.DOKindMax + 1

// ccWire is cc's algorithm with ccKind ahead of its wire form.
type ccWire struct{ *cc.CC }

func (w ccWire) Encode(v cc.Visitor, buf []byte) []byte { return w.CC.Encode(v, append(buf, ccKind)) }
func (w ccWire) Decode(buf []byte) cc.Visitor           { return w.CC.Decode(buf[1:]) }

// ccRunner labels the giant component first. On a scale-free graph the hub
// sits in the giant component, so a direction-optimizing BFS from it (bfs.DO,
// whose source is the hub when given none) marks most of the graph; DO's
// visited set is replicated, so when the marking ends every rank holds the
// same component, and its lowest set bit — the component's minimum id — is
// already the final label: no reduction, no barrier. Label propagation then
// runs over the unmarked masters only. Components are closed, so a remainder
// visitor never reaches a marked vertex, and one arriving at a rank still
// marking is applied at once; the marking's and the remainder's records share
// one detector epoch.
type ccRunner struct {
	*core.Queue[cc.Visitor]
	st   *cc.CC
	mark *bfs.DO // the marking while it runs on this rank; nil after, or on resume
	part *partition.Part
	q    *query

	protocolSent, protocolReceived uint64
}

func newCCRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := cc.New(part)
	rn := &ccRunner{Queue: newQueue[cc.Visitor](env, ccWire{st}), st: st, part: part, q: q}
	if cp := q.spec.Resume; cp != nil {
		// Resume: full propagation, each master starting from its
		// checkpointed label instead of its own id. Labels only decrease
		// toward the component minimum, so any partial label is a valid
		// (better) start.
		forMasters(part, func(v graph.Vertex) { rn.Push(cc.Visitor{V: v, Label: min(v, cp.Res.Labels[v])}) })
		return rn
	}
	rn.mark = newDO(env, graph.Nil, func(dest int, payload []byte) {
		rn.protocolSent++
		env.box.SendTagged(dest, q.id, payload)
	})
	return rn
}

func (rn *ccRunner) Deliver(rec mailbox.Record) {
	if len(rec.Payload) > 0 && rec.Payload[0] == ccKind {
		rn.Queue.Deliver(rec)
		return
	}
	rn.protocolReceived++
	if rn.mark != nil {
		rn.mark.Handle(rec.Payload)
	}
}

func (rn *ccRunner) Step(batch int) bool {
	progress := false
	if rn.mark != nil {
		for i := 0; i < batch && rn.mark.TryAdvance(); i++ {
			progress = true
		}
		if rn.mark.Done() {
			rn.label()
			progress = true
		}
	}
	return rn.Queue.Step(batch) || progress
}

// label ends the marking on this rank: every locally held marked vertex takes
// the marked set's lowest id; an unmarked master of degree 0 is a component of
// its own and takes its id without a visit; every other unmarked master seeds
// label propagation with its own id.
func (rn *ccRunner) label() {
	marked := rn.mark.Visited()
	rn.mark = nil
	first, _ := marked.First() // the source at least is marked
	for i := range rn.st.Label {
		if marked.Get(uint64(rn.part.StateStart) + uint64(i)) {
			rn.st.Label[i] = graph.Vertex(first)
		}
	}
	forMasters(rn.part, func(v graph.Vertex) {
		switch {
		case marked.Get(uint64(v)):
		case rn.part.GlobalDegree(v) == 0:
			i, _ := rn.part.LocalIndex(v)
			rn.st.Label[i] = v
		default:
			rn.Push(cc.Visitor{V: v, Label: v})
		}
	})
}

func (rn *ccRunner) LocalIdle() bool {
	return (rn.mark == nil || rn.mark.Idle()) && rn.Queue.LocalIdle()
}

func (rn *ccRunner) Cancel() {
	rn.mark = nil
	rn.Queue.Cancel()
}

func (rn *ccRunner) Stats() core.Stats {
	s := rn.Queue.Stats()
	s.ProtocolSent, s.ProtocolReceived = rn.protocolSent, rn.protocolReceived
	return s
}

func (rn *ccRunner) Finish() {
	part, st, q := rn.part, rn.st, rn.q
	var local uint64
	forMasters(part, func(v graph.Vertex) {
		i, _ := part.LocalIndex(v)
		if st.Label[i] == graph.Nil {
			// Cancelled before the marking ended: a master nothing labelled
			// keeps its own id, which leaves a valid checkpoint.
			st.Label[i] = v
		}
		// Component count: a master whose label is its own id represents one
		// component. Accumulate atomically instead of AllReduce (see runner).
		if st.Label[i] == v {
			local++
		}
	})
	gatherInto(q.res.Labels, part, st.Label)
	q.accum.Add(local)
}

// --- K-core ---

func newKCoreRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := kcore.New(part, q.spec.K)
	qu := newQueue[kcore.Visitor](env, st)
	// One visitor per vertex absorbs the +1 in the counter initialization
	// (Algorithm 5); the removal cascade then runs to quiescence.
	forMasters(part, func(v graph.Vertex) { qu.Push(kcore.Visitor{V: v, N: 1}) })
	return &queueRunner[kcore.Visitor]{Queue: qu, finish: func() {
		gatherInto(q.res.InCore, part, st.Alive)
		q.accum.Add(st.LocalCoreSize())
	}}
}

// --- Direction-optimizing BFS ---

// doBFSRunner adapts the bfs.DO state machine — a counted peer-message
// protocol rather than a visitor queue — to the engine's runner face. Sends
// travel through the shared mailbox under the query's tag, so the rank-level
// flow counter and the per-query detector account for them exactly like
// visitor records, and Stats counts them as protocol records; quiescence is
// reached when every rank has merged the empty frontier and all level
// messages have drained.
type doBFSRunner struct {
	d         *bfs.DO
	det       *termination.Detector
	part      *partition.Part
	q         *query
	cancelled bool
	stats     core.Stats
}

func newDOBFSRunner(env *runEnv) runner {
	rn := &doBFSRunner{det: env.det, part: env.part, q: env.q}
	rn.d = newDO(env, env.q.spec.Source, func(dest int, payload []byte) {
		rn.stats.ProtocolSent++
		env.box.SendTagged(dest, env.q.id, payload)
	})
	return rn
}

// newDO builds and starts a direction-optimizing BFS from source (graph.Nil:
// the hub) that sends through send.
func newDO(env *runEnv, source graph.Vertex, send func(dest int, payload []byte)) *bfs.DO {
	// Bottom-up unvisited-row scans read ahead through the pager, when it
	// offers hints (ooc.Pager does).
	hint, _ := env.pager.(bfs.RowHinter)
	d := bfs.NewDO(env.part, source, send, hint)
	d.Start()
	return d
}

func (rn *doBFSRunner) Deliver(rec mailbox.Record) {
	rn.stats.ProtocolReceived++
	if rn.cancelled {
		return // drain: delivery already counted, state no longer advances
	}
	rn.d.Handle(rec.Payload)
}

func (rn *doBFSRunner) Step(batch int) bool {
	progress := false
	for i := 0; i < batch && rn.d.TryAdvance(); i++ {
		progress = true
	}
	return progress
}

// Unpark: the DO machine never parks visitors — bottom-up scans hint the
// pager ahead of reads and then fault synchronously on the rare miss.
func (rn *doBFSRunner) Unpark(pages []int64) bool { return false }

func (rn *doBFSRunner) LocalIdle() bool { return rn.cancelled || rn.d.Idle() }

func (rn *doBFSRunner) Cancel() {
	rn.cancelled = true
	rn.d.Abort()
}

func (rn *doBFSRunner) PumpTermination(localIdle bool) bool {
	if !rn.det.Pump(localIdle) {
		return false
	}
	rn.stats.DetectorWaves = rn.det.Waves
	rn.stats.DetectorSent = rn.det.Sent()
	rn.stats.DetectorReceived = rn.det.Received()
	return true
}

func (rn *doBFSRunner) Stats() core.Stats { return rn.stats }

func (rn *doBFSRunner) Finish() {
	gatherInto(rn.q.res.Levels, rn.part, rn.d.Level)
	gatherInto(rn.q.res.Parents, rn.part, rn.d.Parent)
}

// --- PageRank ---

func newPageRankRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := pagerank.New(part, q.spec.Iters)
	qu := newQueue[pagerank.Visitor](env, st)
	st.Seed(qu)
	return &queueRunner[pagerank.Visitor]{Queue: qu, finish: func() {
		gatherInto(q.res.Ranks, part, st.Rank)
	}}
}

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
