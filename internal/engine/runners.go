package engine

// Per-algorithm runner constructors — the one place a traversal is seeded.
// Each is its query type's entry's run (algos.go), and each builds one run:
// a visitor queue (core.NewQueue) over the rank loop's shared mailbox, a
// counted phase on a core.RoundExchange, or a phase and then a queue under
// the one query tag (cc's marking, k-core's first peel). The constructor
// builds the algorithm's rank state, pushes the initial visitors or builds
// the phase, and supplies the Finish gather. Termination is not the run's:
// the rank loop pumps the query's detector with the run's LocalIdle. Out of
// core, a phase parks a row whose pages are absent in a core.Parking, as the
// queue parks a visitor, and the run hands both the drained pages.

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
)

// runEnv is what one query's runner is built from on one rank: the rank, its
// share of the graph, the rank loop's shared plane, and the query.
type runEnv struct {
	r      *rt.Rank
	part   *partition.Part
	ghosts *core.GhostTable // nil: no ghost filtering on this rank
	pager  core.RowPager    // nil: fully resident
	box    *mailbox.Box
	q      *query
}

// visitorQueue is what a run drives of its query's visitor queue;
// *core.Queue[V] has it for every visitor type V.
type visitorQueue interface {
	Deliver(rec mailbox.Record)
	Step(batch int) bool
	Unpark(pages []int64) bool
	LocalIdle() bool
	Cancel()
	Stats() core.Stats
}

// protocol is a state machine that runs on a core.RoundExchange instead of a
// visitor queue (bfs.DO, sssp.SSSP, pagerank.PR, kcore.KCore): it sends
// through the function it was built with (protocolSender), and its run hands
// it deliveries, execution slices and drained pages until it is Idle, or the
// query cancelled; Done reports that it has ended on this rank. Its
// core.Parking's Unpark runs the rows parked on a Drain batch and Parks
// counts them; Idle is false while any is parked.
type protocol interface {
	Handle(payload []byte)
	TryAdvance() bool
	Idle() bool
	Done() bool
	Unpark(pages []int64) bool
	Parks() (parked, unparked uint64)
}

// run is every query type's runner: a visitor queue (bfs, triangles), a
// counted phase (bfs_do, PageRank, SSSP), or a phase and then a queue (cc,
// k-core). With both, every queue record starts with kind, a byte no phase
// record starts with, so each delivery says which of the two it belongs to:
// a record goes to the queue when the run has one and either has no phase or
// the record starts with kind, and every other record to the phase, counted
// as a protocol record. When the phase is done on this rank, then seeds the
// queue; until it is done everywhere, peers' visitors may already arrive and
// are applied at once, and the phase's and the queue's records share one
// detector epoch. A phase's sends travel through the shared mailbox under
// the query's tag, so the query's detector counts them exactly like visitor
// records.
type run struct {
	queue  visitorQueue // nil: no visitor queue
	kind   byte
	phase  protocol // nil: no counted phase
	then   func()   // nil once it has run, or with no queue to seed
	finish func()

	cancelled bool

	protocolSent, protocolReceived uint64
}

func (rn *run) Deliver(rec mailbox.Record) {
	if rn.queue != nil && (rn.phase == nil || len(rec.Payload) > 0 && rec.Payload[0] == rn.kind) {
		rn.queue.Deliver(rec)
		return
	}
	rn.protocolReceived++
	if !rn.cancelled {
		rn.phase.Handle(rec.Payload)
	}
}

func (rn *run) Step(batch int) bool {
	progress := false
	if rn.phase != nil && !rn.cancelled {
		for i := 0; i < batch && rn.phase.TryAdvance(); i++ {
			progress = true
		}
		if rn.then != nil && rn.phase.Done() {
			rn.then()
			rn.then = nil
			progress = true
		}
	}
	return rn.queue != nil && rn.queue.Step(batch) || progress
}

func (rn *run) Unpark(pages []int64) bool {
	ran := rn.queue != nil && rn.queue.Unpark(pages)
	return rn.phase != nil && !rn.cancelled && rn.phase.Unpark(pages) || ran
}

func (rn *run) LocalIdle() bool {
	return (rn.phase == nil || rn.cancelled || rn.phase.Idle()) && (rn.queue == nil || rn.queue.LocalIdle())
}

func (rn *run) Cancel() {
	rn.cancelled = true
	if rn.queue != nil {
		rn.queue.Cancel()
	}
}

func (rn *run) Stats() core.Stats {
	var s core.Stats
	if rn.queue != nil {
		s = rn.queue.Stats()
	}
	s.ProtocolSent, s.ProtocolReceived = rn.protocolSent, rn.protocolReceived
	if rn.phase != nil {
		parked, unparked := rn.phase.Parks()
		s.Parked += parked
		s.Unparked += unparked
	}
	return s
}

func (rn *run) Finish() { rn.finish() }

// protocolSender returns the send function a protocol is built with: one
// protocol record to a peer, under the query's tag, counted in *sent.
func protocolSender(env *runEnv, sent *uint64) func(dest int, payload []byte) {
	return func(dest int, payload []byte) {
		*sent++
		env.box.SendTagged(dest, env.q.id, payload)
	}
}

// newQueue builds the query's visitor queue for algo. The ghost table filters
// only for the algorithms whose push loops ask it (core.GhostFilter.Drop: bfs
// and cc); k-core needs every removal notice delivered and triangle counting
// every adjacency membership query (§VI-C), so neither asks. SSSP, PageRank
// and direction-optimizing BFS run no visitor queue.
func newQueue[V core.Visitor](env *runEnv, algo core.Algorithm[V]) *core.Queue[V] {
	return core.NewQueue[V](env.r, env.part, algo, env.ghosts, env.pager, env.box, env.q.id)
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
	rn := &run{}
	rn.queue = qu
	rn.finish = func() {
		gatherInto(q.res.Levels, part, st.Level)
		gatherInto(q.res.Parents, part, st.Parent)
	}
	return rn
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
	qu := newQueue[cc.Visitor](env, ccWire{st})
	rn := &run{}
	rn.queue, rn.kind = qu, ccKind
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
		forMasters(part, func(v graph.Vertex) { qu.Push(cc.Visitor{V: v, Label: min(v, cp.Res.Labels[v])}) })
		return rn
	}
	mark := bfs.NewDO(part, part.Hub, protocolSender(env, &rn.protocolSent), env.pager)
	rn.phase = mark
	rn.then = func() { label(part, st, mark.Visited(), qu) }
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
	rn := &run{}
	st := kcore.New(part, q.spec.K, protocolSender(env, &rn.protocolSent), env.pager)
	qu := newQueue[kcore.Visitor](env, st)
	rn.queue, rn.kind, rn.phase = qu, kcore.KindVisitor, st
	rn.then = func() { st.Seed(qu) }
	rn.finish = func() {
		gatherInto(q.res.InCore, part, st.Alive)
		q.accum.Add(st.LocalCoreSize())
	}
	return rn, st
}

// --- Counted rounds alone: direction-optimizing BFS, SSSP and PageRank ---

func newDOBFSRunner(env *runEnv) runner {
	rn := &run{}
	d := bfs.NewDO(env.part, env.q.spec.Source, protocolSender(env, &rn.protocolSent), env.pager)
	rn.phase = d
	rn.finish = func() {
		gatherInto(env.q.res.Levels, env.part, d.Level)
		gatherInto(env.q.res.Parents, env.part, d.Parent)
	}
	return rn
}

// newSSSPRunner runs Δ-stepping from the source or, resumed, from every
// finite distance in the checkpoint. Distances only fall, so a checkpoint's
// are upper bounds that the rounds lower where they can: replaying them is
// safe even where the cancelled run had not settled them.
func newSSSPRunner(env *runEnv) runner {
	rn := &ssspRunner{run: &run{}, box: env.box}
	st := sssp.New(env.part, env.q.spec.Source, env.q.spec.WeightSeed, protocolSender(env, &rn.protocolSent), env.pager)
	if cp := env.q.spec.Resume; cp != nil {
		st.Resume(cp.Res.Dist, cp.Res.Parents)
	}
	rn.phase, rn.st = st, st
	rn.finish = func() {
		gatherInto(env.q.res.Dist, env.part, st.Dist)
		gatherInto(env.q.res.Parents, env.part, st.Parent)
	}
	return rn
}

// ssspRunner is a run that hurries SSSP's rounds and whose stats count the
// edges it relaxed.
//
// A round completes on a rank only once its slowest peer's record is in, so
// Δ-stepping's tens of rounds are as fast as their records travel. With other
// queries in flight, a round that waits for the query's next slice, or a
// record that waits in an aggregation buffer until it fills or the rank runs
// out of work, waits many rank-loop iterations on every rank. So the
// delivery that completes a round — the one after which the rank is no
// longer waiting — runs a slice at once, which completes the round and
// relaxes the start of the next; and a slice that sent records flushes the
// rank's buffers, which sends every peer's at once (other queries' partial
// buffers to those peers go with them). DESIGN.md §7 has the measurements,
// and why DO-BFS's handful of levels does not do the same.
type ssspRunner struct {
	*run
	st  *sssp.SSSP
	box *mailbox.Box
}

func (rn *ssspRunner) Deliver(rec mailbox.Record) {
	waiting := rn.st.Idle()
	rn.run.Deliver(rec)
	if waiting && !rn.cancelled && !rn.st.Idle() {
		rn.Step(stepBatch)
	}
}

func (rn *ssspRunner) Step(batch int) bool {
	sent := rn.protocolSent
	progress := rn.run.Step(batch)
	if rn.protocolSent != sent {
		rn.box.FlushAll()
	}
	return progress
}

func (rn *ssspRunner) Stats() core.Stats {
	s := rn.run.Stats()
	s.Relaxed = rn.st.Relaxed
	return s
}

func newPageRankRunner(env *runEnv) runner {
	rn := &run{}
	pr := pagerank.New(env.part, env.q.spec.Iters, protocolSender(env, &rn.protocolSent), env.pager)
	rn.phase = pr
	rn.finish = func() {
		lo, _ := env.part.Owners.MasterRange(env.part.Rank)
		copy(env.q.res.Ranks[lo:], pr.Ranks())
	}
	return rn
}

// --- Triangle counting ---

func newTriangleRunner(env *runEnv) runner {
	part, q := env.part, env.q
	st := triangle.New(part, triangle.Options{SampleProb: q.spec.SampleProb, SampleSeed: q.spec.SampleSeed})
	qu := newQueue[triangle.Visitor](env, st)
	st.Seed(qu)
	rn := &run{}
	rn.queue = qu
	rn.finish = func() {
		// Queries quiesce in different orders on different ranks, so the
		// local tallies accumulate atomically rather than all-reduce.
		q.accum.Add(st.LocalCount())
	}
	return rn
}
