// Package pagerank implements PageRank as dense counted rounds — Ligra's
// dense edgeMap as GBBS runs it — on the round exchange direction-optimizing
// BFS levels run on (core.RoundExchange).
//
// Every vertex is active in every iteration, so nothing is gained by making
// each edge a visitor. Iteration k is round k of the exchange: each rank
// sweeps its stored rows once and adds every row's contribution c_k(u) =
// α·rank_k(u)/deg(u) into one of three places — a flat per-master array for
// a target the rank masters (csr.Target.Local), one sum per remote slot (the
// partition's Target.Slot numbering) for a remote target the rank stores at
// least two edges to, or a per-owner run for the few other remote edges. It
// then sends each peer one run of (vertex, sum) pairs, that peer's
// contribution to the round, possibly empty. A master completes iteration k
// when round k is complete — its p−1 peer runs and the rank's own sweep have
// all arrived — and rank_{k+1} = base + the sum: no per-edge visitor, no
// per-vertex count.
//
// A split row (edge-list partitioning puts a fragment of at most one, its
// first row, on a rank) is swept by every rank that holds a piece of it, and
// those ranks need c_k from the row's master. Iteration 0 needs no message —
// rank_0 = 1/n everywhere — and for each later iteration the master sends c_k
// down the row's replica chain when it completes iteration k−1, one record
// per chain rank, before any of them can sweep iteration k.
//
// Out of core, a row on absent pages parks on its page, as a visitor does
// (core.Parking), and is swept when the page arrives; the runs go out only
// once nothing is parked.
//
// The arithmetic is the deterministic fixed point of internal/ref, which
// holds the shared constants and the sequential reference. Sums are integers,
// so the order records arrive in cannot change them, and every rank count,
// routing topology and schedule ends bit-identical to ref.PageRank — which is
// what makes pagerank hashable for cluster equivalence.
//
// PageRank is not monotone (ranks move both ways between iterations), so the
// algorithm is non-resumable: the engine's capability flag routes
// checkpoint/resume attempts to ErrNotResumable instead of checkpointing
// garbage.
package pagerank

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
)

// DefaultIters is the iteration count when a query does not specify one.
const DefaultIters = 20

// MaxIters bounds a query's requested iteration count (each iteration is a
// full sweep of the edge set; 64 is far past convergence at fixed point).
const MaxIters = 64

// Record kinds (first payload byte). A round record's pairs are core pairs
// (vertex, sum), and any sum a rank sends fits a pair's 40 bits: ranks sum
// to at most ref.PRScale = 2^40 in every iteration (rank_0 does, and each
// iteration hands on at most α of the mass it received and adds n·base =
// (1−α)·PRScale), so the contributions into one vertex total at most
// α·PRScale.
const (
	kindRound = 1 // [header][count u32][count × pair]
	kindChain = 2 // [kind][vertex u64][iter u32][contribution u64]
)

const chainBytes = 21

// sliceEdges is how many edges one TryAdvance sweeps before it returns, so
// the rank loop interleaves other queries with a sweep.
const sliceEdges = 256

// PR is one rank's PageRank state machine. Drive it with Handle (one
// delivered payload) and TryAdvance (a sweep slice, or a completed
// iteration); once every iteration has completed it stays Idle. Sends go
// through the injected send function, as bfs.DO's do.
type PR struct {
	part   *partition.Part
	iters  uint32
	send   func(dest int, payload []byte)
	lo, hi uint64 // master range
	base   uint64

	// sums exchanges the rounds; each accumulator is Σ contributions per
	// master, indexed by vertex − lo. rank is the masters' fixed-point ranks,
	// indexed the same way: the accumulator of the last completed round with
	// base added — or, before the first, round 1's, holding rank_0 = 1/n. The
	// next sweep reads it and frees it for the round after (see sweep).
	sums *core.RoundExchange[[]uint64]
	rank []uint64

	// A split row's fragment (fragment: the rank's first row, mastered
	// elsewhere) sweeps chainC, its master's contribution for iteration
	// chainIter. Every other row is a master's, and sweeps its rank's share.
	fragment  bool
	chainIter uint32
	chainC    uint64

	slotSum []uint64 // per remote slot: the sweep's sum
	runs    [][]byte // per peer: the record the sweep is building

	swept int  // iterations swept; the sweep in progress is iteration swept
	row   int  // next row of the sweep in progress; -1 when none is
	done  bool // every iteration complete

	// Out of core, the sweep's rows waiting on their pages: Unpark sweeps
	// those of a pager Drain batch.
	core.Parking[int]
}

// New builds rank state for iters iterations (0: DefaultIters), every vertex
// at rank 1/n and ready to sweep iteration 0. send transmits one record to a
// peer rank (never to self); pager is nil when the adjacency is resident.
func New(part *partition.Part, iters uint32, send func(dest int, payload []byte), pager core.RowPager) *PR {
	if iters == 0 {
		iters = DefaultIters
	}
	lo, hi := part.Owners.MasterRange(part.Rank)
	p := &PR{
		part:     part,
		iters:    iters,
		send:     send,
		lo:       lo,
		hi:       hi,
		rank:     make([]uint64, hi-lo),
		fragment: part.StateLen > 0 && !part.IsMaster(part.StateStart),
		slotSum:  make([]uint64, len(part.SlotVertex)),
		runs:     make([][]byte, part.P),
		row:      -1,
	}
	p.Parking = core.NewParking(pager, func(i int) { p.sweepRow(*p.sums.Acc(uint32(p.swept)), i) })
	p.sums = core.NewRoundExchange(part.P, part.Rank, 0, make([]uint64, hi-lo), p.rank)
	if n := part.NumVertices; n > 0 {
		p.base = ref.PRBase(n)
		for i := range p.rank {
			p.rank[i] = ref.PRScale / n
		}
		if p.fragment {
			p.chainC = ref.PRContrib(ref.PRScale/n, part.GlobalDegree(part.StateStart))
		}
	}
	// Each peer's run holds a pair per remote slot it owns and one per
	// untagged edge to a vertex it masters, both counted by the partition
	// build, so the runs are allocated at their size and reused by every
	// sweep. (Words stripped of their tags after the build grow them.)
	pairs := make([]int, part.P)
	copy(pairs, part.UntaggedTo)
	for _, o := range part.SlotOwner {
		pairs[o]++
	}
	for r, n := range pairs {
		if r != part.Rank {
			p.runs[r] = make([]byte, 0, core.RoundHeader+4+n*core.PairBytes)
		}
	}
	return p
}

// Handle applies one delivered record: a peer's run for a round, or a split
// row's contribution from up its replica chain. A record the protocol cannot
// have sent — out of its window, a duplicate, naming a vertex the rank does
// not master — is dropped.
func (p *PR) Handle(payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case kindRound:
		if len(payload) < core.RoundHeader+4 {
			return
		}
		acc, body, ok := p.sums.Accept(payload)
		if !ok {
			return
		}
		sums := *acc
		n := int(binary.LittleEndian.Uint32(body))
		pairs := body[4:]
		for i := 0; i < n && (i+1)*core.PairBytes <= len(pairs); i++ {
			if v, sum := core.ReadPair(pairs[i*core.PairBytes:]); v-p.lo < p.hi-p.lo {
				sums[v-p.lo] += sum
			}
		}
	case kindChain:
		if len(payload) < chainBytes {
			return
		}
		v := graph.Vertex(binary.LittleEndian.Uint64(payload[1:]))
		k := binary.LittleEndian.Uint32(payload[9:])
		// The master sends iteration k's contribution once this rank has
		// swept k−1 and before it can sweep k, so only one is ever expected.
		if !p.fragment || v != p.part.StateStart || k != uint32(p.swept) || k == p.chainIter || k >= p.iters || p.done {
			return
		}
		p.chainC = binary.LittleEndian.Uint64(payload[13:])
		p.chainIter = k
		if to, ok := p.part.ShouldForward(v); ok {
			p.send(to, payload) // a middle piece: the chain continues
		}
	}
}

// canSweep reports whether the next iteration's sweep can start: the
// previous iteration is complete here and, for a split row's fragment, its
// contribution has arrived.
func (p *PR) canSweep() bool {
	return p.row < 0 && !p.done && uint32(p.swept) == p.sums.Round() &&
		(!p.fragment || p.chainIter == uint32(p.swept))
}

// TryAdvance performs whatever step is possible — a slice of the current
// sweep (starting it if need be), or completing an iteration — and reports
// whether anything happened.
func (p *PR) TryAdvance() bool {
	switch {
	case p.done:
		return false
	case p.row >= 0 || p.canSweep():
		return p.sweep()
	}
	sums, ok := p.sums.Ready()
	if !ok {
		return false
	}
	p.complete(*sums)
	return true
}

// Idle reports whether this rank has no local step to make (waiting on
// peers, or finished). A sweep with rows parked is not idle: its runs are
// still to be sent.
func (p *PR) Idle() bool {
	if p.done {
		return true
	}
	_, ready := p.sums.Ready()
	return p.row < 0 && !p.canSweep() && !ready
}

// Done reports whether every iteration has completed on this rank.
func (p *PR) Done() bool { return p.done }

// Ranks returns the fixed-point ranks of the vertices this rank masters,
// indexed by vertex − the master range's first; final once every iteration
// has completed.
func (p *PR) Ranks() []uint64 { return p.rank }

// sweep runs one slice of the current iteration's sweep, starting it when
// none is in progress and parking the rows whose pages are absent, and sends
// the rank's runs once the last row is done and nothing is parked. It
// reports whether it did anything: a sweep waiting on pages has nothing to
// do until Unpark.
func (p *PR) sweep() bool {
	if p.row < 0 {
		p.row = 0
		for r := range p.runs {
			if r != p.part.Rank {
				p.runs[r] = binary.LittleEndian.AppendUint32(core.AppendRoundHeader(p.runs[r][:0], kindRound, p.part.Rank, uint32(p.swept)), 0)
			}
		}
	} else if p.row == p.part.StateLen && p.Parking.Len() > 0 {
		return false
	}
	i, sums := p.row, *p.sums.Acc(uint32(p.swept))
	for edges := 0; i < p.part.StateLen && edges < sliceEdges; i++ {
		if !p.Parking.Absent(i, i) {
			edges += p.sweepRow(sums, i) + 1
		}
	}
	p.row = i
	p.Parking.Park()
	if i < p.part.StateLen || p.Parking.Len() > 0 {
		return true
	}

	for s, sum := range p.slotSum {
		o := p.part.SlotOwner[s]
		p.runs[o] = core.AppendPair(p.runs[o], uint64(p.part.SlotVertex[s]), sum)
	}
	clear(p.slotSum)
	// The swept ranks are spent, and their array is round k+1's accumulator:
	// cleared before this rank's runs leave, since a peer sends its own run
	// for round k+1 only after it has completed round k, with this rank's.
	clear(p.rank)
	for r, run := range p.runs {
		if r != p.part.Rank {
			binary.LittleEndian.PutUint32(run[core.RoundHeader:], uint32((len(run)-core.RoundHeader-4)/core.PairBytes))
			p.send(r, run)
		}
	}
	p.sums.Contribute()
	p.swept++
	p.row = -1
	return true
}

// sweepRow adds row i's contribution for the sweep's iteration into its
// targets' sums (sums, the iteration's accumulator, for the masters of this
// rank) and returns how many targets it has. An untagged edge to a vertex a
// peer masters goes to the owner's run.
func (p *PR) sweepRow(sums []uint64, i int) int {
	part, lo, span, slotSum := p.part, p.lo, p.hi-p.lo, p.slotSum
	c := p.chainC
	if i > 0 || !p.fragment {
		c = 0
		if v := part.Vertex(i); part.Degrees[v] > 0 {
			c = ref.PRContrib(p.rank[uint64(v)-lo], uint64(part.Degrees[v]))
		}
	}
	row := part.CSR.Row(i)
	for _, t := range row {
		switch v := uint64(t.Vertex()); {
		case t.Local():
			sums[v-lo] += c
		case t.Slot() >= 0:
			slotSum[t.Slot()] += c
		case v-lo < span: // an untagged word the rank masters
			sums[v-lo] += c
		default:
			o := part.Master(graph.Vertex(v))
			p.runs[o] = core.AppendPair(p.runs[o], v, c)
		}
	}
	return len(row)
}

// complete folds a completed round into the masters' ranks and readies the
// next iteration, sending the chain record for a split row this rank
// masters.
func (p *PR) complete(sums []uint64) {
	for i := range sums {
		sums[i] += p.base
	}
	p.rank = sums
	p.sums.Advance()
	k := p.sums.Round()
	if k == p.iters {
		p.done = true
		return
	}
	if v := p.part.ForwardVertex; p.part.HasForward && p.part.IsMaster(v) {
		var rec [chainBytes]byte
		rec[0] = kindChain
		binary.LittleEndian.PutUint64(rec[1:], uint64(v))
		binary.LittleEndian.PutUint32(rec[9:], k)
		binary.LittleEndian.PutUint64(rec[13:], ref.PRContrib(p.rank[uint64(v)-p.lo], p.part.GlobalDegree(v)))
		p.send(p.part.ForwardTo, rec[:])
	}
}
