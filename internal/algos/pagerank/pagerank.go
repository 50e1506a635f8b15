// Package pagerank implements PageRank as a visitor over the distributed
// asynchronous visitor queue — the first-class engine query type promoted
// from the offline harness (DESIGN.md §14).
//
// The kernel is a self-clocked asynchronous wavefront in deterministic
// fixed-point arithmetic (internal/ref holds the shared constants and the
// sequential reference). Each master vertex counts the contributions it has
// received for its current iteration; when the count reaches the vertex's
// full degree, the iteration is complete — rank_{k+1}(v) = base + Σ c_k(u)
// — and the vertex emits its own contribution for the next iteration down
// its replica chain. No barrier separates iterations: different vertices
// may be an iteration apart (never more — a neighbor cannot finish k+1
// before this vertex's c_k arrives), so two accumulation buckets per vertex
// suffice. Because the arithmetic is integral and completion is counted,
// the result is bit-identical to the synchronous reference under any
// message schedule — which is what makes pagerank hashable for cluster
// equivalence. For the same reason contributions can be merged before they
// leave the sending rank (core.CombineAlgorithm): a merged visitor carries the
// sum of its contributions and how many it stands for, and fixed-point sums
// are associative, so the master's bucket ends the same.
//
// PageRank is not monotone (ranks move both ways between iterations), so
// the algorithm is non-resumable: the engine's capability flag routes
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
// full supersweep of the edge set; 64 is far past convergence at fixed
// point). It also keeps Visitor.Iter in 16 bits.
const MaxIters = 64

// Visitor kinds.
const (
	kindContrib = 0 // Cnt per-edge contributions for iteration Iter, summed in Val
	kindEmit    = 1 // fan out Val along the vertex's locally stored edges
)

// Visitor is either a contribution to a vertex's accumulator (contrib) or
// an instruction to a vertex's row holders to fan its contribution out
// (emit, forwarded down the replica chain).
type Visitor struct {
	V    graph.Vertex
	Val  uint64
	Cnt  uint32 // contributions summed into Val (contrib only)
	Iter uint16
	Kind uint8
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// PR is one rank's PageRank state.
type PR struct {
	part  *partition.Part
	iters uint32

	// Rank is the fixed-point rank per local state index (masters
	// authoritative).
	Rank []uint64

	// Per-master iteration clock: done counts completed iterations; the
	// current bucket accumulates contributions tagged done, the next bucket
	// those tagged done+1 (at most one iteration of skew is possible).
	done            []uint32
	cntCur, cntNext []uint32
	accCur, accNext []uint64
	dropped         uint64 // contributions outside the two-bucket window
}

var _ core.CombineAlgorithm[Visitor] = (*PR)(nil)

// New initializes PageRank state: every vertex at rank 1/n.
func New(part *partition.Part, iters uint32) *PR {
	if iters == 0 {
		iters = DefaultIters
	}
	p := &PR{
		part:    part,
		iters:   iters,
		Rank:    make([]uint64, part.StateLen),
		done:    make([]uint32, part.StateLen),
		cntCur:  make([]uint32, part.StateLen),
		cntNext: make([]uint32, part.StateLen),
		accCur:  make([]uint64, part.StateLen),
		accNext: make([]uint64, part.StateLen),
	}
	for i := range p.Rank {
		p.Rank[i] = ref.PRScale / part.NumVertices
	}
	return p
}

// Seed pushes the initial contribution wave: every local master with edges
// emits c_0 = α·rank_0/deg; degree-0 masters settle immediately at the
// teleport mass (they receive nothing and contribute nothing).
func (p *PR) Seed(q *core.Queue[Visitor]) {
	lo, hi := p.part.Owners.MasterRange(p.part.Rank)
	base := ref.PRBase(p.part.NumVertices)
	for v := lo; v < hi; v++ {
		i, _ := p.part.LocalIndex(graph.Vertex(v))
		deg := p.part.GlobalDegree(graph.Vertex(v))
		if deg == 0 {
			p.Rank[i] = base
			p.done[i] = p.iters
			continue
		}
		c := ref.PRContrib(p.Rank[i], deg)
		q.Push(Visitor{V: graph.Vertex(v), Val: c, Iter: 0, Kind: kindEmit})
	}
}

// PreVisit applies a contribution to the master's accumulator buckets, or
// admits an emit for local fan-out (and replica-chain forwarding).
func (p *PR) PreVisit(v Visitor) bool {
	i, ok := p.part.LocalIndex(v.V)
	if !ok {
		return false
	}
	if v.Kind == kindEmit {
		return true // visit locally; the queue forwards down the chain
	}
	if !p.part.IsMaster(v.V) {
		// A completing contribution returns true below, which makes the
		// queue forward it down a split vertex's replica chain like any
		// admitted visitor; replicas drop it here.
		return false
	}
	if p.done[i] >= p.iters {
		return false // vertex finished all iterations
	}
	switch uint32(v.Iter) {
	case p.done[i]:
		p.accCur[i] += v.Val
		p.cntCur[i] += v.Cnt
		// The contribution that completes the current iteration becomes the
		// completion trigger: admit it so Visit runs the completion cascade
		// (PreVisit cannot push). Exactly one contribution per completed
		// bucket is that one, merged or not: the count only rises.
		return uint64(p.cntCur[i]) == p.part.GlobalDegree(v.V)
	case p.done[i] + 1:
		// Never a trigger, even when the current bucket is already full: its
		// trigger is queued, and the cascade it runs promotes this bucket.
		p.accNext[i] += v.Val
		p.cntNext[i] += v.Cnt
	default:
		p.dropped++ // impossible under exactly-once delivery; tolerated
	}
	return false
}

// Visit runs an emit fan-out over the locally stored row portion, or — for
// the contribution that completed an iteration — the completion cascade.
func (p *PR) Visit(v Visitor, q *core.Queue[Visitor]) {
	i := q.LocalRow(v.V)
	if v.Kind == kindEmit {
		for _, t := range q.OutEdges(v.V) {
			q.PushEdge(t, Visitor{V: t.Vertex(), Val: v.Val, Cnt: 1, Iter: v.Iter, Kind: kindContrib})
		}
		return
	}
	if !p.part.IsMaster(v.V) {
		return
	}
	deg := p.part.GlobalDegree(v.V)
	base := ref.PRBase(p.part.NumVertices)
	// Cascade: promoting the next bucket may reveal an already-complete
	// iteration (messages can arrive out of order), so loop.
	for p.done[i] < p.iters && uint64(p.cntCur[i]) == deg {
		p.Rank[i] = base + p.accCur[i]
		p.done[i]++
		p.accCur[i], p.accNext[i] = p.accNext[i], 0
		p.cntCur[i], p.cntNext[i] = p.cntNext[i], 0
		if p.done[i] < p.iters {
			q.Push(Visitor{V: v.V, Val: ref.PRContrib(p.Rank[i], deg), Iter: uint16(p.done[i]), Kind: kindEmit})
		}
	}
}

// Combine merges two contributions of one iteration (core.CombineAlgorithm).
// Only contributions travel an edge, so only they are ever offered.
func (p *PR) Combine(acc *Visitor, v Visitor) bool {
	if acc.Iter != v.Iter {
		return false
	}
	acc.Val += v.Val
	acc.Cnt += v.Cnt
	return true
}

// Encode appends the 23-byte wire form.
func (p *PR) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.V))
	buf = binary.LittleEndian.AppendUint64(buf, v.Val)
	buf = binary.LittleEndian.AppendUint32(buf, v.Cnt)
	buf = binary.LittleEndian.AppendUint16(buf, v.Iter)
	return append(buf, v.Kind)
}

// Decode parses one visitor record.
func (p *PR) Decode(buf []byte) Visitor {
	return Visitor{
		V:    graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		Val:  binary.LittleEndian.Uint64(buf[8:]),
		Cnt:  binary.LittleEndian.Uint32(buf[16:]),
		Iter: binary.LittleEndian.Uint16(buf[20:]),
		Kind: buf[22],
	}
}
