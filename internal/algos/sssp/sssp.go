// Package sssp implements single-source shortest path as a visitor over the
// distributed asynchronous visitor queue. The paper's framework descends
// from the authors' multithreaded asynchronous work (§IV-A, reference [4]),
// where SSSP is one of the three original kernels; it generalizes the BFS
// visitor to weighted edges as a label-correcting traversal: visitors carry
// tentative distances, pre_visit admits only improvements, and the local
// priority queue orders visitors by distance (an asynchronous, distributed
// relaxation of Dijkstra's ordering).
//
// Edge weights are synthesized deterministically from the endpoint pair (the
// CSR stores no weights), symmetric for undirected graphs, so every rank and
// the sequential reference agree.
package sssp

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/xrand"
)

// Unreached is the distance of vertices not reached by the traversal (∞).
const Unreached = ^uint64(0)

// Summary folds a global distance array into the traversal's reached-vertex
// count and its longest finite distance.
func Summary(dist []uint64) (reached, maxDist uint64) {
	for _, d := range dist {
		if d != Unreached {
			reached++
			maxDist = max(maxDist, d)
		}
	}
	return reached, maxDist
}

// MaxWeight bounds synthesized edge weights to [1, MaxWeight].
const MaxWeight = 255

// MaxDist bounds any legitimate tentative distance: the longest simple path
// is under 2^32 edges at any simulated scale and each edge weighs at most
// MaxWeight < 2^8, so real distances stay below 2^40. A visitor above this
// bound can only come from corruption (bit flips on an unreliable transport,
// or an overflowed relaxation) and is rejected at pre_visit, before it can
// beat honest distances in the improvement test.
const MaxDist = uint64(1) << 40

// Delta is the bucket width for delta-stepping: visitors are drained in
// ⌊Dist/Delta⌋ order instead of strict Dist order, so the local scheduler
// needs only O(1) bucket push/pop. Relaxations of
// light edges (weight < Delta) land in the current or next bucket and are
// processed in the same wave; heavy-edge relaxations defer to later buckets.
// Set to MaxWeight+1 so every edge is "light": one bucket per weight-rounded
// distance plateau, the classic sweet spot for uniform random weights.
const Delta = MaxWeight + 1

// Weight returns the deterministic, symmetric weight of edge {u, v}.
func Weight(u, v graph.Vertex, seed uint64) uint64 {
	if u > v {
		u, v = v, u
	}
	h := xrand.Mix64(uint64(u)*0x9e3779b97f4a7c15 ^ xrand.Mix64(uint64(v)+seed))
	return h%MaxWeight + 1
}

// Visitor carries a tentative distance to a vertex.
type Visitor struct {
	V      graph.Vertex
	Dist   uint64
	Parent graph.Vertex
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// SSSP is one rank's algorithm state.
type SSSP struct {
	part *partition.Part
	seed uint64

	Dist   []uint64
	Parent []graph.Vertex
}

// New initializes SSSP state: every vertex at distance ∞.
func New(part *partition.Part, weightSeed uint64) *SSSP {
	s := &SSSP{
		part:   part,
		seed:   weightSeed,
		Dist:   make([]uint64, part.StateLen),
		Parent: make([]graph.Vertex, part.StateLen),
	}
	for i := range s.Dist {
		s.Dist[i] = Unreached
		s.Parent[i] = graph.Nil
	}
	return s
}

// PreVisit admits the visitor iff it improves the current distance. It is
// the wire-decode admission point, so it also rejects distances beyond
// MaxDist: a corrupted visitor with a near-∞ distance must not be allowed to
// relax edges (its Dist+Weight would wrap past Unreached into a tiny garbage
// distance that wins every improvement test downstream).
func (s *SSSP) PreVisit(v Visitor) bool {
	if v.Dist > MaxDist {
		return false
	}
	i, ok := s.part.LocalIndex(v.V)
	if !ok {
		return false
	}
	if v.Dist < s.Dist[i] {
		s.Dist[i] = v.Dist
		s.Parent[i] = v.Parent
		return true
	}
	return false
}

// Visit relaxes the locally stored out-edges. The addition saturates: a
// near-max distance (possible only via corruption that slipped past the
// PreVisit bound, e.g. state poked directly by a fault harness) must not wrap
// past Unreached into a small garbage value that would win improvement tests.
// SSSP uses the queue's ghost filter for the same reason BFS does: distances
// improve monotonically, so a stale ghost can only fail to filter, never
// block a better path.
func (s *SSSP) Visit(v Visitor, q *core.Queue[Visitor]) {
	i := q.LocalRow(v.V)
	if v.Dist != s.Dist[i] {
		return
	}
	edges := q.OutEdges(v.V)
	if len(edges) == 0 {
		return
	}
	ghosts := q.Ghosts()
	for _, t := range edges {
		nd := v.Dist + Weight(v.V, t.Vertex(), s.seed)
		if nd < v.Dist {
			nd = Unreached // saturate instead of wrapping
		}
		if !ghosts.Drop(t, nd) {
			q.PushEdge(t, Visitor{V: t.Vertex(), Dist: nd, Parent: v.V})
		}
	}
}

// Bucket implements core.BucketAlgorithm: delta-stepping's bucket index.
// Draining in ⌊Dist/Delta⌋ order is enough for the label-correcting
// relaxation to converge with near-Dijkstra work.
func (s *SSSP) Bucket(v Visitor) uint64 { return v.Dist / Delta }

// Encode appends the 24-byte wire form. Distances stay well below 2^40 at
// any simulated scale, so the parent shares the word's high bits safely —
// but we keep the simple 3-word layout for clarity.
func (s *SSSP) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.V))
	buf = binary.LittleEndian.AppendUint64(buf, v.Dist)
	return binary.LittleEndian.AppendUint64(buf, uint64(v.Parent))
}

// Decode parses one visitor record.
func (s *SSSP) Decode(buf []byte) Visitor {
	return Visitor{
		V:      graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		Dist:   binary.LittleEndian.Uint64(buf[8:]),
		Parent: graph.Vertex(binary.LittleEndian.Uint64(buf[16:])),
	}
}
