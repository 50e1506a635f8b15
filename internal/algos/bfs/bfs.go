// Package bfs implements breadth-first search as a visitor over the
// distributed asynchronous visitor queue (paper §VI-A, Algorithms 2 and 3).
// BFS is the Graph500 kernel: levels spread from a source, each visitor
// carrying a candidate path length, with pre_visit admitting only visitors
// that improve the vertex's current length. BFS uses the queue's ghost
// filter: the ghost copy of a hub's level acts as an imprecise local filter
// that suppresses redundant visitors to high in-degree vertices (§IV-B).
package bfs

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// Unreached is the level of vertices not reached by the traversal (∞).
const Unreached = ^uint32(0)

// Visitor carries a candidate BFS length to a vertex (Algorithm 2 state).
type Visitor struct {
	V      graph.Vertex
	Length uint32
	Parent graph.Vertex
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// BFS is one rank's algorithm state: the level and parent of every locally
// held vertex (master and replica rows).
type BFS struct {
	part *partition.Part

	Level  []uint32
	Parent []graph.Vertex
}

var _ core.BucketAlgorithm[Visitor] = (*BFS)(nil)

// New initializes BFS state over the partition: every vertex at length ∞
// (Algorithm 3 lines 4–7).
func New(part *partition.Part) *BFS {
	b := &BFS{
		part:   part,
		Level:  make([]uint32, part.StateLen),
		Parent: make([]graph.Vertex, part.StateLen),
	}
	for i := range b.Level {
		b.Level[i] = Unreached
		b.Parent[i] = graph.Nil
	}
	return b
}

// PreVisit admits the visitor iff it improves the vertex's current length,
// recording the new length and parent (Algorithm 2 lines 4–11).
func (b *BFS) PreVisit(v Visitor) bool {
	i, ok := b.part.LocalIndex(v.V)
	if !ok {
		return false
	}
	if v.Length < b.Level[i] {
		b.Level[i] = v.Length
		b.Parent[i] = v.Parent
		return true
	}
	return false
}

// Visit expands the frontier: if this visitor still holds the vertex's
// current length, push a visitor for every (locally stored) out-edge
// (Algorithm 2 lines 12–19) whose ghost, if it has one, has not yet passed
// a length as short.
func (b *BFS) Visit(v Visitor, q *core.Queue[Visitor]) {
	i := q.LocalRow(v.V)
	if v.Length != b.Level[i] {
		return
	}
	edges := q.OutEdges(v.V)
	if len(edges) == 0 {
		return
	}
	next, ghosts := v.Length+1, q.Ghosts()
	for _, t := range edges {
		if !ghosts.Drop(t, uint64(next)) {
			q.PushEdge(t, Visitor{V: t.Vertex(), Length: next, Parent: v.V})
		}
	}
}

// Summary folds a global level array into the traversal's reached-vertex
// count and depth (the deepest finite level).
func Summary(levels []uint32) (reached uint64, depth uint32) {
	for _, l := range levels {
		if l != Unreached {
			reached++
			depth = max(depth, l)
		}
	}
	return reached, depth
}

// Bucket implements core.BucketAlgorithm: the local queue is ordered by
// length (Algorithm 2 lines 20–22), one FIFO per level.
func (b *BFS) Bucket(v Visitor) uint64 { return uint64(v.Length) }

// Encode appends the 20-byte wire form.
func (b *BFS) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.V))
	buf = binary.LittleEndian.AppendUint32(buf, v.Length)
	return binary.LittleEndian.AppendUint64(buf, uint64(v.Parent))
}

// Decode parses one visitor record.
func (b *BFS) Decode(buf []byte) Visitor {
	return Visitor{
		V:      graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		Length: binary.LittleEndian.Uint32(buf[8:]),
		Parent: graph.Vertex(binary.LittleEndian.Uint64(buf[12:])),
	}
}
