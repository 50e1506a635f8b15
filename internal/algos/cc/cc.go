// Package cc implements connected components as a visitor over the
// distributed asynchronous visitor queue: asynchronous label propagation
// where every vertex starts with its own identifier and adopts the minimum
// label seen, flooding improvements to its neighbors. Connected components
// is the third kernel of the authors' original asynchronous framework
// (§IV-A, reference [4]).
//
// A query does not flood the whole graph. The engine's cc runner first marks
// the hub's component — the giant component of a scale-free graph — with a
// direction-optimizing BFS and labels it with its minimum id, then seeds
// label propagation only at the vertices the marking did not reach (and not
// at those of degree 0, which label themselves). Label propagation runs over
// the whole graph only when a query resumes from a checkpoint.
//
// Labels improve monotonically (minimum), so CC uses the queue's ghost
// filter: a stale ghost copy can only fail to filter, never lose a better
// label.
package cc

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// Visitor carries a candidate component label to a vertex.
type Visitor struct {
	V     graph.Vertex
	Label graph.Vertex
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// CC is one rank's algorithm state: the current minimum label of every
// locally held vertex (graph.Nil until first visited).
type CC struct {
	part  *partition.Part
	Label []graph.Vertex
}

// New initializes CC state with unassigned (∞) labels.
func New(part *partition.Part) *CC {
	c := &CC{part: part, Label: make([]graph.Vertex, part.StateLen)}
	for i := range c.Label {
		c.Label[i] = graph.Nil
	}
	return c
}

// PreVisit admits the visitor iff it improves (lowers) the current label.
func (c *CC) PreVisit(v Visitor) bool {
	i, ok := c.part.LocalIndex(v.V)
	if !ok {
		return false
	}
	if v.Label < c.Label[i] {
		c.Label[i] = v.Label
		return true
	}
	return false
}

// Visit floods the improved label to the locally stored neighbors whose
// ghost, if they have one, has not yet passed a label as low.
func (c *CC) Visit(v Visitor, q *core.Queue[Visitor]) {
	i := q.LocalRow(v.V)
	if v.Label != c.Label[i] {
		return
	}
	edges := q.OutEdges(v.V)
	if len(edges) == 0 {
		return
	}
	ghosts := q.Ghosts()
	for _, t := range edges {
		if !ghosts.Drop(t, uint64(v.Label)) {
			q.PushEdge(t, Visitor{V: t.Vertex(), Label: v.Label})
		}
	}
}

// Encode appends the 16-byte wire form.
func (c *CC) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.V))
	return binary.LittleEndian.AppendUint64(buf, uint64(v.Label))
}

// Decode parses one visitor record.
func (c *CC) Decode(buf []byte) Visitor {
	return Visitor{
		V:     graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		Label: graph.Vertex(binary.LittleEndian.Uint64(buf[8:])),
	}
}
