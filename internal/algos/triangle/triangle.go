// Package triangle implements triangle counting as a visitor over the
// distributed asynchronous visitor queue (paper §VI-C, Algorithms 6 and 7).
// Each visitor performs one of three duties: first visit (fan out to larger
// neighbors), length-2 path visit (extend wedges to larger endpoints), and
// the search for the closing edge of the length-3 cycle. Visiting triangle
// vertices in increasing identifier order ensures each triangle is counted
// exactly once, at its largest vertex. Triangle counting requires precise
// adjacency membership tests, so it cannot use ghosts.
package triangle

import (
	"encoding/binary"

	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// Visitor carries a partial triangle: Second and Third are ∞ (graph.Nil)
// until filled by earlier duties (Algorithm 6 state).
type Visitor struct {
	V      graph.Vertex
	Second graph.Vertex
	Third  graph.Vertex
}

// Vertex returns the visitor's target.
func (v Visitor) Vertex() graph.Vertex { return v.V }

// Triangle is one rank's algorithm state: per-row triangle counters.
// Counters are plain local tallies (a split vertex's closing edges are
// distributed over its replicas; the global sum is exact).
type Triangle struct {
	part  *partition.Part
	opts  Options
	Count []uint64
}

var _ core.Algorithm[Visitor] = (*Triangle)(nil)

// New initializes the counters to zero (Algorithm 7 lines 3–5). The zero
// Options count every triangle exactly.
func New(part *partition.Part, opts Options) *Triangle {
	return &Triangle{part: part, opts: opts, Count: make([]uint64, part.StateLen)}
}

// Seed pushes the traversal's initial visitors: one first-visit visitor per
// (subset-member) vertex this rank masters (Algorithm 7). The graph must be
// stored undirected (both directions present); it need not be simple — self
// loops are ignored and duplicate edges count once (each triangle of the
// underlying simple graph is counted exactly once, at its largest vertex).
func (t *Triangle) Seed(q *core.Queue[Visitor]) {
	lo, hi := t.part.Owners.MasterRange(t.part.Rank)
	for v := lo; v < hi; v++ {
		if t.opts.member(graph.Vertex(v)) {
			q.Push(Visitor{V: graph.Vertex(v), Second: graph.Nil, Third: graph.Nil})
		}
	}
}

// LocalCount is this rank's tally after quiescence; the sum over ranks is
// the (sampled) triangle count.
func (t *Triangle) LocalCount() uint64 {
	var local uint64
	for _, c := range t.Count {
		local += c
	}
	return local
}

// PreVisit always proceeds (Algorithm 6 lines 4–6): every duty must run.
func (t *Triangle) PreVisit(v Visitor) bool {
	_, ok := t.part.LocalIndex(v.V)
	return ok
}

// dupOfPrevTail reports whether target w of vertex v's local row portion is
// a continuation of a duplicate run that started on the previous holder of
// the (split) row — that holder already acted on the edge (v, w).
func (t *Triangle) dupOfPrevTail(v, w graph.Vertex) bool {
	return t.part.PrevTailValid && t.part.PrevTail.Src == v && t.part.PrevTail.Dst == w
}

// forDistinctLarger calls fn once per *distinct* neighbor of v greater than
// v in the locally stored row portion. Rows are sorted by target, so
// duplicate edges form adjacent runs — skipped here — and a run straddling
// the boundary from the previous replica's portion is skipped via PrevTail.
// Self loops fail the vi > v test. This is what keeps triangle counting
// exact on multigraphs: each wedge is generated once per distinct edge, not
// once per stored copy.
func (t *Triangle) forDistinctLarger(v graph.Vertex, row []csr.Target, fn func(csr.Target)) {
	prev, havePrev := graph.Vertex(0), false
	if t.part.PrevTailValid && t.part.PrevTail.Src == v {
		prev, havePrev = t.part.PrevTail.Dst, true
	}
	for _, e := range row {
		vi := e.Vertex()
		if havePrev && vi == prev {
			continue
		}
		prev, havePrev = vi, true
		if vi > v {
			fn(e)
		}
	}
}

// countsClosing reports whether this holder counts the closing edge (v, w):
// present in the local row portion, and not already counted by the previous
// holder of a split row whose portion ends with the same edge.
func (t *Triangle) countsClosing(v, w graph.Vertex, row int) bool {
	return t.part.CSR.HasTarget(row, w) && !t.dupOfPrevTail(v, w)
}

// Visit performs the three duties (Algorithm 6 lines 7–27), with the
// Options' subset filter on fan-out and wedge sampling on the closing-edge
// search.
func (t *Triangle) Visit(v Visitor, q *core.Queue[Visitor]) {
	switch {
	case v.Second == graph.Nil: // first visit
		t.forDistinctLarger(v.V, q.OutEdges(v.V), func(e csr.Target) {
			if vi := e.Vertex(); t.opts.member(vi) {
				q.PushEdge(e, Visitor{V: vi, Second: v.V, Third: graph.Nil})
			}
		})
	case v.Third == graph.Nil: // length-2 path visit
		t.forDistinctLarger(v.V, q.OutEdges(v.V), func(e csr.Target) {
			if vi := e.Vertex(); t.opts.member(vi) && t.opts.sampleWedge(v.Second, v.V, vi) {
				q.PushEdge(e, Visitor{V: vi, Second: v.V, Third: v.Second})
			}
		})
	default: // search for closing edge of the length-3 cycle
		row := q.LocalRow(v.V)
		if t.countsClosing(v.V, v.Third, row) {
			t.Count[row]++
		}
	}
}

// Encode appends the 24-byte wire form.
func (t *Triangle) Encode(v Visitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.V))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Second))
	return binary.LittleEndian.AppendUint64(buf, uint64(v.Third))
}

// Decode parses one visitor record.
func (t *Triangle) Decode(buf []byte) Visitor {
	return Visitor{
		V:      graph.Vertex(binary.LittleEndian.Uint64(buf[0:])),
		Second: graph.Vertex(binary.LittleEndian.Uint64(buf[8:])),
		Third:  graph.Vertex(binary.LittleEndian.Uint64(buf[16:])),
	}
}
