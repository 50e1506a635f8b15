// Direction-optimizing BFS (Beamer's hybrid, DESIGN.md §14): level-
// synchronous traversal that switches between top-down frontier expansion
// and bottom-up unvisited scans, driven by the frontier-vs-unvisited
// edge-count heuristic. Unlike the visitor-queue BFS (bfs.go), levels are
// dense replicated bitmaps: each rank scans its locally stored row portions
// and exchanges one sparse word-list delta per peer per level, so bottom-up
// phases touch no per-vertex visitor records at all.
//
// The protocol is collective-free — it runs on the same tagged mailbox and
// termination detector as every other query, so the multi-query engine can
// interleave it with other traversals. Per level, each rank sends exactly one
// level message to every peer (its local contribution to the next frontier)
// and advances when all p-1 peer contributions for that level have arrived;
// because every rank merges identical data, the direction decision is
// deterministic and identical everywhere without a barrier or reduction.
//
// Parent assignment never needs its own scan: when a vertex joins the
// frontier, its master finds a previous-level neighbor in its own row
// portion (undirected storage guarantees the reverse edge exists somewhere
// in the row); for split hub vertices whose master portion happens to lack
// one, the replica holding that portion sends a rare parent-candidate
// message.
package bfs

import (
	"encoding/binary"
	"math/bits"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
)

// Beamer's switching thresholds: go bottom-up when the frontier's edges
// exceed 1/Alpha of the edges incident to unvisited vertices; return
// top-down when the frontier shrinks below 1/Beta of all vertices.
const (
	Alpha = 14
	Beta  = 24
)

// DO message kinds (first payload byte).
const (
	doKindDeg    = 1 // replicated degree table fragment (master range)
	doKindLevel  = 2 // sparse next-frontier contribution for one level
	doKindParent = 3 // parent candidate for a split vertex's master
)

// DOKindMax is the highest first byte a DO payload carries. A runner that
// sends records of its own under the same tag as a DO starts them with a
// byte above it, so that each record says which stream it belongs to.
const DOKindMax = doKindParent

type doMode uint8

const (
	modeTopDown doMode = iota
	modeBottomUp
)

// RowHinter receives prefetch hints for rows the bottom-up scan is about to
// read; the engine passes its out-of-core pager (ooc.Pager) so unvisited row
// scans overlap device fetches instead of faulting serially. It is the one
// source of prefetch hints: top-down visitor queues fetch on demand only.
type RowHinter interface{ PrefetchRow(row int) }

// DO is one rank's direction-optimizing BFS state machine. Drive it with
// Handle (one delivered payload) and TryAdvance (scan/merge when possible);
// it reports completion via Done. Sends go through the injected send
// function: the engine's runner stamps them with the query's tag on the
// rank's shared mailbox.
type DO struct {
	part *partition.Part
	n    uint64
	p    int
	send func(dest int, payload []byte)
	hint RowHinter // optional pager prefetch hints

	source graph.Vertex // graph.Nil until the hub is chosen (NewDO)

	deg     []uint32 // replicated global degrees (u32: plenty at any simulated scale)
	degSeen []bool
	degLeft int

	visited      core.Bitmap
	frontier     core.Bitmap
	prevFrontier core.Bitmap // the just-retired frontier (parent level)
	contrib      core.Bitmap // this rank's next-frontier contribution

	Level  []uint32       // per local state index; Unreached = ∞
	Parent []graph.Vertex // per local state index; graph.Nil = none

	level  uint32 // depth of the current frontier
	mode   doMode
	sent   bool   // contribution for level+1 scanned and sent
	done   bool   // merged an empty frontier (or cancelled)
	uEdges uint64 // Σ deg over unvisited vertices (identical on all ranks)

	pending map[uint32]*doLevelAcc

	scratch []byte

	// TopDownLevels/BottomUpLevels count levels executed in each mode — the
	// ablation evidence bench-algos records next to the speedup.
	TopDownLevels, BottomUpLevels int
}

// doLevelAcc accumulates peer contributions for one level.
type doLevelAcc struct {
	seen []bool
	left int
	bits core.Bitmap
}

// NewDO builds the state machine. send transmits one protocol payload to a
// peer rank (never to self). hint may be nil. A source of graph.Nil starts
// the traversal from the hub — the vertex of highest global degree, lowest id
// on ties — which every rank reads off the same replicated degree table once
// the table is complete, so the choice costs no message of its own.
func NewDO(part *partition.Part, source graph.Vertex, send func(dest int, payload []byte), hint RowHinter) *DO {
	d := &DO{
		part:         part,
		n:            part.NumVertices,
		p:            part.P,
		send:         send,
		hint:         hint,
		source:       source,
		deg:          make([]uint32, part.NumVertices),
		degSeen:      make([]bool, part.P),
		degLeft:      part.P,
		visited:      core.NewBitmap(part.NumVertices),
		frontier:     core.NewBitmap(part.NumVertices),
		prevFrontier: core.NewBitmap(part.NumVertices),
		contrib:      core.NewBitmap(part.NumVertices),
		Level:        make([]uint32, part.StateLen),
		Parent:       make([]graph.Vertex, part.StateLen),
		pending:      make(map[uint32]*doLevelAcc),
	}
	for i := range d.Level {
		d.Level[i] = Unreached
		d.Parent[i] = graph.Nil
	}
	if source != graph.Nil {
		d.setSource()
	}
	return d
}

// setSource makes d.source the visited level-0 frontier.
func (d *DO) setSource() {
	d.visited.Set(uint64(d.source))
	d.frontier.Set(uint64(d.source))
	if i, ok := d.part.LocalIndex(d.source); ok {
		d.Level[i] = 0
		d.Parent[i] = d.source
	}
}

// hub returns the vertex of highest degree in the replicated table, lowest
// id on ties.
func (d *DO) hub() graph.Vertex {
	var best graph.Vertex
	for v, g := range d.deg {
		if g > d.deg[best] {
			best = graph.Vertex(v)
		}
	}
	return best
}

// Start broadcasts this rank's degree-table fragment and merges its own.
// The degree table replicates once per traversal so the edge-count heuristic
// (and uEdges bookkeeping) is computable locally and identically everywhere.
func (d *DO) Start() {
	lo, hi := d.part.Owners.MasterRange(d.part.Rank)
	buf := d.scratch[:0]
	buf = append(buf, doKindDeg)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.part.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-lo))
	for v := lo; v < hi; v++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.part.GlobalDegree(graph.Vertex(v))))
	}
	d.scratch = buf
	for r := 0; r < d.p; r++ {
		if r != d.part.Rank {
			d.send(r, buf)
		}
	}
	d.mergeDeg(d.part.Rank, lo, buf[9:])
}

func (d *DO) mergeDeg(src int, lo uint64, packed []byte) {
	if d.degSeen[src] {
		return
	}
	d.degSeen[src] = true
	d.degLeft--
	for i := 0; i*4+4 <= len(packed); i++ {
		d.deg[lo+uint64(i)] = binary.LittleEndian.Uint32(packed[i*4:])
	}
	if d.degLeft == 0 {
		if d.source == graph.Nil && d.n > 0 {
			d.source = d.hub()
			d.setSource()
		}
		for _, g := range d.deg {
			d.uEdges += uint64(g)
		}
		d.uEdges -= d.sumDeg(d.frontier) // the source is already visited
	}
}

// sumDeg returns Σ deg over the set bits of bm (global, replicated inputs ⇒
// identical on every rank).
func (d *DO) sumDeg(bm core.Bitmap) uint64 {
	var sum uint64
	for wi, w := range bm.Words() {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			sum += uint64(d.deg[uint64(wi)<<6+uint64(b)])
		}
	}
	return sum
}

// Handle applies one delivered protocol payload.
func (d *DO) Handle(payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case doKindDeg:
		if len(payload) < 9 {
			return
		}
		src := int(binary.LittleEndian.Uint32(payload[1:]))
		if src < 0 || src >= d.p {
			return
		}
		lo, _ := d.part.Owners.MasterRange(src)
		d.mergeDeg(src, lo, payload[9:])
	case doKindLevel:
		if len(payload) < 13 {
			return
		}
		src := int(binary.LittleEndian.Uint32(payload[1:]))
		level := binary.LittleEndian.Uint32(payload[5:])
		nw := int(binary.LittleEndian.Uint32(payload[9:]))
		if src < 0 || src >= d.p {
			return
		}
		acc := d.levelAcc(level)
		if acc.seen[src] {
			return
		}
		acc.seen[src] = true
		acc.left--
		rest := payload[13:]
		for i := 0; i < nw && (i+1)*12 <= len(rest); i++ {
			idx := binary.LittleEndian.Uint32(rest[i*12:])
			word := binary.LittleEndian.Uint64(rest[i*12+4:])
			if uint64(idx) < uint64(len(acc.bits.Words())) {
				acc.bits.OrWord(idx, word)
			}
		}
	case doKindParent:
		if len(payload) < 17 {
			return
		}
		t := graph.Vertex(binary.LittleEndian.Uint64(payload[1:]))
		pv := graph.Vertex(binary.LittleEndian.Uint64(payload[9:]))
		if i, ok := d.part.LocalIndex(t); ok && d.Parent[i] == graph.Nil {
			d.Parent[i] = pv
		}
	}
}

func (d *DO) levelAcc(level uint32) *doLevelAcc {
	acc, ok := d.pending[level]
	if !ok {
		acc = &doLevelAcc{seen: make([]bool, d.p), left: d.p, bits: core.NewBitmap(d.n)}
		d.pending[level] = acc
	}
	return acc
}

// TryAdvance performs whatever phase transition is possible — scanning and
// broadcasting this rank's contribution for the next level, or merging a
// completed level — and reports whether anything happened.
func (d *DO) TryAdvance() bool {
	if d.done || d.degLeft > 0 {
		return false
	}
	if !d.sent {
		d.scanAndSend()
		return true
	}
	acc, ok := d.pending[d.level+1]
	if !ok || acc.left > 0 {
		return false
	}
	d.merge(acc)
	return true
}

// Idle reports whether this rank has no local transition to make (waiting on
// peers, or finished).
func (d *DO) Idle() bool {
	if d.done {
		return true
	}
	if d.degLeft > 0 {
		return true // waiting on degree fragments already in flight
	}
	if !d.sent {
		return false
	}
	acc, ok := d.pending[d.level+1]
	return !ok || acc.left > 0
}

// Done reports whether the traversal has finished on this rank.
func (d *DO) Done() bool { return d.done }

// Visited returns the replicated set of reached vertices. When the traversal
// has run to its end, it is the source's whole component, the same on every
// rank.
func (d *DO) Visited() core.Bitmap { return d.visited }

// Abort marks the machine done and drops buffered state (engine Cancel).
func (d *DO) Abort() {
	d.done = true
	clear(d.pending)
}

// scanAndSend computes this rank's contribution to the next frontier from
// its locally stored row portions — pushing frontier rows top-down, or
// probing unvisited rows for a frontier neighbor bottom-up — then broadcasts
// the sparse contribution and self-merges it.
func (d *DO) scanAndSend() {
	d.contrib.Clear()
	if d.mode == modeTopDown {
		d.TopDownLevels++
		d.forLocalRows(d.frontier, false, func(i int, v graph.Vertex) {
			for _, e := range d.part.CSR.Row(i) {
				if t := uint64(e.Vertex()); !d.visited.Get(t) {
					d.contrib.Set(t)
				}
			}
		})
	} else {
		d.BottomUpLevels++
		if d.hint != nil {
			// Hint the pager across the unvisited rows this scan will read so
			// the fetches overlap the scan instead of faulting one by one.
			d.forLocalRows(d.visited, true, func(i int, v graph.Vertex) {
				d.hint.PrefetchRow(i)
			})
		}
		d.forLocalRows(d.visited, true, func(i int, v graph.Vertex) {
			for _, t := range d.part.CSR.Row(i) {
				if d.frontier.Get(uint64(t.Vertex())) {
					d.contrib.Set(uint64(v))
					break // one frontier neighbor suffices
				}
			}
		})
	}

	// Serialize the nonzero words and broadcast.
	buf := d.scratch[:0]
	buf = append(buf, doKindLevel)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.part.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, d.level+1)
	nwAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	var nw uint32
	for wi, w := range d.contrib.Words() {
		if w != 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(wi))
			buf = binary.LittleEndian.AppendUint64(buf, w)
			nw++
		}
	}
	binary.LittleEndian.PutUint32(buf[nwAt:], nw)
	d.scratch = buf
	for r := 0; r < d.p; r++ {
		if r != d.part.Rank {
			d.send(r, buf)
		}
	}

	acc := d.levelAcc(d.level + 1)
	if !acc.seen[d.part.Rank] {
		acc.seen[d.part.Rank] = true
		acc.left--
		for wi, w := range d.contrib.Words() {
			if w != 0 {
				acc.bits.OrWord(uint32(wi), w)
			}
		}
	}
	d.sent = true
}

// merge folds the completed level: the union of all contributions becomes
// the next frontier, newly visited masters get levels and parents, replica
// holders send parent candidates for split vertices, and the direction for
// the next scan is decided from the replicated edge counts.
func (d *DO) merge(acc *doLevelAcc) {
	delete(d.pending, d.level+1)
	newly := acc.bits
	// A contribution may include vertices another rank reached at an earlier
	// level only if scans raced ahead — impossible here (contributions only
	// name unvisited-at-scan-time vertices and scans run level-synchronously)
	// — but mask against visited anyway so a corrupted-but-CRC-valid word
	// cannot resurrect a finished vertex.
	for wi := range newly.Words() {
		newly.Words()[wi] &^= d.visited.Words()[wi]
	}

	var fVerts uint64
	for _, w := range newly.Words() {
		fVerts += uint64(bits.OnesCount64(w))
	}
	if fVerts == 0 {
		d.done = true
		return
	}

	d.level++
	d.prevFrontier.CopyFrom(d.frontier)
	for wi, w := range newly.Words() {
		d.visited.OrWord(uint32(wi), w)
	}
	d.frontier.CopyFrom(newly)

	// Levels for every locally held newly visited vertex (replicas too, as
	// in the visitor-queue BFS); parents are resolved against the retired
	// frontier (the parent level) in finishParents.
	d.forLocalRows(newly, false, func(i int, v graph.Vertex) {
		d.Level[i] = d.level
	})
	d.finishParents(newly)

	// Direction decision from replicated data — identical on every rank.
	fEdges := d.sumDeg(newly)
	d.uEdges -= fEdges
	switch d.mode {
	case modeTopDown:
		if fEdges > d.uEdges/Alpha {
			d.mode = modeBottomUp
		}
	case modeBottomUp:
		if fVerts < d.n/Beta {
			d.mode = modeTopDown
		}
	}
	d.sent = false
}

// finishParents assigns parents for newly visited local vertices and emits
// parent candidates from replica holders of split vertices.
func (d *DO) finishParents(newly core.Bitmap) {
	d.forLocalRows(newly, false, func(i int, v graph.Vertex) {
		if d.Parent[i] != graph.Nil {
			return
		}
		var found graph.Vertex = graph.Nil
		for _, e := range d.part.CSR.Row(i) {
			if t := e.Vertex(); d.prevFrontier.Get(uint64(t)) {
				found = t
				break
			}
		}
		if found == graph.Nil {
			return
		}
		if d.part.IsMaster(v) {
			d.Parent[i] = found
			return
		}
		// Replica holder of a split vertex: the master's portion may lack a
		// previous-level neighbor, so offer ours.
		buf := d.scratch[:0]
		buf = append(buf, doKindParent)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(found))
		d.scratch = buf
		d.send(d.part.Master(v), buf)
	})
}

// forLocalRows iterates the locally stored rows whose vertex's bit in bm is
// set (or clear, when invert), word-wise over the contiguous state range.
func (d *DO) forLocalRows(bm core.Bitmap, invert bool, fn func(i int, v graph.Vertex)) {
	if d.part.StateLen == 0 {
		return
	}
	start := uint64(d.part.StateStart)
	end := start + uint64(d.part.StateLen)
	words := bm.Words()
	for wi := start >> 6; wi <= (end-1)>>6; wi++ {
		w := words[wi]
		if invert {
			w = ^w
		}
		if wi == start>>6 {
			w &= ^uint64(0) << (start & 63)
		}
		if wi == (end-1)>>6 {
			w &= ^uint64(0) >> (63 - ((end - 1) & 63))
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			v := graph.Vertex(wi<<6 + uint64(b))
			fn(int(v-d.part.StateStart), v)
		}
	}
}
