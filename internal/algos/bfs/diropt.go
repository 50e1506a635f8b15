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
// interleave it with other traversals. Levels are the rounds of a
// core.RoundExchange: per level, each rank sends exactly one level message to
// every peer (its local contribution to the next frontier) and advances when
// all p-1 peer contributions for that level have arrived; because every rank
// merges identical data, the direction decision is deterministic and
// identical everywhere without a barrier or reduction.
//
// Parent assignment never needs its own scan: when a vertex joins the
// frontier, its master finds a previous-level neighbor in its own row
// portion (undirected storage guarantees the reverse edge exists somewhere
// in the row); for split hub vertices whose master portion happens to lack
// one, the replica holding that portion sends a rare parent-candidate
// message.
//
// Out of core, a row the scan or the parent search would read from absent
// pages parks on its page, as a visitor does (core.Parking), and is read when
// the page arrives. A level's contribution goes out only once nothing is
// parked, so the parent search ends before the next merge retires its level.
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

// DO message kinds (first payload byte). Kind 1 carried the degree table
// before the partition build replicated it; it is retired, not reused.
const (
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

	visited      core.Bitmap
	frontier     core.Bitmap
	prevFrontier core.Bitmap // the just-retired frontier (parent level)
	contrib      core.Bitmap // this rank's next-frontier contribution

	Level  []uint32       // per local state index; Unreached = ∞
	Parent []graph.Vertex // per local state index; graph.Nil = none

	level   uint32 // depth of the current frontier
	mode    doMode
	scanned bool   // every row of the level's scan read or parked
	sent    bool   // contribution for level+1 scanned and sent
	done    bool   // merged an empty frontier
	uEdges  uint64 // Σ deg over unvisited vertices (identical on all ranks)

	// levels exchanges the contributions, round L being level L's frontier.
	levels *core.RoundExchange[core.Bitmap]

	scratch []byte

	// Out of core, the rows waiting on their pages: Unpark reads those of a
	// pager Drain batch.
	core.Parking[doRow]

	// TopDownLevels/BottomUpLevels count levels executed in each mode — the
	// ablation evidence bench-algos records next to the speedup.
	TopDownLevels, BottomUpLevels int
}

// doRow is a parked row: a local state, and whether the parent search reads
// it rather than the level's scan.
type doRow struct {
	i      int32
	parent bool
}

// NewDO builds the state machine, ready to scan level 0 from source. send
// transmits one protocol payload to a peer rank (never to self); pager is
// nil when the adjacency is resident. On a graph with no vertices there is
// no source, and the traversal ends at its first merge.
func NewDO(part *partition.Part, source graph.Vertex, send func(dest int, payload []byte), pager core.RowPager) *DO {
	d := &DO{
		part:         part,
		n:            part.NumVertices,
		p:            part.P,
		send:         send,
		visited:      core.NewBitmap(part.NumVertices),
		frontier:     core.NewBitmap(part.NumVertices),
		prevFrontier: core.NewBitmap(part.NumVertices),
		contrib:      core.NewBitmap(part.NumVertices),
		Level:        make([]uint32, part.StateLen),
		Parent:       make([]graph.Vertex, part.StateLen),
		levels:       core.NewRoundExchange(part.P, part.Rank, 1, core.NewBitmap(part.NumVertices), core.NewBitmap(part.NumVertices)),
	}
	d.Parking = core.NewParking(pager, d.runRow)
	for i := range d.Level {
		d.Level[i] = Unreached
		d.Parent[i] = graph.Nil
	}
	if uint64(source) < d.n {
		d.visited.Set(uint64(source))
		d.frontier.Set(uint64(source))
		if i, ok := part.LocalIndex(source); ok {
			d.Level[i] = 0
			d.Parent[i] = source
		}
		d.uEdges = part.GlobalEdges - part.GlobalDegree(source)
	}
	return d
}

// sumDeg returns Σ degree over the set bits of bm from the partition's
// replicated degree table (global, replicated inputs ⇒ identical on every
// rank).
func (d *DO) sumDeg(bm core.Bitmap) uint64 {
	var sum uint64
	for wi, w := range bm.Words() {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			sum += uint64(d.part.Degrees[uint64(wi)<<6+uint64(b)])
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
	case doKindLevel:
		if len(payload) < core.RoundHeader+4 {
			return
		}
		acc, body, ok := d.levels.Accept(payload)
		if !ok {
			return
		}
		nw := int(binary.LittleEndian.Uint32(body))
		rest := body[4:]
		words := acc.Words()
		for i := 0; i < nw && (i+1)*12 <= len(rest); i++ {
			idx := binary.LittleEndian.Uint32(rest[i*12:])
			word := binary.LittleEndian.Uint64(rest[i*12+4:])
			if uint64(idx) < uint64(len(words)) {
				acc.OrWord(idx, word)
			}
		}
		// Bits at or beyond n name no vertex (and no degree table entry).
		if tail := d.n & 63; tail != 0 {
			words[len(words)-1] &= 1<<tail - 1
		}
	case doKindParent:
		if len(payload) < 17 {
			return
		}
		t := graph.Vertex(binary.LittleEndian.Uint64(payload[1:]))
		pv := graph.Vertex(binary.LittleEndian.Uint64(payload[9:]))
		if i, ok := d.part.LocalIndex(t); ok && d.Parent[i] == graph.Nil && uint64(pv) < d.n {
			d.Parent[i] = pv
		}
	}
}

// TryAdvance performs whatever phase transition is possible — scanning and
// broadcasting this rank's contribution for the next level, or merging a
// completed level — and reports whether anything happened.
func (d *DO) TryAdvance() bool {
	if d.done {
		return false
	}
	if !d.sent {
		return d.scanAndSend()
	}
	newly, ok := d.levels.Ready()
	if !ok {
		return false
	}
	d.merge(*newly)
	return true
}

// Idle reports whether this rank has no local transition to make (waiting on
// peers, or finished). A level with rows parked is not idle: its
// contribution is still to be sent.
func (d *DO) Idle() bool {
	if d.done {
		return true
	}
	_, ready := d.levels.Ready()
	return d.sent && !ready
}

// Done reports whether the traversal has finished on this rank.
func (d *DO) Done() bool { return d.done }

// Visited returns the replicated set of reached vertices. When the traversal
// has run to its end, it is the source's whole component, the same on every
// rank.
func (d *DO) Visited() core.Bitmap { return d.visited }

// scanAndSend computes this rank's contribution to the next frontier from
// its locally stored row portions — pushing frontier rows top-down, or
// probing unvisited rows for a frontier neighbor bottom-up — parking the rows
// whose pages are absent, then broadcasts the sparse contribution and
// self-merges it once nothing is parked. It reports whether it did anything:
// a scan waiting on pages has nothing to do until Unpark.
func (d *DO) scanAndSend() bool {
	progress := !d.scanned
	if !d.scanned {
		d.contrib.Clear()
		rows, unvisited := d.frontier, d.mode == modeBottomUp
		if unvisited {
			rows = d.visited
			d.BottomUpLevels++
		} else {
			d.TopDownLevels++
		}
		d.forLocalRows(rows, unvisited, func(i int, _ graph.Vertex) {
			if !d.Parking.Absent(i, doRow{i: int32(i)}) {
				d.scanRow(i)
			}
		})
		d.Parking.Park()
		d.scanned = true
	}
	if d.Parking.Len() > 0 {
		return progress
	}

	// Serialize the nonzero words and broadcast.
	buf := d.scratch[:0]
	buf = core.AppendRoundHeader(buf, doKindLevel, d.part.Rank, d.level+1)
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

	acc := d.levels.Acc(d.level + 1)
	for wi, w := range d.contrib.Words() {
		if w != 0 {
			acc.OrWord(uint32(wi), w)
		}
	}
	d.levels.Contribute()
	d.sent = true
	return true
}

// scanRow reads row i for the level's scan: top-down, every unvisited
// target joins the contribution; bottom-up, the row's vertex joins it when
// one target is in the frontier.
func (d *DO) scanRow(i int) {
	if d.mode == modeTopDown {
		for _, e := range d.part.CSR.Row(i) {
			if t := uint64(e.Vertex()); !d.visited.Get(t) {
				d.contrib.Set(t)
			}
		}
		return
	}
	for _, t := range d.part.CSR.Row(i) {
		if d.frontier.Get(uint64(t.Vertex())) {
			d.contrib.Set(uint64(d.part.StateStart) + uint64(i))
			return // one frontier neighbor suffices
		}
	}
}

// runRow reads a row that was parked on its page.
func (d *DO) runRow(r doRow) {
	if r.parent {
		d.findParent(int(r.i))
	} else {
		d.scanRow(int(r.i))
	}
}

// merge folds the completed level: the union of all contributions becomes
// the next frontier, newly visited masters get levels and parents, replica
// holders send parent candidates for split vertices, and the direction for
// the next scan is decided from the replicated edge counts.
func (d *DO) merge(newly core.Bitmap) {
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
	newly.Clear()
	d.levels.Advance()

	// Levels for every locally held newly visited vertex (replicas too, as
	// in the visitor-queue BFS); parents are resolved against the retired
	// frontier (the parent level) in finishParents.
	d.forLocalRows(d.frontier, false, func(i int, v graph.Vertex) {
		d.Level[i] = d.level
	})
	d.finishParents(d.frontier)

	// Direction decision from replicated data — identical on every rank.
	fEdges := d.sumDeg(d.frontier)
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
	d.scanned, d.sent = false, false
}

// finishParents assigns parents for newly visited local vertices and emits
// parent candidates from replica holders of split vertices, parking the rows
// whose pages are absent.
func (d *DO) finishParents(newly core.Bitmap) {
	d.forLocalRows(newly, false, func(i int, v graph.Vertex) {
		if d.Parent[i] == graph.Nil && !d.Parking.Absent(i, doRow{i: int32(i), parent: true}) {
			d.findParent(i)
		}
	})
	d.Parking.Park()
}

// findParent reads row i for a neighbor in the parent level: a master takes
// it as the parent, and a replica holder of a split vertex offers it to the
// vertex's master, whose portion may lack one.
func (d *DO) findParent(i int) {
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
	v := d.part.Vertex(i)
	if d.part.IsMaster(v) {
		d.Parent[i] = found
		return
	}
	buf := d.scratch[:0]
	buf = append(buf, doKindParent)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(found))
	d.scratch = buf
	d.send(d.part.Master(v), buf)
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
