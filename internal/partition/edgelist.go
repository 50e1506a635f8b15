package partition

import (
	"encoding/binary"
	"fmt"
	"sort"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
)

// BuildEdgeList collectively builds the edge-list partitioned graph of
// §III-A1. Every rank passes its share of the (directed) edge list — any
// decomposition works — and the number of vertices; the function:
//
//  1. globally sorts the edge list by (source, target) with a distributed
//     sample sort,
//  2. re-splits the sorted list into p equal-count ranges (the partitioning
//     itself: each rank ends up with |E|/p ± 1 edges, regardless of hubs),
//  3. exchanges boundary metadata to derive the master-ownership table, the
//     replica-forwarding chain for split adjacency lists, and global degrees
//     for boundary vertices,
//  4. builds the local CSR.
//
// Must be called collectively by every rank of the machine.
func BuildEdgeList(r *rt.Rank, local []graph.Edge, numVertices uint64) (*Part, error) {
	return buildEdgeList(r, local, numVertices, false)
}

// BuildEdgeListSimple is BuildEdgeList with global simplification: self
// loops and duplicate edges are removed after the distributed sort. K-core
// and triangle counting require a simple graph; generators like RMAT emit
// duplicates.
func BuildEdgeListSimple(r *rt.Rank, local []graph.Edge, numVertices uint64) (*Part, error) {
	return buildEdgeList(r, local, numVertices, true)
}

func buildEdgeList(r *rt.Rank, local []graph.Edge, numVertices uint64, simplify bool) (*Part, error) {
	if err := checkVertexCount(numVertices); err != nil {
		return nil, err
	}
	local = graph.SortedEdges(local) // the caller's list stays as it was
	if simplify {
		// Drop self loops before the exchange; duplicates fall out after it.
		kept := local[:0]
		for _, e := range local {
			if !e.IsSelfLoop() {
				kept = append(kept, e)
			}
		}
		local = kept
	}
	local = sampleSortExchange(r, local)
	if simplify {
		// After the sample sort all copies of an edge are contiguous on one
		// rank (splitter cuts fall on value boundaries), so local
		// deduplication is globally complete.
		dedup := local[:0]
		for _, e := range local {
			if len(dedup) > 0 && dedup[len(dedup)-1] == e {
				continue
			}
			dedup = append(dedup, e)
		}
		local = dedup
	}
	local = rebalanceEqualCounts(r, local)

	// --- boundary metadata exchange ---
	p := r.Size()
	meta := make([]byte, 25)
	if len(local) > 0 {
		meta[0] = 1
		binary.LittleEndian.PutUint64(meta[1:], uint64(local[0].Src))
		binary.LittleEndian.PutUint64(meta[9:], uint64(local[len(local)-1].Src))
		binary.LittleEndian.PutUint64(meta[17:], uint64(local[len(local)-1].Dst))
	}
	allMeta := r.AllGatherBytes(meta)
	hasEdges := make([]bool, p)
	firstSrc := make([]uint64, p)
	lastSrc := make([]uint64, p)
	lastDst := make([]uint64, p)
	for i, m := range allMeta {
		hasEdges[i] = m[0] == 1
		firstSrc[i] = binary.LittleEndian.Uint64(m[1:])
		lastSrc[i] = binary.LittleEndian.Uint64(m[9:])
		lastDst[i] = binary.LittleEndian.Uint64(m[17:])
		if hasEdges[i] && lastSrc[i] >= numVertices {
			return nil, fmt.Errorf("partition: vertex %d out of range (n=%d)", lastSrc[i], numVertices)
		}
	}

	// Master ownership: sweep left to right handing each rank the vertices
	// from the first not-yet-owned id through its last source. Gaps
	// (isolated vertices) attach to the next rank; the final rank extends
	// to numVertices.
	start := make([]uint64, p+1)
	nextFree := uint64(0)
	for i := 0; i < p; i++ {
		start[i] = nextFree
		if hasEdges[i] && lastSrc[i]+1 > nextFree {
			nextFree = lastSrc[i] + 1
		}
	}
	start[p] = numVertices
	owners, err := NewOwnerTable(start)
	if err != nil {
		return nil, err
	}

	part := &Part{
		Rank:           r.Rank(),
		P:              p,
		NumVertices:    numVertices,
		Owners:         owners,
		BoundaryDegree: make(map[graph.Vertex]uint64),
	}
	part.GlobalEdges = r.AllReduceU64(uint64(len(local)), rt.Sum)

	// State range: the master range, widened to include replica slots for
	// boundary vertices whose adjacency this rank holds a fragment of.
	me := r.Rank()
	lo, hi := start[me], start[me+1] // master range [lo, hi)
	stateLo, stateHi := lo, hi
	if hasEdges[me] {
		if firstSrc[me] < stateLo {
			stateLo = firstSrc[me]
		}
		if lastSrc[me]+1 > stateHi {
			stateHi = lastSrc[me] + 1
		}
	}
	if stateHi < stateLo {
		stateHi = stateLo // empty partition
	}
	part.StateStart = graph.Vertex(stateLo)
	part.StateLen = int(stateHi - stateLo)

	// Replica forwarding: my last vertex's list continues on the next rank
	// (not necessarily rank+1 when empty partitions intervene) iff some
	// later rank's first source equals my last source.
	if hasEdges[me] {
		for j := me + 1; j < p; j++ {
			if !hasEdges[j] {
				continue
			}
			if firstSrc[j] == lastSrc[me] {
				part.HasForward = true
				part.ForwardVertex = graph.Vertex(lastSrc[me])
				part.ForwardTo = j
			}
			break
		}
	}

	// Split-row tail: when my first row continues the previous holder's last
	// row, record that holder's final stored edge. Multigraph-safe kernels
	// use it to deduplicate duplicate-target runs that straddle the replica
	// boundary (targets within a row are globally sorted, so all copies of a
	// duplicate edge are contiguous across the chain's portions).
	if hasEdges[me] {
		for j := me - 1; j >= 0; j-- {
			if !hasEdges[j] {
				continue
			}
			if lastSrc[j] == firstSrc[me] {
				part.PrevTail = graph.Edge{Src: graph.Vertex(lastSrc[j]), Dst: graph.Vertex(lastDst[j])}
				part.PrevTailValid = true
			}
			break
		}
	}

	// Global degrees for boundary vertices: every rank publishes the local
	// degree of its first and last source; summing the records per vertex
	// yields the full degree for any vertex that appears as a boundary
	// anywhere (split vertices appear as a boundary on every rank of their
	// chain).
	part.exchangeBoundaryDegrees(r, local, hasEdges, firstSrc, lastSrc)

	m, err := csr.FromSortedEdges(local, part.StateStart, part.StateLen)
	if err != nil {
		return nil, err
	}
	part.CSR = m
	if err := part.tagTargets(csr.MaxSlots); err != nil {
		return nil, err
	}
	return part, nil
}

// sampleSortExchange redistributes the locally sorted edges so rank r holds
// the r-th range of the global (Src, Dst) order. Standard sample sort:
// evenly spaced local samples, gathered everywhere, define p-1 splitters.
// Every sender's samples and every sender's slice of its list arrive sorted,
// so both are merged as p sorted runs (mergeEdgeRuns), never sorted again:
// the build's one full-size sort is the local one before the exchange.
func sampleSortExchange(r *rt.Rank, local []graph.Edge) []graph.Edge {
	p := r.Size()
	if p == 1 {
		return local
	}
	// Oversample for balance; the follow-up equal-count rebalance fixes any
	// residual skew exactly, so moderate oversampling suffices.
	s := min(len(local), max(32, 8*p))
	samples := make([]graph.Edge, 0, s)
	for i := 0; i < s; i++ {
		samples = append(samples, local[i*len(local)/s])
	}
	all := mergeEdgeRuns(r.AllGatherBytes(encodeEdges(samples)))
	splitters := make([]graph.Edge, 0, p-1)
	for i := 1; i < p; i++ {
		if len(all) == 0 {
			splitters = append(splitters, graph.Edge{})
			continue
		}
		splitters = append(splitters, all[min(i*len(all)/p, len(all)-1)])
	}

	out := make([][]byte, p)
	prev := 0
	for i := 0; i < p; i++ {
		var cut int
		if i == p-1 {
			cut = len(local)
		} else {
			sp := splitters[i]
			cut = prev + sort.Search(len(local)-prev, func(k int) bool {
				return graph.CompareEdges(local[prev+k], sp) >= 0
			})
		}
		out[i] = encodeEdges(local[prev:cut])
		prev = cut
	}
	return mergeEdgeRuns(r.AllToAllv(out))
}

// rebalanceEqualCounts shifts edges between ranks so every rank holds
// exactly total/p (±1) edges of the already-sorted global order — the
// "evenly partitioned" step that neutralizes hub-induced data imbalance.
func rebalanceEqualCounts(r *rt.Rank, local []graph.Edge) []graph.Edge {
	p := r.Size()
	if p == 1 {
		return local
	}
	counts := r.AllGatherU64(uint64(len(local)))
	var off, total uint64
	for i, c := range counts {
		if i < r.Rank() {
			off += c
		}
		total += c
	}
	target := func(i int) uint64 { return total * uint64(i) / uint64(p) }
	out := make([][]byte, p)
	for i := 0; i < p; i++ {
		tLo, tHi := target(i), target(i+1)
		lo := max(tLo, off)
		hi := min(tHi, off+uint64(len(local)))
		if lo < hi {
			out[i] = encodeEdges(local[lo-off : hi-off])
		}
	}
	in := r.AllToAllv(out)
	merged := make([]graph.Edge, 0, decodedLen(in))
	for _, buf := range in { // sender order == ascending global offset
		merged = decodeEdgesInto(merged, buf)
	}
	return merged
}

// exchangeBoundaryDegrees publishes (vertex, localDegree) for this rank's
// first and last sources and accumulates the records into
// part.BoundaryDegree.
func (part *Part) exchangeBoundaryDegrees(r *rt.Rank, local []graph.Edge, hasEdges []bool, firstSrc, lastSrc []uint64) {
	me := r.Rank()
	var rec []byte
	put := func(v uint64, deg uint64) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[0:], v)
		binary.LittleEndian.PutUint64(b[8:], deg)
		rec = append(rec, b[:]...)
	}
	if hasEdges[me] {
		// local is sorted: the first source's edges are its leading run and
		// the last source's its trailing run.
		lead := sort.Search(len(local), func(i int) bool { return uint64(local[i].Src) > firstSrc[me] })
		put(firstSrc[me], uint64(lead))
		if lastSrc[me] != firstSrc[me] {
			trail := sort.Search(len(local), func(i int) bool { return uint64(local[i].Src) >= lastSrc[me] })
			put(lastSrc[me], uint64(len(local)-trail))
		}
	}
	for _, buf := range r.AllGatherBytes(rec) {
		for off := 0; off+16 <= len(buf); off += 16 {
			v := graph.Vertex(binary.LittleEndian.Uint64(buf[off:]))
			d := binary.LittleEndian.Uint64(buf[off+8:])
			part.BoundaryDegree[v] += d
		}
	}
}
