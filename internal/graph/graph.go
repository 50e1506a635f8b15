// Package graph defines the basic graph value types shared by every other
// package in the repository: vertex identifiers, edges, edge lists, and the
// degree statistics used to characterize scale-free graphs (hub census,
// imbalance inputs).
//
// A graph here is an edge list over dense vertex identifiers [0, NumVertices).
// Partitioned, CSR, and external-memory representations are built on top by
// internal/partition, internal/csr, and internal/extmem.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// Vertex is a global vertex identifier. Identifiers are dense: a graph with n
// vertices uses identifiers 0..n-1.
type Vertex uint64

// Nil is the sentinel "no vertex" value, used for BFS parents of unreached
// vertices and for uninitialized visitor fields (the paper's ∞).
const Nil Vertex = ^Vertex(0)

// Edge is a directed edge from Src to Dst. Undirected graphs are represented
// by storing both directions (see Undirect).
type Edge struct {
	Src, Dst Vertex
}

// Reversed returns the edge with endpoints swapped.
func (e Edge) Reversed() Edge { return Edge{Src: e.Dst, Dst: e.Src} }

// IsSelfLoop reports whether the edge connects a vertex to itself.
func (e Edge) IsSelfLoop() bool { return e.Src == e.Dst }

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.Src, e.Dst) }

// CompareEdges orders edges by (Src, Dst). This is the global order used by
// edge list partitioning: sorting by source groups each adjacency list into a
// contiguous run.
func CompareEdges(a, b Edge) int {
	switch {
	case a.Src < b.Src:
		return -1
	case a.Src > b.Src:
		return 1
	case a.Dst < b.Dst:
		return -1
	case a.Dst > b.Dst:
		return 1
	default:
		return 0
	}
}

// SortEdges sorts the edge list in place by (Src, Dst): an LSD radix sort
// (RadixSort) over the bits the largest Dst occupies, then those of the
// largest Src, linear in the list's length, with one scratch list of the same
// length.
func SortEdges(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	if sorted := radixSortEdges(edges, make([]Edge, len(edges)), edges); &sorted[0] != &edges[0] {
		copy(edges, sorted)
	}
}

// SortedEdges returns the edges sorted by (Src, Dst) in a list of its own and
// leaves edges untouched. The radix sort's first pass reads edges and writes
// the new list, so the copy costs no pass of its own. Its later passes need a
// second scratch list of the same length while they run, so for that time the
// caller holds three full-size lists (its own, the result and the scratch)
// where copying and sorting in place would hold two.
func SortedEdges(edges []Edge) []Edge {
	out := make([]Edge, len(edges))
	if len(edges) == 0 {
		return out
	}
	sorted := radixSortEdges(edges, out, make([]Edge, len(edges)))
	if &sorted[0] == &edges[0] { // already in order: no pass moved anything
		copy(out, edges)
		return out
	}
	return sorted
}

// radixSortEdges sorts src by (Src, Dst) with RadixSort's buffer contract
// and returns the buffer holding the result. Ids whose bits fit one word
// together sort as one packed key; wider ones (up to 64 bits each) sort by
// Dst, then stably by Src.
func radixSortEdges(src, dst, tmp []Edge) []Edge {
	var srcBits, dstBits Vertex
	for _, e := range src {
		srcBits |= e.Src
		dstBits |= e.Dst
	}
	sb, db := bits.Len64(uint64(srcBits)), bits.Len64(uint64(dstBits))
	if sb+db <= 64 {
		return RadixSort(src, dst, tmp, sb+db, func(e Edge) uint64 { return uint64(e.Src)<<db | uint64(e.Dst) })
	}
	bySrc := func(e Edge) uint64 { return uint64(e.Src) }
	switch byDst := RadixSort(src, dst, tmp, db, func(e Edge) uint64 { return uint64(e.Dst) }); &byDst[0] {
	case &src[0]:
		return RadixSort(src, dst, tmp, sb, bySrc)
	case &dst[0]:
		return RadixSort(dst, tmp, dst, sb, bySrc)
	default:
		return RadixSort(tmp, dst, tmp, sb, bySrc)
	}
}

// EdgesSorted reports whether the edge list is sorted by (Src, Dst).
func EdgesSorted(edges []Edge) bool {
	return slices.IsSortedFunc(edges, CompareEdges)
}

// Undirect returns a new edge list containing both directions of every input
// edge. Self loops are emitted once. The result is not sorted.
func Undirect(edges []Edge) []Edge {
	out := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e)
		if !e.IsSelfLoop() {
			out = append(out, e.Reversed())
		}
	}
	return out
}

// Simplify sorts the edge list and removes self loops and duplicate edges in
// place, returning the shortened slice. Graph generators such as RMAT emit
// duplicates; k-core and triangle counting require a simple graph.
func Simplify(edges []Edge) []Edge {
	SortEdges(edges)
	out := edges[:0]
	for _, e := range edges {
		if e.IsSelfLoop() {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == e {
			continue
		}
		out = append(out, e)
	}
	return out
}

// MaxVertex returns the largest vertex identifier appearing in the edge list,
// or 0 if the list is empty.
func MaxVertex(edges []Edge) Vertex {
	var m Vertex
	for _, e := range edges {
		m = max(m, e.Src, e.Dst)
	}
	return m
}

// OutDegrees returns the out-degree of every vertex in [0, n).
func OutDegrees(edges []Edge, n uint64) []uint32 {
	deg := make([]uint32, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex in [0, n).
func InDegrees(edges []Edge, n uint64) []uint32 {
	deg := make([]uint32, n)
	for _, e := range edges {
		deg[e.Dst]++
	}
	return deg
}

// HubCensus summarizes the hub structure of a degree distribution. It backs
// Figure 1 of the paper ("hub growth for Graph500 graphs").
type HubCensus struct {
	NumVertices       uint64
	NumEdges          uint64 // sum of degrees
	MaxDegree         uint32 // largest single degree
	MaxDegreeHubEdges uint64 // edges belonging to the max-degree vertex
	EdgesDeg1K        uint64 // total edges belonging to vertices with degree >= 1,000
	EdgesDeg10K       uint64 // total edges belonging to vertices with degree >= 10,000
}

// Census computes the hub census of a degree distribution.
func Census(degrees []uint32) HubCensus {
	c := HubCensus{NumVertices: uint64(len(degrees))}
	for _, d := range degrees {
		c.NumEdges += uint64(d)
		if d > c.MaxDegree {
			c.MaxDegree = d
		}
		if d >= 1000 {
			c.EdgesDeg1K += uint64(d)
		}
		if d >= 10000 {
			c.EdgesDeg10K += uint64(d)
		}
	}
	c.MaxDegreeHubEdges = uint64(c.MaxDegree)
	return c
}

// DegreeHistogram returns counts of vertices per degree, as a map keyed by
// degree. Useful for verifying power-law shape in tests.
func DegreeHistogram(degrees []uint32) map[uint32]uint64 {
	h := make(map[uint32]uint64)
	for _, d := range degrees {
		h[d]++
	}
	return h
}
