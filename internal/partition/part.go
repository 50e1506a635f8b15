// Package partition builds distributed graph partitions:
//
//   - BuildEdgeList: the paper's novel *edge list partitioning* (§III-A1) —
//     the global edge list is sorted by source (distributed sample sort) and
//     split into equal-count ranges, so hub adjacency lists span consecutive
//     partitions and every partition holds the same number of edges.
//   - OneD: the traditional 1D baseline (each vertex's whole adjacency
//     list on one partition), which Figure 12 compares against.
//   - Imbalance models for 1D, 2D-block, and edge-list partitioning
//     (Figure 2).
//
// Build is the machine-wide entry point every caller uses: one collective
// phase that hands each rank its chunk and runs the chosen layout's builder,
// simplified or not. Both builders produce a Part, the uniform partition view the visitor-queue
// core traverses: a replicated master-ownership table, a replicated global
// degree table, a local CSR over the rank's vertex state range, and
// (edge-list only) the replica-forwarding metadata for split adjacency lists.
package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
)

// OwnerTable is the replicated table mapping a vertex to its master
// partition: rank r masters vertices [start[r], start[r+1]). It is the
// constant-size structure that makes min_owner(v) an O(lg p) lookup on any
// rank. Edges to a rank's own and to its repeated remote targets never pay it:
// the partition build resolves those once, in the stored word (tagTargets).
type OwnerTable struct {
	start []uint64 // len p+1; start[0]=0, start[p]=NumVertices; non-decreasing
}

// NewOwnerTable validates and wraps a boundary array.
func NewOwnerTable(start []uint64) (OwnerTable, error) {
	if len(start) < 2 || start[0] != 0 {
		return OwnerTable{}, fmt.Errorf("partition: owner table must begin at 0 with p+1 entries")
	}
	for i := 1; i < len(start); i++ {
		if start[i] < start[i-1] {
			return OwnerTable{}, fmt.Errorf("partition: owner table not monotone at %d", i)
		}
	}
	if start[len(start)-1] >= 1<<63 {
		return OwnerTable{}, fmt.Errorf("partition: owner table ends at %d, past 2^63", start[len(start)-1])
	}
	return OwnerTable{start: start}, nil
}

// P returns the number of partitions.
func (t OwnerTable) P() int { return len(t.start) - 1 }

// NumVertices returns the total vertex count.
func (t OwnerTable) NumVertices() uint64 { return t.start[len(t.start)-1] }

// Master returns min_owner(v): the first rank holding v's adjacency (or, for
// an isolated vertex, the rank covering its id range). It is a branch-free
// lower bound — the first r with start[r+1] > v, so empty ranges
// (start[r]==start[r+1]) are skipped — whose halving steps are masks and
// whose last step is a conditional move, and it inlines: the out-of-range
// panic formats its message out of line (vertexRangeError).
func (t OwnerTable) Master(v graph.Vertex) int {
	ends := t.start[1:]
	if uint64(v) >= ends[len(ends)-1] {
		panic(vertexRangeError{v, ends[len(ends)-1]})
	}
	base := 0
	for n := len(ends); n > 1; {
		// ends[base+half] <= v exactly when v−ends[base+half] does not
		// borrow (NewOwnerTable keeps every end below 2^63), so the step is
		// a mask on its sign, not a branch.
		half := n >> 1
		base += half &^ int(int64(uint64(v)-ends[base+half])>>63)
		n -= half
	}
	if ends[base] <= uint64(v) {
		base++
	}
	return base
}

// vertexRangeError is Master's panic: a vertex at or past the table's end.
type vertexRangeError struct {
	v graph.Vertex
	n uint64
}

func (e vertexRangeError) Error() string {
	return fmt.Sprintf("partition: vertex %d out of range (n=%d)", e.v, e.n)
}

// MasterRange returns the half-open master vertex range of rank r.
func (t OwnerTable) MasterRange(r int) (lo, hi uint64) { return t.start[r], t.start[r+1] }

// Part is one rank's view of a partitioned graph. It is built collectively
// (Build, either layout) and then traversed by internal/core.
type Part struct {
	Rank int
	P    int

	NumVertices uint64
	GlobalEdges uint64 // total local-edge count across all ranks

	Owners OwnerTable

	// Local vertex state range [StateStart, StateStart+StateLen): the
	// master range plus replica slots for split boundary vertices.
	StateStart graph.Vertex
	StateLen   int

	// CSR holds the local adjacency; row i is vertex StateStart+i. Its target
	// words carry what tagTargets resolved about each edge.
	CSR *csr.Matrix

	// Remote slots: the remote vertices this rank stores at least two edges
	// to, by local edge count descending then vertex, and each one's master
	// rank. A csr.Target's Slot indexes both.
	SlotVertex []graph.Vertex
	SlotOwner  []uint32

	// UntaggedTo counts, by rank, the stored edges to vertices that rank
	// masters which carry no tag: edges to remote vertices that got no slot.
	// A dense round sizes its per-peer records from it and SlotOwner.
	UntaggedTo []int

	// Replica forwarding: when HasForward, visitors applied to ForwardVertex
	// must be forwarded to rank ForwardTo, the next partition holding a
	// piece of that vertex's adjacency list (Alg. 1, check_mailbox).
	HasForward    bool
	ForwardVertex graph.Vertex
	ForwardTo     int

	// Degrees is the replicated global degree table: entry v is vertex v's
	// full stored degree, a split hub's fragments summed across its chain.
	// Every rank holds all n entries (4n bytes), built once with the
	// partition, so any rank answers any vertex's degree with one read.
	Degrees []uint32

	// Hub is the vertex of highest degree, lowest id on ties (vertex 0 when
	// every degree is 0; graph.Nil when the graph has no vertices).
	Hub graph.Vertex

	// PrevTail is the previous holder's final stored edge when this rank's
	// first row continues a split adjacency list (PrevTailValid). Because
	// targets within a row are sorted, all copies of a duplicate edge are
	// contiguous across the chain's portions, so this single edge is enough
	// for multigraph-safe kernels (triangle counting) to skip a duplicate
	// run straddling the boundary. Edge-list partitioning only.
	PrevTail      graph.Edge
	PrevTailValid bool
}

// LocalIndex maps a vertex to its row in the local state range.
func (p *Part) LocalIndex(v graph.Vertex) (int, bool) {
	if v < p.StateStart {
		return 0, false
	}
	i := uint64(v - p.StateStart)
	if i >= uint64(p.StateLen) {
		return 0, false
	}
	return int(i), true
}

// Vertex maps a local row index back to the global vertex id.
func (p *Part) Vertex(i int) graph.Vertex { return p.StateStart + graph.Vertex(i) }

// Master returns min_owner(v).
func (p *Part) Master(v graph.Vertex) int { return p.Owners.Master(v) }

// IsMaster reports whether this rank is v's master: v lies in the rank's
// master range, which is where Master's search would find it, at the cost of
// one compare. A vertex outside the graph has no master.
func (p *Part) IsMaster(v graph.Vertex) bool {
	lo, hi := p.Owners.MasterRange(p.Rank)
	return uint64(v)-lo < hi-lo
}

// GlobalDegree returns the full degree of any vertex v < NumVertices,
// accounting for adjacency lists split across partitions.
func (p *Part) GlobalDegree(v graph.Vertex) uint64 { return uint64(p.Degrees[v]) }

// ErrDegreeTooLarge is returned by the builders for a graph with a vertex
// whose degree does not fit a degree table entry.
var ErrDegreeTooLarge = errors.New("partition: vertex degree exceeds the degree table's uint32 entries")

// replicateDegrees is both builders' closing collective, run on the rank's
// sorted local edges before anything that can fail on one rank alone. Every
// rank contributes the degrees of its local rows, and every rank sums all
// the contributions into Degrees, so a split hub's fragments add up across
// its chain, then totals GlobalEdges and picks Hub. Every rank sees the same
// contributions, so an overflow fails the build on all of them alike.
func (p *Part) replicateDegrees(r *rt.Rank, local []graph.Edge) error {
	buf := make([]byte, 9+4*p.StateLen)
	binary.LittleEndian.PutUint64(buf, uint64(p.StateStart))
	for i := 0; i < len(local); {
		j := i + 1
		for j < len(local) && local[j].Src == local[i].Src {
			j++
		}
		if uint64(j-i) > math.MaxUint32 {
			buf[8] = 1
		}
		binary.LittleEndian.PutUint32(buf[9+4*(local[i].Src-p.StateStart):], uint32(j-i))
		i = j
	}
	p.Degrees = make([]uint32, p.NumVertices)
	for _, b := range r.AllGatherBytes(buf) {
		if b[8] != 0 {
			return fmt.Errorf("%w: a rank holds a row of more than %d edges", ErrDegreeTooLarge, uint32(math.MaxUint32))
		}
		start := binary.LittleEndian.Uint64(b)
		for i := 0; 9+4*i < len(b); i++ {
			v := start + uint64(i)
			d := uint64(p.Degrees[v]) + uint64(binary.LittleEndian.Uint32(b[9+4*i:]))
			if d > math.MaxUint32 {
				return fmt.Errorf("%w: vertex %d", ErrDegreeTooLarge, v)
			}
			p.Degrees[v] = uint32(d)
		}
	}
	p.Hub = graph.Nil
	for v, d := range p.Degrees {
		p.GlobalEdges += uint64(d)
		if p.Hub == graph.Nil || d > p.Degrees[p.Hub] {
			p.Hub = graph.Vertex(v)
		}
	}
	return nil
}

// ShouldForward reports whether a visitor for v must continue to the next
// replica after being applied locally (my_rank < max_owner(v) in Alg. 1).
func (p *Part) ShouldForward(v graph.Vertex) (int, bool) {
	if p.HasForward && v == p.ForwardVertex {
		return p.ForwardTo, true
	}
	return 0, false
}

// LocalEdges returns the number of edges stored on this rank.
func (p *Part) LocalEdges() uint64 { return p.CSR.NumEdges() }
