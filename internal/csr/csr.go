// Package csr implements compressed-sparse-row adjacency storage, the
// underlying storage of each edge list partition in the paper (§III-A1).
// Row offsets (proportional to vertices) always live in memory; the target
// array (proportional to edges) lives behind a TargetStore so it can be kept
// in memory or in simulated NVRAM through the user-space page cache — the
// semi-external model of §VIII-A.
package csr

import (
	"fmt"
	"sort"

	"havoqgt/internal/graph"
)

// Target is one stored CSR target word: the target vertex in the low 40 bits
// and, above it, what the partition build resolved about the edge on the rank
// that stores it — that the rank masters the target, or which of the rank's
// remote slots (partition.Part) the target occupies. The tags ride whatever
// store holds the word and are optional: a bare vertex id is a valid word.
type Target uint64

const (
	vertexBits = 40
	slotBits   = 23
	localBit   = Target(1) << 63

	// MaxVertices is the largest vertex count a target word can address.
	MaxVertices = uint64(1) << vertexBits
	// MaxSlots is the number of distinct remote slots a word can name.
	MaxSlots = 1<<slotBits - 1
)

// Vertex returns the target vertex.
func (t Target) Vertex() graph.Vertex { return graph.Vertex(t & (1<<vertexBits - 1)) }

// Local reports whether the storing rank masters the target.
func (t Target) Local() bool { return t&localBit != 0 }

// Slot returns the target's remote slot on the storing rank, or -1.
func (t Target) Slot() int { return int(t>>vertexBits&MaxSlots) - 1 }

// AsLocal returns the word tagged "the storing rank masters this vertex".
func (t Target) AsLocal() Target { return t | localBit }

// WithSlot returns the word tagged with remote slot s, 0 <= s < MaxSlots.
func (t Target) WithSlot(s int) Target { return t | Target(s+1)<<vertexBits }

// TargetStore is the backing storage for the CSR target array.
type TargetStore interface {
	// Read returns targets[lo:hi]. The returned slice is valid until the
	// next Read on the same store; callers must not retain it.
	Read(lo, hi uint64) []Target
	// Len returns the total number of stored targets.
	Len() uint64
	// Close releases resources.
	Close() error
}

// MemTargets is an in-memory TargetStore (the DRAM configuration).
type MemTargets []Target

func (m MemTargets) Read(lo, hi uint64) []Target { return m[lo:hi] }
func (m MemTargets) Len() uint64                 { return uint64(len(m)) }
func (m MemTargets) Close() error                { return nil }

// Matrix is one partition's local adjacency in CSR form. Row i holds the
// local portion of the adjacency list of vertex (base + i); rows are sorted
// by target vertex (not by raw word: tags sit above the vertex bits), which
// HasTarget exploits.
type Matrix struct {
	offsets []uint64 // len = rows+1
	targets TargetStore
}

// New assembles a matrix from row offsets and a target store. offsets must
// be non-decreasing with offsets[len-1] == targets.Len().
func New(offsets []uint64, targets TargetStore) (*Matrix, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("csr: offsets must have at least one entry")
	}
	if offsets[len(offsets)-1] != targets.Len() {
		return nil, fmt.Errorf("csr: offsets end at %d but store holds %d targets",
			offsets[len(offsets)-1], targets.Len())
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("csr: offsets not monotone at row %d", i-1)
		}
	}
	return &Matrix{offsets: offsets, targets: targets}, nil
}

// FromSortedEdges builds a matrix over `rows` rows from edges sorted by
// (Src, Dst), where edge sources are mapped to rows by src - base. Every
// edge's source must fall within [base, base+rows).
func FromSortedEdges(edges []graph.Edge, base graph.Vertex, rows int) (*Matrix, error) {
	offsets := make([]uint64, rows+1)
	targets := make(MemTargets, len(edges))
	for i, e := range edges {
		if e.Src < base || uint64(e.Src-base) >= uint64(rows) {
			return nil, fmt.Errorf("csr: edge %v outside row range [%d,%d)", e, base, uint64(base)+uint64(rows))
		}
		if i > 0 && graph.CompareEdges(edges[i-1], e) > 0 {
			return nil, fmt.Errorf("csr: edges not sorted at index %d", i)
		}
		if uint64(e.Dst) >= MaxVertices {
			return nil, fmt.Errorf("csr: edge %v targets a vertex beyond the %d-bit target word", e, vertexBits)
		}
		offsets[e.Src-base+1]++
		targets[i] = Target(e.Dst)
	}
	for i := 1; i <= rows; i++ {
		offsets[i] += offsets[i-1]
	}
	return &Matrix{offsets: offsets, targets: targets}, nil
}

// NumRows returns the number of rows (local vertex range length).
func (m *Matrix) NumRows() int { return len(m.offsets) - 1 }

// NumEdges returns the number of locally stored targets.
func (m *Matrix) NumEdges() uint64 { return m.offsets[len(m.offsets)-1] }

// Degree returns the local degree of row i.
func (m *Matrix) Degree(i int) uint64 { return m.offsets[i+1] - m.offsets[i] }

// Row returns the targets of row i. The slice is valid until the next Row or
// HasTarget call (external stores reuse a read buffer).
func (m *Matrix) Row(i int) []Target {
	return m.targets.Read(m.offsets[i], m.offsets[i+1])
}

// RowSpan returns the half-open target-index range [lo, hi) of row i without
// reading any targets. Out-of-core pagers use it to map a row onto the byte
// range (and so the device pages) its adjacency occupies.
func (m *Matrix) RowSpan(i int) (lo, hi uint64) {
	return m.offsets[i], m.offsets[i+1]
}

// HasTarget reports whether row i contains target v, by binary search (rows
// are sorted by target). Duplicate edges are tolerated.
func (m *Matrix) HasTarget(i int, v graph.Vertex) bool {
	row := m.Row(i)
	j := sort.Search(len(row), func(k int) bool { return row[k].Vertex() >= v })
	return j < len(row) && row[j].Vertex() == v
}

// Targets exposes the backing store (for cache statistics).
func (m *Matrix) Targets() TargetStore { return m.targets }

// ReplaceTargets swaps the backing store, e.g. to move the already-built
// target array from memory into simulated NVRAM. The new store must hold the
// same number of targets.
func (m *Matrix) ReplaceTargets(s TargetStore) error {
	if s.Len() != m.targets.Len() {
		return fmt.Errorf("csr: replacement store holds %d targets, want %d", s.Len(), m.targets.Len())
	}
	m.targets = s
	return nil
}

// Close closes the backing store.
func (m *Matrix) Close() error { return m.targets.Close() }
