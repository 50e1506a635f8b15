package partition

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
)

// ErrTooManyVertices is returned by the builders for a graph whose vertex
// identifiers do not fit the vertex field of a csr.Target word.
var ErrTooManyVertices = errors.New("partition: vertex count exceeds the CSR target word's vertex field")

func checkVertexCount(numVertices uint64) error {
	if numVertices > csr.MaxVertices {
		return fmt.Errorf("%w: %d > %d", ErrTooManyVertices, numVertices, csr.MaxVertices)
	}
	return nil
}

// tagTargets resolves every stored edge once, in the word that stores it: a
// target this rank masters gets the local bit; a remote target the rank holds
// at least two edges to gets a slot. Slots are numbered by local edge count
// descending, then vertex, so the k hottest remote targets are always slots
// [0, k) and a tag means the same under every ghost setting
// (core.BuildGhostTable takes a prefix). Candidates beyond maxSlots
// (csr.MaxSlots outside tests) stay untagged, like single-edge remotes.
func (p *Part) tagTargets(maxSlots int) error {
	mem := p.CSR.Targets().(csr.MemTargets) // the builders assemble in memory
	lo, hi := p.Owners.MasterRange(p.Rank)
	// Indices into mem of the edges to remote vertices: bare words until the
	// slots are assigned below, so such a word equals its vertex.
	remote := make([]int, 0, len(mem))
	for i, t := range mem {
		switch v := uint64(t.Vertex()); {
		case v-lo < hi-lo:
			mem[i] = t.AsLocal()
		case v < p.NumVertices:
			remote = append(remote, i)
		default:
			return fmt.Errorf("partition: vertex %d out of range (n=%d)", v, p.NumVertices)
		}
	}
	remote = sortByVertex(remote, mem, p.NumVertices)

	// Each run of two or more edges to one vertex is a candidate.
	type run struct{ start, count int }
	var runs []run
	for i := 0; i < len(remote); {
		j := i + 1
		for j < len(remote) && mem[remote[j]] == mem[remote[i]] {
			j++
		}
		if j-i >= 2 {
			runs = append(runs, run{i, j - i})
		}
		i = j
	}
	slices.SortFunc(runs, func(a, b run) int { // start order is vertex order
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.start, b.start))
	})
	runs = runs[:min(len(runs), maxSlots)]

	p.SlotVertex = make([]graph.Vertex, len(runs))
	p.SlotOwner = make([]uint32, len(runs))
	for s, r := range runs {
		v := mem[remote[r.start]].Vertex()
		p.SlotVertex[s], p.SlotOwner[s] = v, uint32(p.Owners.Master(v))
		for _, at := range remote[r.start : r.start+r.count] {
			mem[at] = mem[at].WithSlot(s)
		}
	}
	return nil
}

// sortByVertex orders edges — indices into mem — by target vertex with an LSD
// radix sort over the bits a vertex id below n occupies: linear, where a
// comparison sort of a rank's edges would cost more than the ghost count it
// replaces.
func sortByVertex(edges []int, mem csr.MemTargets, n uint64) []int {
	const digit = 11
	tmp := make([]int, len(edges))
	for shift := 0; shift < bits.Len64(n-1); shift += digit {
		var next [1 << digit]int
		for _, at := range edges {
			next[mem[at]>>shift&(1<<digit-1)]++
		}
		sum := 0
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, at := range edges {
			d := mem[at] >> shift & (1<<digit - 1)
			tmp[next[d]] = at
			next[d]++
		}
		edges, tmp = tmp, edges
	}
	return edges
}
