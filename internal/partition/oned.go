package partition

import (
	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
)

// build1D collectively builds the traditional 1D block partition (the OneD
// layout), with global simplification when simplify is set: vertex v and its
// entire adjacency list live on rank v / ceil(n/p). This is the baseline of
// Figure 12; a single hub's adjacency list can exceed the average edge count
// per partition, producing the data imbalance of Figure 2.
//
// The resulting Part uses the same traversal machinery as the edge-list
// partition — it simply never splits an adjacency list (HasForward is always
// false) and its ownership table is the block mapping.
func build1D(r *rt.Rank, local []graph.Edge, numVertices uint64, simplify bool) (*Part, error) {
	if err := checkVertexCount(numVertices); err != nil {
		return nil, err
	}
	p := r.Size()
	block := (numVertices + uint64(p) - 1) / uint64(p)
	if block == 0 {
		block = 1
	}
	start := make([]uint64, p+1)
	for i := 0; i <= p; i++ {
		start[i] = min(uint64(i)*block, numVertices)
	}
	owners, err := NewOwnerTable(start)
	if err != nil {
		return nil, err
	}

	// Route every edge to its source's owner.
	buckets := make([][]graph.Edge, p)
	for _, e := range local {
		o := owners.Master(e.Src)
		buckets[o] = append(buckets[o], e)
	}
	out := make([][]byte, p)
	for i := range buckets {
		out[i] = encodeEdges(buckets[i])
	}
	in := r.AllToAllv(out)
	mine := make([]graph.Edge, 0, len(local))
	for _, buf := range in {
		mine = decodeEdgesInto(mine, buf)
	}
	if simplify {
		// Every copy of an edge routed to its source's owner, so removing
		// self loops and duplicates here removes them globally.
		mine = graph.Simplify(mine)
	} else {
		graph.SortEdges(mine)
	}

	part := &Part{
		Rank:        r.Rank(),
		P:           p,
		NumVertices: numVertices,
		Owners:      owners,
		StateStart:  graph.Vertex(start[r.Rank()]),
		StateLen:    int(start[r.Rank()+1] - start[r.Rank()]),
	}
	if err := part.replicateDegrees(r, mine); err != nil {
		return nil, err
	}
	m, err := csr.FromSortedEdges(mine, part.StateStart, part.StateLen)
	if err != nil {
		return nil, err
	}
	part.CSR = m
	if err := part.tagTargets(csr.MaxSlots); err != nil {
		return nil, err
	}
	return part, nil
}
