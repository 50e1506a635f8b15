package partition

import (
	"encoding/binary"

	"havoqgt/internal/graph"
)

// Edge wire format: 16 bytes little-endian (src, dst).
const edgeBytes = 16

// encodeEdges serializes edges for an AllToAllv exchange.
func encodeEdges(edges []graph.Edge) []byte {
	buf := make([]byte, len(edges)*edgeBytes)
	for i, e := range edges {
		binary.LittleEndian.PutUint64(buf[i*edgeBytes:], uint64(e.Src))
		binary.LittleEndian.PutUint64(buf[i*edgeBytes+8:], uint64(e.Dst))
	}
	return buf
}

func decodeEdge(buf []byte) graph.Edge {
	return graph.Edge{
		Src: graph.Vertex(binary.LittleEndian.Uint64(buf)),
		Dst: graph.Vertex(binary.LittleEndian.Uint64(buf[8:])),
	}
}

// decodeEdgesInto appends decoded edges to dst.
func decodeEdgesInto(dst []graph.Edge, buf []byte) []graph.Edge {
	for off := 0; off+edgeBytes <= len(buf); off += edgeBytes {
		dst = append(dst, decodeEdge(buf[off:]))
	}
	return dst
}

// decodedLen is the number of edges the encoded buffers hold together.
func decodedLen(bufs [][]byte) int {
	n := 0
	for _, b := range bufs {
		n += len(b) / edgeBytes
	}
	return n
}

// mergeEdgeRuns decodes encoded runs, each sorted by (Src, Dst), into one
// sorted list sized to their total. A loser tree over the k run heads costs
// about log2 k comparisons per edge, where sorting the concatenation would
// cost log2 |E| and a scratch list.
func mergeEdgeRuns(runs [][]byte) []graph.Edge {
	k := len(runs)
	out := make([]graph.Edge, 0, decodedLen(runs))
	if cap(out) == 0 {
		return out
	}
	heads := make([]graph.Edge, k)
	rest := make([][]byte, k) // each run's encoded edges after its head
	done := make([]bool, k)   // the run has no head left
	for r, run := range runs {
		if done[r] = len(run) < edgeBytes; !done[r] {
			heads[r], rest[r] = decodeEdge(run), run[edgeBytes:]
		}
	}
	less := func(a, b int) bool {
		return !done[a] && (done[b] || graph.CompareEdges(heads[a], heads[b]) < 0)
	}
	// Nodes 1..k-1 are the tree's matches, node k+r is run r's leaf; each
	// match keeps its loser, and the overall winner climbs out.
	loser := make([]int, k)
	win := make([]int, 2*k)
	for r := range k {
		win[k+r] = r
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if less(b, a) {
			a, b = b, a
		}
		win[n], loser[n] = a, b
	}
	w := win[1]
	for len(out) < cap(out) {
		out = append(out, heads[w])
		if len(rest[w]) >= edgeBytes {
			heads[w], rest[w] = decodeEdge(rest[w]), rest[w][edgeBytes:]
		} else {
			done[w] = true
		}
		for n := (k + w) / 2; n >= 1; n /= 2 { // replay w's path to the root
			if less(loser[n], w) {
				loser[n], w = w, loser[n]
			}
		}
	}
	return out
}
