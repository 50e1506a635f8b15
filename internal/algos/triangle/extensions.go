package triangle

import (
	"havoqgt/internal/graph"
	"havoqgt/internal/xrand"
)

// Options extend the exact counter with the variations §VI-C mentions:
// counting triangles amongst a subset of vertices, per-vertex counts (always
// available via PerVertexCount), and approximate wedge-sampling counting in
// the style of Seshadhri, Pinar & Kolda (reference [13]).
type Options struct {
	// Subset restricts counting to triangles whose three vertices all
	// satisfy the predicate. The predicate must be deterministic and
	// evaluable on every rank (it is applied independently wherever fan-out
	// happens). Nil counts over all vertices.
	Subset func(graph.Vertex) bool

	// SampleProb < 1 enables Bernoulli wedge sampling: each length-2 path
	// spawns its closing-edge search only with this probability, decided by
	// a deterministic hash of the wedge, and Estimate scales the sampled
	// count back up. 0 or 1 means exact counting.
	SampleProb float64
	// SampleSeed keys the wedge hash.
	SampleSeed uint64
}

// sampleWedge decides deterministically whether wedge (a, m, w) is sampled.
func (o Options) sampleWedge(a, m, w graph.Vertex) bool {
	if o.SampleProb <= 0 || o.SampleProb >= 1 {
		return true
	}
	h := xrand.Mix64(uint64(a) ^ xrand.Mix64(uint64(m)^xrand.Mix64(uint64(w)+o.SampleSeed)))
	return float64(h>>11)/(1<<53) < o.SampleProb
}

func (o Options) member(v graph.Vertex) bool { return o.Subset == nil || o.Subset(v) }

// Estimate scales a summed count back up: exact runs return it unchanged,
// sampled runs divide by SampleProb.
func (o Options) Estimate(count uint64) float64 {
	if o.SampleProb <= 0 || o.SampleProb >= 1 {
		return float64(count)
	}
	return float64(count) / o.SampleProb
}

// PerVertexCount returns the number of triangles attributed to a locally
// held vertex (triangles are attributed to their largest member, possibly
// spread over the replicas of a split vertex; sum over ranks for the exact
// per-vertex total).
func (t *Triangle) PerVertexCount(v graph.Vertex) uint64 {
	i, ok := t.part.LocalIndex(v)
	if !ok {
		return 0
	}
	return t.Count[i]
}
