package cluster

import (
	"encoding/json"
	"hash/fnv"

	"havoqgt/internal/engine"
)

// HashResult digests res, spec's result over an n-vertex graph, for
// cluster-vs-in-process equivalence checks: engine.Part of every vertex —
// the arrays the query type ships and its total — with Waves cleared. Parts
// leave out what depends on message timing (parent arrays: a vertex reached
// along several equal-length paths keeps whichever arrived first), so two
// correct runs hash the same, in one process or across many.
func HashResult(spec engine.Spec, n uint64, res *engine.Result) uint64 {
	part := engine.Part(spec, res, 0, n)
	part.Waves = 0
	b, _ := json.Marshal(part) // a Result holds only integers, bools and slices of them
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
