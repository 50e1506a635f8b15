package ref

// Sequential PageRank reference in deterministic fixed-point arithmetic.
// Floating-point PageRank is scheduling-dependent in a distributed setting
// (summation order changes low bits), so the engine's pagerank query and
// this reference both work in integer fixed-point: ranks are scaled by
// PRScale, the damping factor is the exact rational PRAlphaNum/PRAlphaDen,
// and per-edge contributions use truncating integer division. Every rank of
// the machine, the cluster, and this loop then produce bit-identical values,
// which is what makes pagerank results hashable for cluster equivalence
// checks.

// PRScale is the fixed-point scale: a rank of 1.0 is PRScale. 2^40 leaves
// 24 high bits of headroom (total mass is ≤ n·base + S ≈ 2·PRScale) and
// ample low-bit precision for the damping rational.
const PRScale = uint64(1) << 40

// PRAlphaNum/PRAlphaDen is the damping factor 0.85 as an exact rational.
const (
	PRAlphaNum = 85
	PRAlphaDen = 100
)

// PRBase returns the per-vertex teleport mass (1-α)/n at fixed point.
func PRBase(n uint64) uint64 { return PRScale / PRAlphaDen * (PRAlphaDen - PRAlphaNum) / n }

// PRContrib returns the per-edge contribution a vertex with the given rank
// and degree sends each neighbor: (α·rank/deg), truncating.
func PRContrib(rank, deg uint64) uint64 { return rank * PRAlphaNum / PRAlphaDen / deg }

// PageRank runs iters synchronous fixed-point PageRank iterations and
// returns the per-vertex ranks. Each vertex pushes its contribution along
// its out-edges, adj[u], as the distributed kernel pushes along its stored
// rows: on a directed graph a vertex receives from its in-neighbours. (On a
// symmetric graph pulling over adj[v] sums the same terms.) Duplicate edges
// count with multiplicity and self-loops feed a vertex's own rank, exactly as
// the distributed kernel counts them; dangling (out-degree-0) vertices keep
// the teleport mass only (their damped mass leaks, the standard
// simplification).
func PageRank(adj Adj, iters int) []uint64 {
	n := uint64(len(adj))
	ranks := make([]uint64, n)
	for v := range ranks {
		ranks[v] = PRScale / n
	}
	if iters <= 0 {
		return ranks
	}
	base := PRBase(n)
	next := make([]uint64, n)
	for k := 0; k < iters; k++ {
		for v := range next {
			next[v] = base
		}
		for u, out := range adj {
			if deg := uint64(len(out)); deg > 0 {
				c := PRContrib(ranks[u], deg)
				for _, v := range out {
					next[v] += c
				}
			}
		}
		ranks, next = next, ranks
	}
	return ranks
}
