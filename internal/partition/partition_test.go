package partition

import (
	"math/rand/v2"
	"testing"

	"havoqgt/internal/graph"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

// figure3Edges is the exact example of Figure 3: 8 vertices, 16 edges.
func figure3Edges() []graph.Edge {
	src := []graph.Vertex{0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 4, 5, 5, 6, 7, 7}
	dst := []graph.Vertex{1, 0, 2, 1, 3, 4, 5, 6, 7, 2, 2, 2, 7, 2, 2, 5}
	edges := make([]graph.Edge, len(src))
	for i := range src {
		edges[i] = graph.Edge{Src: src[i], Dst: dst[i]}
	}
	return edges
}

// buildCollective runs BuildEdgeList on p ranks over the given edges
// (scattered round-robin) and returns each rank's Part.
func buildCollective(t *testing.T, edges []graph.Edge, n uint64, p int) []*Part {
	t.Helper()
	return buildWith(t, BuildEdgeList, edges, n, p)
}

// oneD builds the OneD layout, unsimplified.
func oneD(r *rt.Rank, local []graph.Edge, numVertices uint64) (*Part, error) {
	return build1D(r, local, numVertices, false)
}

// buildWith is buildCollective for any builder.
func buildWith(t *testing.T, build func(*rt.Rank, []graph.Edge, uint64) (*Part, error), edges []graph.Edge, n uint64, p int) []*Part {
	t.Helper()
	parts := make([]*Part, p)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := build(r, local, n)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	return parts
}

func TestPaperFigure3Example(t *testing.T) {
	parts := buildCollective(t, figure3Edges(), 8, 4)

	// Equal edge counts: 16 edges over 4 partitions.
	for r, p := range parts {
		if p.LocalEdges() != 4 {
			t.Errorf("partition %d holds %d edges, want 4", r, p.LocalEdges())
		}
	}
	// min_owner(2) = 0 and min_owner(5) = 2, as in the figure.
	if got := parts[0].Master(2); got != 0 {
		t.Errorf("min_owner(2) = %d, want 0", got)
	}
	if got := parts[0].Master(5); got != 2 {
		t.Errorf("min_owner(5) = %d, want 2", got)
	}
	// max_owner(2) = 2: partitions 0 and 1 forward vertex 2 down the chain,
	// partition 2 does not.
	if to, ok := parts[0].ShouldForward(2); !ok || to != 1 {
		t.Errorf("partition 0 forward(2) = (%d,%v), want (1,true)", to, ok)
	}
	if to, ok := parts[1].ShouldForward(2); !ok || to != 2 {
		t.Errorf("partition 1 forward(2) = (%d,%v), want (2,true)", to, ok)
	}
	if _, ok := parts[2].ShouldForward(2); ok {
		t.Error("partition 2 must not forward vertex 2 (it is max_owner)")
	}
	// max_owner(5) = 3.
	if to, ok := parts[2].ShouldForward(5); !ok || to != 3 {
		t.Errorf("partition 2 forward(5) = (%d,%v), want (3,true)", to, ok)
	}
	if _, ok := parts[3].ShouldForward(5); ok {
		t.Error("partition 3 must not forward vertex 5")
	}
	// Global degrees across the split: deg(2)=6, deg(5)=2.
	for r := 0; r <= 2; r++ {
		if d := parts[r].GlobalDegree(2); d != 6 {
			t.Errorf("partition %d GlobalDegree(2) = %d, want 6", r, d)
		}
	}
	if d := parts[2].GlobalDegree(5); d != 2 {
		t.Errorf("GlobalDegree(5) = %d, want 2", d)
	}
	if d := parts[3].GlobalDegree(5); d != 2 {
		t.Errorf("replica GlobalDegree(5) = %d, want 2", d)
	}
}

func TestOwnerTable(t *testing.T) {
	ot, err := NewOwnerTable([]uint64{0, 3, 3, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	wantOwners := []int{0, 0, 0, 2, 2, 2, 3, 3}
	for v, want := range wantOwners {
		if got := ot.Master(graph.Vertex(v)); got != want {
			t.Errorf("Master(%d) = %d, want %d", v, got, want)
		}
	}
	if ot.P() != 4 || ot.NumVertices() != 8 {
		t.Fatal("table metadata wrong")
	}
}

func TestOwnerTableValidation(t *testing.T) {
	if _, err := NewOwnerTable([]uint64{1, 2}); err == nil {
		t.Error("table not starting at 0 accepted")
	}
	if _, err := NewOwnerTable([]uint64{0, 5, 3}); err == nil {
		t.Error("non-monotone table accepted")
	}
	if _, err := NewOwnerTable([]uint64{0}); err == nil {
		t.Error("single-entry table accepted")
	}
	if _, err := NewOwnerTable([]uint64{0, 5, 1 << 63}); err == nil {
		t.Error("table ending at 2^63 accepted")
	}
}

func TestOwnerTableOutOfRangePanics(t *testing.T) {
	ot, _ := NewOwnerTable([]uint64{0, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Master did not panic")
		}
	}()
	ot.Master(4)
}

// validateEdgeListBuild checks the structural invariants of an edge-list
// build against the original edge list.
func validateEdgeListBuild(t *testing.T, edges []graph.Edge, n uint64, parts []*Part) {
	t.Helper()
	p := len(parts)

	// (1) Balance: every rank holds |E|/p ± 1 edges.
	var total uint64
	for _, part := range parts {
		total += part.LocalEdges()
	}
	if total != uint64(len(edges)) {
		t.Fatalf("edges not conserved: %d stored, %d input", total, len(edges))
	}
	lo, hi := total/uint64(p), total/uint64(p)+1
	for r, part := range parts {
		if c := part.LocalEdges(); c < lo || c > hi {
			t.Errorf("rank %d holds %d edges, want %d..%d", r, c, lo, hi)
		}
	}

	// (2) Every input edge is stored exactly once, counting multiplicity.
	want := map[graph.Edge]int{}
	for _, e := range edges {
		want[e]++
	}
	for _, part := range parts {
		m := part.CSR
		for row := 0; row < m.NumRows(); row++ {
			src := part.Vertex(row)
			for _, dst := range m.Row(row) {
				want[graph.Edge{Src: src, Dst: dst.Vertex()}]--
			}
		}
	}
	for e, c := range want {
		if c != 0 {
			t.Fatalf("edge %v stored with multiplicity error %d", e, c)
		}
	}

	// (3) Every vertex has exactly one master, and that master has state.
	for v := uint64(0); v < n; v++ {
		owner := parts[0].Master(graph.Vertex(v))
		for r := 1; r < p; r++ {
			if parts[r].Master(graph.Vertex(v)) != owner {
				t.Fatalf("owner table disagrees across ranks for vertex %d", v)
			}
		}
		if _, ok := parts[owner].LocalIndex(graph.Vertex(v)); !ok {
			t.Fatalf("master %d has no state for vertex %d", owner, v)
		}
	}

	// (4) Global degrees.
	checkDegreeTable(t, edges, n, parts)
	deg := graph.OutDegrees(edges, n)

	// (5) Forward chains: following ShouldForward from the master visits
	// ranks whose local fragments sum to the full adjacency list.
	for v := uint64(0); v < n; v++ {
		owner := parts[0].Master(graph.Vertex(v))
		var sum uint64
		r := owner
		for hops := 0; ; hops++ {
			if hops > p {
				t.Fatalf("forward chain for vertex %d does not terminate", v)
			}
			if i, ok := parts[r].LocalIndex(graph.Vertex(v)); ok {
				sum += parts[r].CSR.Degree(i)
			}
			next, ok := parts[r].ShouldForward(graph.Vertex(v))
			if !ok {
				break
			}
			if next <= r {
				t.Fatalf("forward chain for vertex %d goes backwards (%d->%d)", v, r, next)
			}
			r = next
		}
		if sum != uint64(deg[v]) {
			t.Fatalf("vertex %d: fragments along chain sum to %d, want %d", v, sum, deg[v])
		}
	}
}

// checkDegreeTable is check (4) of every build: on every rank, GlobalDegree
// answers every vertex, held there or not, with its out-degree in the input;
// the table sums to GlobalEdges; and Hub is the highest degree, lowest id on
// ties (vertex 0 when all are 0, graph.Nil with no vertices).
func checkDegreeTable(t *testing.T, edges []graph.Edge, n uint64, parts []*Part) {
	t.Helper()
	deg := graph.OutDegrees(edges, n)
	hub := graph.Nil
	for v := len(deg) - 1; v >= 0; v-- {
		if hub == graph.Nil || deg[v] >= deg[hub] {
			hub = graph.Vertex(v)
		}
	}
	for r, part := range parts {
		var sum uint64
		for v := uint64(0); v < n; v++ {
			if got := part.GlobalDegree(graph.Vertex(v)); got != uint64(deg[v]) {
				t.Fatalf("rank %d: GlobalDegree(%d) = %d, want %d", r, v, got, deg[v])
			}
			sum += uint64(part.Degrees[v])
		}
		if uint64(len(part.Degrees)) != n || sum != part.GlobalEdges || sum != uint64(len(edges)) {
			t.Fatalf("rank %d: %d-entry table sums to %d, GlobalEdges %d, want %d entries and %d edges",
				r, len(part.Degrees), sum, part.GlobalEdges, n, len(edges))
		}
		if part.Hub != hub {
			t.Fatalf("rank %d: Hub = %d, want %d", r, part.Hub, hub)
		}
	}
}

func TestBuildEdgeListRandomGraphs(t *testing.T) {
	rng := xrand.New(77)
	for _, n := range []uint64{1, 2, 16, 64} {
		for _, p := range []int{1, 2, 3, 4, 8} {
			numEdges := int(n) * 4
			edges := make([]graph.Edge, numEdges)
			for i := range edges {
				edges[i] = graph.Edge{
					Src: graph.Vertex(rng.Uint64n(n)),
					Dst: graph.Vertex(rng.Uint64n(n)),
				}
			}
			parts := buildCollective(t, edges, n, p)
			validateEdgeListBuild(t, edges, n, parts)
		}
	}
}

func TestBuildEdgeListHubGraph(t *testing.T) {
	// A single dominant hub: vertex 0 has 1000 out-edges, everyone else 1.
	var edges []graph.Edge
	n := uint64(64)
	for i := 0; i < 1000; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.Vertex(uint64(i) % n)})
	}
	for v := uint64(1); v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: 0})
	}
	// The hub's adjacency must actually span multiple partitions: all three
	// of three, at least four of eight.
	for p, minChain := range map[int]int{1: 1, 3: 3, 8: 4} {
		parts := buildCollective(t, edges, n, p)
		validateEdgeListBuild(t, edges, n, parts)
		chain := 1
		r := parts[0].Master(0)
		for {
			next, ok := parts[r].ShouldForward(0)
			if !ok {
				break
			}
			r = next
			chain++
		}
		if chain < minChain {
			t.Fatalf("1000-edge hub spans only %d of %d partitions", chain, p)
		}
	}
}

func TestBuildEdgeListEmptyAndTinyInputs(t *testing.T) {
	parts := buildCollective(t, nil, 8, 4)
	for _, p := range parts {
		if p.LocalEdges() != 0 {
			t.Fatal("empty graph stored edges")
		}
	}
	// Each vertex must still have a master with state (for vertex-state
	// algorithms on edgeless graphs).
	for v := uint64(0); v < 8; v++ {
		owner := parts[0].Master(graph.Vertex(v))
		if _, ok := parts[owner].LocalIndex(graph.Vertex(v)); !ok {
			t.Fatalf("isolated vertex %d has no state anywhere", v)
		}
	}

	parts = buildCollective(t, []graph.Edge{{Src: 3, Dst: 5}}, 8, 4)
	validateEdgeListBuild(t, []graph.Edge{{Src: 3, Dst: 5}}, 8, parts)

	// No vertices, and only isolated ones, under both builders: the table
	// is empty or all zero, and the hub is graph.Nil or vertex 0.
	for _, p := range []int{1, 3, 8} {
		for _, n := range []uint64{0, 8} {
			checkDegreeTable(t, nil, n, buildWith(t, BuildEdgeList, nil, n, p))
			checkDegreeTable(t, nil, n, buildWith(t, oneD, nil, n, p))
		}
	}
}

func TestBuild1D(t *testing.T) {
	edges := figure3Edges()
	p := 4
	parts := make([]*Part, p)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := oneD(r, local, 8)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	// Block ownership: 2 vertices per rank.
	for v := uint64(0); v < 8; v++ {
		if got := parts[0].Master(graph.Vertex(v)); got != int(v/2) {
			t.Errorf("1D Master(%d) = %d, want %d", v, got, v/2)
		}
	}
	// Whole adjacency lists are local: vertex 2's 6 edges all on rank 1.
	if i, ok := parts[1].LocalIndex(2); !ok || parts[1].CSR.Degree(i) != 6 {
		t.Error("1D did not keep vertex 2's full adjacency on its owner")
	}
	// Never forwards.
	for _, part := range parts {
		if part.HasForward {
			t.Error("1D partition claims forwarding")
		}
	}
	// Edges conserved.
	var total uint64
	for _, part := range parts {
		total += part.LocalEdges()
	}
	if total != uint64(len(edges)) {
		t.Fatalf("1D stored %d edges, want %d", total, len(edges))
	}
	// Check (4), the degree table, on the figure, a hub graph and a random
	// multigraph; p = 8 over the figure's edges on 20 vertices leaves the
	// last rank no vertex at all.
	var hub []graph.Edge
	for i := 0; i < 300; i++ {
		hub = append(hub, graph.Edge{Src: 5, Dst: graph.Vertex(i % 40)}, graph.Edge{Src: graph.Vertex(i % 40), Dst: 5})
	}
	rng := xrand.New(13)
	var random []graph.Edge
	for i := 0; i < 400; i++ {
		random = append(random, graph.Edge{Src: graph.Vertex(rng.Uint64n(50)), Dst: graph.Vertex(rng.Uint64n(50))})
	}
	for _, g := range []struct {
		edges []graph.Edge
		n     uint64
	}{{edges, 8}, {edges, 20}, {hub, 40}, {random, 50}} {
		for _, p := range []int{1, 3, 8} {
			checkDegreeTable(t, g.edges, g.n, buildWith(t, oneD, g.edges, g.n, p))
		}
	}
}

func TestImbalanceMetric(t *testing.T) {
	if got := Imbalance([]uint64{4, 4, 4, 4}); got != 1 {
		t.Errorf("balanced imbalance = %v", got)
	}
	if got := Imbalance([]uint64{8, 0, 0, 0}); got != 4 {
		t.Errorf("worst-case imbalance = %v, want 4", got)
	}
	if got := Imbalance(nil); got != 1 {
		t.Errorf("empty imbalance = %v", got)
	}
	if got := Imbalance([]uint64{0, 0}); got != 1 {
		t.Errorf("all-zero imbalance = %v", got)
	}
}

func TestPartitioningImbalanceOrdering(t *testing.T) {
	// On a hub-heavy graph: 1D imbalance >> 2D imbalance, and edge-list is
	// perfectly balanced — the relationship of Figure 2.
	var edges []graph.Edge
	n := uint64(1 << 12)
	hubDeg := 4000
	for i := 0; i < hubDeg; i++ {
		edges = append(edges, graph.Edge{Src: 7, Dst: graph.Vertex(uint64(i) % n)})
	}
	rng := xrand.New(5)
	for i := 0; i < 4096; i++ {
		edges = append(edges, graph.Edge{
			Src: graph.Vertex(rng.Uint64n(n)),
			Dst: graph.Vertex(rng.Uint64n(n)),
		})
	}
	p := 16
	i1 := Imbalance(OneDEdgeCounts(edges, n, p))
	i2 := Imbalance(TwoDEdgeCounts(edges, n, p))
	iel := Imbalance(EdgeListEdgeCounts(uint64(len(edges)), p))
	if !(i1 > 2*i2) {
		t.Errorf("1D imbalance %v not clearly worse than 2D %v", i1, i2)
	}
	if iel > 1.01 {
		t.Errorf("edge-list imbalance %v, want ~1", iel)
	}
}

func TestTwoDEdgeCountsCoverAllEdges(t *testing.T) {
	edges := figure3Edges()
	for _, p := range []int{1, 4, 6, 9, 16} {
		counts := TwoDEdgeCounts(edges, 8, p)
		var sum uint64
		for _, c := range counts {
			sum += c
		}
		if sum != uint64(len(edges)) {
			t.Errorf("p=%d: 2D counts sum to %d, want %d", p, sum, len(edges))
		}
	}
}

func TestEdgeCodecRoundTrip(t *testing.T) {
	edges := figure3Edges()
	got := decodeEdgesInto(nil, encodeEdges(edges))
	if len(got) != len(edges) {
		t.Fatalf("round trip length %d, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d round-tripped to %v", i, got[i])
		}
	}
}

func TestBuildEdgeListSimple(t *testing.T) {
	// Duplicates and self loops scattered across ranks must be removed
	// globally.
	raw := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1},
		{Src: 2, Dst: 2}, // self loop
		{Src: 1, Dst: 0}, {Src: 3, Dst: 4}, {Src: 3, Dst: 4},
	}
	p := 3
	parts := make([]*Part, p)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range raw {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := BuildEdgeListSimple(r, local, 8)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	var total uint64
	stored := map[graph.Edge]int{}
	for _, part := range parts {
		total += part.LocalEdges()
		for row := 0; row < part.CSR.NumRows(); row++ {
			src := part.Vertex(row)
			for _, dst := range part.CSR.Row(row) {
				stored[graph.Edge{Src: src, Dst: dst.Vertex()}]++
			}
		}
	}
	if total != 3 {
		t.Fatalf("simplified build stored %d edges, want 3", total)
	}
	for _, e := range []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 3, Dst: 4}} {
		if stored[e] != 1 {
			t.Fatalf("edge %v stored %d times", e, stored[e])
		}
	}
	if stored[graph.Edge{Src: 2, Dst: 2}] != 0 {
		t.Fatal("self loop survived simplification")
	}
}

func TestBuildEdgeListSimpleMatchesGraphSimplify(t *testing.T) {
	rng := xrand.New(31)
	var raw []graph.Edge
	for i := 0; i < 600; i++ {
		raw = append(raw, graph.Edge{
			Src: graph.Vertex(rng.Uint64n(32)),
			Dst: graph.Vertex(rng.Uint64n(32)),
		})
	}
	want := graph.Simplify(append([]graph.Edge(nil), raw...))
	p := 4
	parts := make([]*Part, p)
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range raw {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := BuildEdgeListSimple(r, local, 32)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	var got []graph.Edge
	for _, part := range parts {
		for row := 0; row < part.CSR.NumRows(); row++ {
			src := part.Vertex(row)
			for _, dst := range part.CSR.Row(row) {
				got = append(got, graph.Edge{Src: src, Dst: dst.Vertex()})
			}
		}
	}
	graph.SortEdges(got)
	if len(got) != len(want) {
		t.Fatalf("simplified distributed build has %d edges, sequential %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// masterBySearch is the owner lookup Master replaced, a branchy binary
// search: the reference TestOwnerMasterMatchesSearch holds Master to.
func masterBySearch(start []uint64, v uint64) int {
	lo, hi := 0, len(start)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if start[mid+1] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestOwnerMasterMatchesSearch holds the branch-free Master to the binary
// search it replaced, over random boundary arrays of 1 to 70 ranks with
// empty ranges (a leading, trailing or interior rank mastering nothing) in
// many of them, at every vertex of every table — and to its panic past the
// last vertex.
func TestOwnerMasterMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 43))
	for trial := 0; trial < 2000; trial++ {
		p := 1 + rng.IntN(70)
		start := make([]uint64, p+1)
		for r := 1; r <= p; r++ {
			step := uint64(rng.IntN(6))
			if rng.IntN(3) == 0 {
				step = 0 // an empty range
			}
			start[r] = start[r-1] + step
		}
		if start[p] == 0 {
			start[p] = 1 // a table masters at least one vertex
		}
		ot, err := NewOwnerTable(start)
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v < start[p]; v++ {
			if got, want := ot.Master(graph.Vertex(v)), masterBySearch(start, v); got != want {
				t.Fatalf("table %v: Master(%d) = %d, the search says %d", start, v, got, want)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("table %v: Master(%d) did not panic", start, start[p])
				}
			}()
			ot.Master(graph.Vertex(start[p]))
		}()
	}
}

// BenchmarkOwnerMaster is one owner lookup at the benchmark's shape: 8 ranks
// over 2^15 vertices, random vertices.
func BenchmarkOwnerMaster(b *testing.B) {
	const p, n = 8, 1 << 15
	start := make([]uint64, p+1)
	for r := range start {
		start[r] = uint64(r) * n / p
	}
	ot, err := NewOwnerTable(start)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]graph.Vertex, 4096)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range vs {
		vs[i] = graph.Vertex(rng.Uint64N(n))
	}
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += ot.Master(vs[i&(len(vs)-1)])
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
