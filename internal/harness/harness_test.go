package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/ooc"
)

func tinySizing() Sizing {
	return Sizing{Seed: 42, MaxP: 4, VertsPerRankLog2: 9, HubScaleMax: 12, Sources: 2}
}

func TestRunBFSSmoke(t *testing.T) {
	res, err := RunBFS(BFSOpts{
		CommonOpts: CommonOpts{P: 4, Topology: "2d", Seed: 1},
		Graph:      RMATSpec(10, 1),
		Sources:    2,
		Ghosts:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TEPS <= 0 || res.TraversedEdges == 0 {
		t.Fatalf("BFS produced no work: %+v", res)
	}
	if res.Stats.VisitorsExecuted == 0 {
		t.Fatal("no visitors executed")
	}
	if res.GlobalEdges == 0 || res.NumVertices != 1024 {
		t.Fatalf("graph metadata wrong: %+v", res)
	}
}

// outOfCore is a fast simulated device at 1/8 resident with pages small
// enough that the test graphs span many of them.
func outOfCore() *ooc.Config {
	return &ooc.Config{ResidentFraction: 1.0 / 8, PageSize: 512, Latency: time.Microsecond}
}

// profilesSince returns the bfs phase profiles recorded after index before.
func profilesSince(before int) []PhaseProfile {
	var mine []PhaseProfile
	for _, p := range Profiles()[before:] {
		if p.Algo == "bfs" {
			mine = append(mine, p)
		}
	}
	return mine
}

// TestRunBFSOutOfCoreParks: the figures' out-of-core runs hide latency. The
// same sources at 1/8 resident reach what the DRAM-resident run reaches
// (both validated, which pins every level to its BFS distance), and the
// visits whose adjacency page was absent parked instead of blocking.
func TestRunBFSOutOfCoreParks(t *testing.T) {
	opts := BFSOpts{
		CommonOpts: CommonOpts{P: 2, Topology: "2d", Seed: 1},
		Graph:      RMATSpec(10, 1),
		Sources:    2,
		Ghosts:     64,
		Validate:   true,
	}
	dram, err := RunBFS(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := len(Profiles())
	opts.OOC = outOfCore()
	ext, err := RunBFS(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ext.TraversedEdges != dram.TraversedEdges || ext.MaxLevel != dram.MaxLevel {
		t.Fatalf("out of core reached %d edges to depth %d, DRAM %d to depth %d",
			ext.TraversedEdges, ext.MaxLevel, dram.TraversedEdges, dram.MaxLevel)
	}
	if ext.Cache.Misses == 0 {
		t.Fatal("out-of-core run never missed the page cache")
	}
	profs := profilesSince(before)
	if len(profs) != opts.Sources {
		t.Fatalf("recorded %d bfs profiles, want %d", len(profs), opts.Sources)
	}
	for _, p := range profs {
		if p.Metrics.Counter(obs.CoreParked) == 0 {
			t.Fatalf("profile %s: no visit parked on a missing page", p.Phase)
		}
	}
}

// TestRunBFSCacheStatsCoverEverySource: the reported cache counters sum over
// all sources, as TEPS does. At resident fraction 1 nothing is evicted, so a
// page faults once per run: three sources fault at least the pages the first
// one does, while the third alone, reached from the same giant component,
// faults almost none. No ghost table, whose build would fault every page in
// before the first source.
func TestRunBFSCacheStatsCoverEverySource(t *testing.T) {
	misses := func(sources int) uint64 {
		t.Helper()
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: 2, Seed: 3,
				OOC: &ooc.Config{ResidentFraction: 1, PageSize: 512, Latency: time.Microsecond}},
			Graph:   RMATSpec(10, 3),
			Sources: sources,
			Ghosts:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cache.Misses
	}
	one, three := misses(1), misses(3)
	if one == 0 || three < one {
		t.Fatalf("misses over 3 sources = %d, over its first source alone = %d", three, one)
	}
}

func TestRunKCoreSmoke(t *testing.T) {
	results, err := RunKCore(KCoreOpts{
		CommonOpts: CommonOpts{P: 3, Seed: 2},
		Graph:      RMATSpec(9, 2),
		Ks:         []uint32{2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("expected 2 results, got %d", len(results))
	}
	// Monotonicity: the 4-core is contained in the 2-core.
	if results[1].CoreSize > results[0].CoreSize {
		t.Fatalf("4-core (%d) larger than 2-core (%d)", results[1].CoreSize, results[0].CoreSize)
	}
}

func TestRunTrianglesSmoke(t *testing.T) {
	res, err := RunTriangles(TriangleOpts{
		CommonOpts: CommonOpts{P: 3, Seed: 3},
		Graph:      SWSpec(1<<9, 8, 0.05, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A low-rewire ring lattice of degree 8 is triangle-rich.
	if res.Triangles == 0 {
		t.Fatal("small-world graph reported zero triangles")
	}
	if res.MaxDegree == 0 {
		t.Fatal("max degree not computed")
	}
}

func TestFigure1Shape(t *testing.T) {
	tab := Figure1(tinySizing())
	if len(tab.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(tab.Rows))
	}
	// Hub series must grow with scale: compare first and last max-degree.
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	if first[3] >= last[3] && len(first[3]) >= len(last[3]) {
		t.Fatalf("max degree did not grow: %s -> %s", first[3], last[3])
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := Figure2(tinySizing())
	lastRow := tab.Rows[len(tab.Rows)-1]
	var i1d, iel float64
	if _, err := sscan(lastRow[2], &i1d); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(lastRow[4], &iel); err != nil {
		t.Fatal(err)
	}
	if i1d <= iel {
		t.Fatalf("1D imbalance %v not worse than edge-list %v", i1d, iel)
	}
	if iel > 1.01 {
		t.Fatalf("edge-list imbalance %v", iel)
	}
}

func TestFigure3MatchesPaper(t *testing.T) {
	tab := Figure3()
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 partitions, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "4" {
			t.Fatalf("partition %s has %s edges, want 4", row[0], row[1])
		}
		if row[5] != "0" || row[6] != "2" {
			t.Fatalf("owners wrong: min_owner(2)=%s min_owner(5)=%s", row[5], row[6])
		}
	}
}

func TestFigure4Route(t *testing.T) {
	tab := Figure4(tinySizing())
	found := false
	for _, row := range tab.Rows {
		if row[0] == "16" && row[1] == "2d" {
			if !strings.Contains(row[4], "[11 9 5]") {
				t.Fatalf("2D route = %s, want [11 9 5]", row[4])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("p=16 2d row missing")
	}
}

func TestFigure5Runs(t *testing.T) {
	tab := Figure5(tinySizing())
	if len(tab.Rows) != 3 { // p = 1, 2, 4
		t.Fatalf("expected 3 rows, got %d", len(tab.Rows))
	}
}

func TestFigure13GhostsImprove(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	s := tinySizing()
	s.VertsPerRankLog2 = 10
	tab := Figure13(s)
	// The last row is full coverage.
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "all" || last[3] == "0" {
		t.Fatalf("full coverage filtered nothing: %v", last)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "b"}, Notes: []string{"n"}}
	tab.AddRow(1, 2.5)
	out := tab.String()
	for _, want := range []string{"== t ==", "a", "b", "1", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// sscan parses a float.
func sscan(s string, f *float64) (int, error) {
	return fmt.Sscan(s, f)
}

// Full-figure smoke tests are moderately heavy; skip them in -short runs.

func TestFigure6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	tab := Figure6(tinySizing())
	if len(tab.Rows) != 9 { // 3 rank counts x 3 k values
		t.Fatalf("expected 9 rows, got %d", len(tab.Rows))
	}
}

func TestFigure7Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	tab := Figure7(tinySizing())
	if len(tab.Rows) != 12 { // 3 rank counts x 4 rewire probabilities
		t.Fatalf("expected 12 rows, got %d", len(tab.Rows))
	}
	// Rewire 0 (first row per p) must be triangle-rich; ring triangles decay
	// with rewire.
	var t0, t3 float64
	if _, err := sscan(tab.Rows[0][4], &t0); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[3][4], &t3); err != nil {
		t.Fatal(err)
	}
	if t0 <= t3 {
		t.Fatalf("rewiring should destroy triangles: %v -> %v", t0, t3)
	}
}

func TestFigure8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	s := tinySizing()
	s.MaxP = 2
	tab := Figure8(s)
	if len(tab.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(tab.Rows))
	}
}

// TestFigure9DataScalingShape gates Fig. 9 on counts, not timings: six
// graphs at fixed compute, the data:cache ratio doubling from 1x to 32x, and
// a cache that hits less once it holds 1/32 of the edges than when it holds
// them all.
func TestFigure9DataScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	tab := Figure9(tinySizing())
	if len(tab.Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if want := fmt.Sprintf("%dx", 1<<i); row[1] != want {
			t.Fatalf("row %d: data-vs-cache %s, want %s", i, row[1], want)
		}
	}
	var first, last float64
	if _, err := sscan(tab.Rows[0][5], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[5][5], &last); err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("cache hit rate did not fall with the data: %v%% at 1x, %v%% at 32x", first, last)
	}
}

func TestFigure10DiameterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	tab := Figure10(tinySizing())
	// BFS depth must increase as rewire decreases (rows are ordered from
	// high rewire to low).
	var first, last float64
	if _, err := sscan(tab.Rows[0][1], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[len(tab.Rows)-1][1], &last); err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Fatalf("diameter did not grow as rewire fell: depth %v -> %v", first, last)
	}
}

func TestFigure11MaxDegreeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	tab := Figure11(tinySizing())
	// Max degree must grow as rewire falls (rows ordered 1.0 -> 0.0).
	var first, last float64
	if _, err := sscan(tab.Rows[0][1], &first); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(tab.Rows[len(tab.Rows)-1][1], &last); err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Fatalf("max degree did not grow as rewire fell: %v -> %v", first, last)
	}
}

func TestFigure12Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	tab := Figure12(tinySizing())
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(tab.Rows))
	}
}

func TestTableIIRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy figure runner")
	}
	s := tinySizing()
	tab := TableII(s)
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 machine rows, got %d", len(tab.Rows))
	}
}

func TestRunBFSWithValidation(t *testing.T) {
	res, err := RunBFS(BFSOpts{
		CommonOpts: CommonOpts{P: 3, Topology: "2d", Seed: 4},
		Graph:      RMATSpec(9, 4),
		Sources:    2,
		Ghosts:     64,
		Validate:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TEPS <= 0 {
		t.Fatal("no TEPS")
	}
}

func TestExtensionsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	tab := Extensions(tinySizing())
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 extension rows, got %d", len(tab.Rows))
	}
}

func TestPickSourcesDeterministicWithEdges(t *testing.T) {
	e, err := (CommonOpts{P: 3, Seed: 6}).setup(RMATSpec(9, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	srcs := pickSources(e.parts, 4, 6)
	if len(srcs) != 4 {
		t.Fatalf("wanted 4 sources, got %d", len(srcs))
	}
	again := pickSources(e.parts, 4, 6)
	for i, v := range srcs {
		if again[i] != v {
			t.Fatalf("source %d differs between two picks of one seed", i)
		}
		if e.parts[0].GlobalDegree(v) == 0 {
			t.Fatalf("picked source %d has no edges", v)
		}
	}
}
