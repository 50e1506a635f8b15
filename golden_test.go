package havoqgt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/engine"
	"havoqgt/internal/obs"
)

// goldenHashes are FNV-1a hashes of every query type's deterministic output
// on GenerateRMAT(12, 42, {Ranks: 8, Topology: "2d", Simplify: true}),
// recorded through the facade at the commit before the classic executor was
// removed (PR 11, 9529f61). BFS/SSSP parents are excluded: BFS's depend on
// arrival order among equal-cost alternatives (cluster.HashResult excludes
// them for the same reason), and SSSP's did until its rounds took the
// smaller parent on equal distances.
var goldenHashes = map[string]uint64{
	"bfs":       0x16e372a9a7e3d76e,
	"bfs_do":    0x16e372a9a7e3d76e,
	"sssp":      0x51a91e68c93d821b,
	"cc":        0xcd5403dcb8fd82f3,
	"kcore":     0xbb1c2f5993bfca13,
	"pagerank":  0x1dfe6634fc2e8e58,
	"triangles": 0x16cd2e6b704c36d1,
	"estimate":  0x190822ae263481cb,
}

func hashU64s(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

func widen[T ~uint32 | ~uint64](in []T, extra ...uint64) []uint64 {
	out := make([]uint64, 0, len(in)+len(extra))
	for _, v := range in {
		out = append(out, uint64(v))
	}
	return append(out, extra...)
}

// goldenRun answers all seven query types plus EstimateTriangles through the
// facade and returns one hash per type.
func goldenRun(t *testing.T, g *Graph) map[string]uint64 {
	t.Helper()
	var src Vertex
	for v := Vertex(0); uint64(v) < g.NumVertices(); v++ {
		if d, _ := g.Degree(v); d > 0 {
			src = v
			break
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]uint64{}

	bfs, err := g.BFS(src)
	must(err)
	got["bfs"] = hashU64s(widen(bfs.Levels)...)
	do, err := g.BFSDirOpt(src)
	must(err)
	got["bfs_do"] = hashU64s(widen(do.Levels)...)
	sp, err := g.ShortestPaths(src, 7)
	must(err)
	got["sssp"] = hashU64s(sp.Distances...)
	cc, err := g.Components()
	must(err)
	got["cc"] = hashU64s(widen(cc.Labels, cc.Count)...)
	kc, err := g.KCore(4)
	must(err)
	in := make([]uint64, len(kc.InCore), len(kc.InCore)+1)
	for v, alive := range kc.InCore {
		if alive {
			in[v] = 1
		}
	}
	got["kcore"] = hashU64s(append(in, kc.CoreSize)...)
	pr, err := g.PageRank(5)
	must(err)
	got["pagerank"] = hashU64s(pr.Ranks...)
	tri, err := g.CountTriangles()
	must(err)
	got["triangles"] = hashU64s(tri)
	est, err := g.EstimateTriangles(0.25, 9)
	must(err)
	got["estimate"] = hashU64s(math.Float64bits(est))
	return got
}

func goldenGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateRMAT(12, 42, Options{Ranks: 8, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkGolden(t *testing.T, got map[string]uint64) {
	t.Helper()
	for name, want := range goldenHashes {
		if got[name] != want {
			t.Errorf("%s: hash %#x, golden %#x", name, got[name], want)
		}
	}
}

// TestGoldenHashes pins every query type's output across the executor
// change, in the three ways a facade call can run — on a transient engine,
// on an attached engine, and out of core at 1/8 resident adjacency — and on
// an attached engine whose every message takes a modeled 1 ms to arrive.
func TestGoldenHashes(t *testing.T) {
	t.Run("unattached", func(t *testing.T) {
		checkGolden(t, goldenRun(t, goldenGraph(t)))
	})
	attached := func(t *testing.T, latency time.Duration) {
		g := goldenGraph(t)
		g.SetSimLatency(latency)
		e, err := g.StartEngine(EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		checkGolden(t, goldenRun(t, g))
	}
	t.Run("attached", func(t *testing.T) { attached(t, 0) })
	t.Run("modeled-latency", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two seconds plain, half a minute under -race")
		}
		attached(t, time.Millisecond)
	})
	t.Run("out-of-core", func(t *testing.T) {
		if testing.Short() {
			t.Skip("a minute and a half under -race; check's differential sweep parks every algorithm there")
		}
		// 1/8 resident is four cache frames a rank at this scale, so the
		// triangle kernels fault tens of thousands of times; the simulated
		// device answers in 1µs instead of its default 25µs to keep the run
		// in seconds. Latency changes no code path, only the waiting.
		g := goldenGraph(t)
		if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 1.0 / 8, DeviceLatency: time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		defer g.ResetMemoryBudget()
		checkGolden(t, goldenRun(t, g))
	})
}

// The count ledger: what every query type does, in the counters the system
// already keeps. A count the schedule cannot move is an exact cell. One it
// can is a band, measured rather than chosen: the range over at least 140
// runs, idle and beside `go test ./...` on 2 vCPUs, widened by its spread
// plus 1% (allocation 10%) above and by half of it plus as much below, to no
// less than half the lowest, and rounded outward to three digits. Waves,
// which count how many detection waves fit in a query's idle time, run from
// the detector's minimum of 2 to twice the highest seen. A bound a deleted budget
// test held caps its band. A moved row is a reviewed diff of this table, like
// a moved golden hash, and `git log -p` on it is the ledger's trajectory.
//
// Every row runs its query on a transient engine (engine.RunOnce, what a
// one-shot facade call does) twice and counts the second run: the first
// warms what a closed mailbox hands the next one built, and the page cache.
// The graphs are the benchmark's (scale 15) and the golden one (scale 12),
// each built once with 8 ranks, seed 42 and Simplify; topology is the
// engine's, so one build serves 1d and 2d. A row runs resident (frac 1) or
// with 1/8 of its adjacency resident (frac 8) on the simulated device, whose
// latency, 25 µs at scale 15 and 1 µs at scale 12, changes only the waiting.
type ledgerRow struct {
	scale uint
	query string // ledgerSpec's name for it
	topo  string
	frac  int // 1/frac of the adjacency is resident
	want  ledgerCounts
}

// A ledger column is a counter summed over ranks (core.Sum) or read from the
// machine: mailbox bytes are the envelope bytes shipped, waves the root
// detector's, misses and fetches the page cache's device fault-ins and the
// pager's demand fetches, and allocKB the kilobytes (10³ bytes) the process
// allocated during the query.
const (
	pushed = iota
	filtered
	local
	executed
	records
	protocol
	relaxed
	hops
	envelopes
	mbytes
	waves
	parks
	misses
	fetches
	allocKB
	ncols
)

var ledgerCols = [ncols]string{"pushed", "filtered", "local", "executed", "records", "protocol", "relaxed",
	"hops", "envelopes", "mbytes", "waves", "parks", "misses", "fetches", "allocKB"}

// ledgerCounts is a row's cells; a cell a row leaves out is exactly zero.
type ledgerCounts [ncols]cell

// cell is the range a count must fall in: exact when lo == hi.
type cell struct{ lo, hi uint64 }

func x(v uint64) cell       { return cell{v, v} }
func in(lo, hi uint64) cell { return cell{lo, hi} }

// ledger holds every engine.Algos() type at scale 15 but triangles, whose
// exact count out of core takes a minute and a half per query there; bfs_do
// from an isolated vertex; cc's flood (ccFlood); and SSSP, k-core and
// PageRank without a ghost table, which none of them reads, so their counts
// match. BFS,
// bfs_do and SSSP start at the first vertex of degree at least 8, which
// reaches 24,155 vertices, with SSSP's weight seed 7; k-core peels k = 64 and
// PageRank runs 3 iterations, as bench/'s analytics round does. At scale 12,
// triangles counts every wedge and estimate samples a quarter of them (seed
// 9), as the golden hashes do.
//
// What the exact cells say, and the caps:
//   - Resident BFS executes 1–1.5 visits per reached vertex (24,155 to
//     36,232), sends at most 300 K records and allocates at most 10 MB; an
//     asynchronous traversal re-visits a vertex whose better level arrives
//     late, and a split row is visited on every rank holding a piece.
//   - bfs_do from an isolated vertex scans level 0, sends its empty
//     contribution to each peer and ends: p(p−1) = 56 records on 8 ranks.
//   - k-core(64)'s first peel is a dense round: 2,095 of the 32,768 vertices
//     have degree ≥ 64, the other 30,673 die in round 0 without a visit, and
//     the cascade visits a vertex once, when it leaves: 2,095 − 1,941 (the
//     64-core) = 154 visits. It sends p(p−1) records in round 0 and one per
//     cascade push not applied in place, 6,709 in all, whatever the ghost
//     table, since k-core reads none.
//   - PageRank(3) executes no visitor. Each round is one record from every
//     rank to every peer, and after the first a split row's contribution
//     goes once down its replica chain, to each of the 7 ranks whose first
//     row is a non-master fragment: 56·3 + 2·7 = 182 records.
//   - SSSP runs bulk-synchronous Δ-stepping at Δ = 16: exactly 46 rounds of
//     p(p−1) records, 2,576, and 1,507,748 relaxations, executing no visitor.
//   - k-core(64) allocates at most 1.5 MB resident on 2d, and PageRank(3)
//     at most 4 MB.
//   - cc marks the hub's component first, in 282 records; its label
//     propagation over the 1–3-vertex components left is the band, capped
//     with the rest at 1,000 visits and 1,000 records. Its flood visits at
//     most 200 K times and sends at most 470 K records resident on 2d.
var ledger = []ledgerRow{
	{15, "bfs", "1d", 1, ledgerCounts{pushed: in(871_000, 914_000), filtered: in(666_000, 701_000), local: in(108_000, 113_000), executed: in(24_155, 32_600), records: in(97_300, 101_000), hops: in(97_300, 101_000), envelopes: in(489, 802), mbytes: in(1_950_000, 2_020_000), waves: in(2, 36), allocKB: in(1_900, 10_000)}},
	{15, "bfs", "2d", 1, ledgerCounts{pushed: in(816_000, 1_150_000), filtered: in(627_000, 864_000), local: in(101_000, 142_000), executed: in(24_155, 36_232), records: in(87_300, 141_000), hops: in(124_000, 201_000), envelopes: in(575, 1_220), mbytes: in(2_510_000, 4_040_000), waves: in(2, 44), allocKB: in(1_890, 10_000)}},
	{15, "bfs_do", "1d", 1, ledgerCounts{records: x(284), protocol: x(284), hops: x(284), envelopes: in(245, 269), mbytes: in(133_000, 138_000), waves: in(2, 22), allocKB: in(945, 1_540)}},
	{15, "bfs_do", "2d", 1, ledgerCounts{records: x(284), protocol: x(284), hops: x(405), envelopes: in(153, 243), mbytes: in(190_000, 196_000), waves: in(2, 22), allocKB: in(951, 1_500)}},
	{15, "bfs_do isolated", "1d", 1, ledgerCounts{records: x(56), protocol: x(56), hops: x(56), envelopes: x(56), mbytes: x(1_624), waves: in(2, 8), allocKB: in(943, 1_280)}},
	{15, "bfs_do isolated", "2d", 1, ledgerCounts{records: x(56), protocol: x(56), hops: x(80), envelopes: in(34, 51), mbytes: in(1_960, 2_250), waves: in(2, 8), allocKB: in(939, 1_290)}},
	{15, "sssp", "1d", 1, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(2_576), envelopes: x(2_576), mbytes: x(4_281_786), waves: in(2, 58), allocKB: in(15_700, 27_600)}},
	{15, "sssp no ghosts", "1d", 1, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(2_576), envelopes: x(2_576), mbytes: x(4_281_786), waves: in(2, 56), allocKB: in(14_900, 28_400)}},
	{15, "sssp", "2d", 1, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(3_680), envelopes: in(1_710, 2_350), mbytes: in(6_040_000, 6_180_000), waves: in(2, 68), allocKB: in(15_900, 25_800)}},
	{15, "sssp no ghosts", "2d", 1, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(3_680), envelopes: in(1_720, 2_310), mbytes: in(6_040_000, 6_180_000), waves: in(2, 72), allocKB: in(15_800, 25_500)}},
	{15, "cc", "1d", 1, ledgerCounts{pushed: in(27, 49), local: x(16), executed: in(8, 49), records: in(291, 318), protocol: x(282), hops: in(291, 318), envelopes: in(253, 297), mbytes: in(125_000, 130_000), waves: in(2, 24), allocKB: in(1_500, 2_320)}},
	{15, "cc", "2d", 1, ledgerCounts{pushed: in(26, 53), local: x(16), executed: in(8, 49), records: in(290, 322), protocol: x(282), hops: in(412, 452), envelopes: in(175, 260), mbytes: in(178_000, 184_000), waves: in(2, 28), allocKB: in(1_510, 2_250)}},
	{15, "cc flood", "1d", 1, ledgerCounts{pushed: in(507_000, 4_040_000), filtered: in(366_000, 3_000_000), local: in(77_300, 533_000), executed: in(36_600, 255_000), records: in(63_500, 507_000), hops: in(63_500, 507_000), envelopes: in(308, 2_270), mbytes: in(1_080_000, 8_650_000), waves: in(2, 40), allocKB: in(3_080, 19_600)}},
	{15, "cc flood", "2d", 1, ledgerCounts{pushed: in(612_000, 4_580_000), filtered: in(442_000, 3_430_000), local: in(90_600, 602_000), executed: in(41_900, 200_000), records: in(78_900, 470_000), hops: in(112_000, 781_000), envelopes: in(487, 3_210), mbytes: in(1_930_000, 13_400_000), waves: in(2, 52), allocKB: in(3_240, 19_300)}},
	{15, "kcore", "1d", 1, ledgerCounts{pushed: in(7_630, 7_820), local: in(1_040, 1_100), executed: x(154), records: x(6_709), protocol: x(56), hops: x(6_709), envelopes: in(100, 121), mbytes: in(231_000, 237_000), waves: in(2, 12), allocKB: in(674, 1_320)}},
	{15, "kcore", "2d", 1, ledgerCounts{pushed: in(7_630, 7_820), local: in(1_040, 1_100), executed: x(154), records: x(6_709), protocol: x(56), hops: x(9_678), envelopes: in(70, 136), mbytes: in(331_000, 340_000), waves: in(2, 12), allocKB: in(665, 1_470)}},
	{15, "kcore no ghosts", "1d", 1, ledgerCounts{pushed: in(7_630, 7_820), local: in(1_040, 1_100), executed: x(154), records: x(6_709), protocol: x(56), hops: x(6_709), envelopes: in(100, 121), mbytes: in(231_000, 237_000), waves: in(2, 14), allocKB: in(677, 1_310)}},
	{15, "kcore no ghosts", "2d", 1, ledgerCounts{pushed: in(7_630, 7_820), local: in(1_040, 1_100), executed: x(154), records: x(6_709), protocol: x(56), hops: x(9_678), envelopes: in(69, 140), mbytes: in(331_000, 341_000), waves: in(2, 12), allocKB: in(661, 1_410)}},
	{15, "pagerank", "1d", 1, ledgerCounts{records: x(182), protocol: x(182), hops: x(182), envelopes: in(166, 185), mbytes: x(2_956_730), waves: in(2, 20), allocKB: in(1_460, 7_010)}},
	{15, "pagerank", "2d", 1, ledgerCounts{records: x(182), protocol: x(182), hops: x(256), envelopes: in(238, 259), mbytes: x(4_224_172), waves: in(2, 20), allocKB: in(1_660, 4_000)}},
	{15, "pagerank no ghosts", "1d", 1, ledgerCounts{records: x(182), protocol: x(182), hops: x(182), envelopes: in(165, 187), mbytes: x(2_956_730), waves: in(2, 22), allocKB: in(1_760, 4_810)}},
	{15, "pagerank no ghosts", "2d", 1, ledgerCounts{records: x(182), protocol: x(182), hops: x(256), envelopes: in(237, 260), mbytes: x(4_224_172), waves: in(2, 20), allocKB: in(1_710, 4_000)}},
	{15, "bfs", "1d", 8, ledgerCounts{pushed: in(877_000, 977_000), filtered: in(650_000, 710_000), local: in(108_000, 122_000), executed: in(30_100, 42_700), records: in(116_000, 147_000), hops: in(116_000, 147_000), envelopes: in(1_200, 3_040), mbytes: in(2_360_000, 2_970_000), waves: in(2, 140), parks: in(25_800, 37_100), misses: in(2_320, 6_390), fetches: in(1_730, 5_670), allocKB: in(2_100, 14_100)}},
	{15, "bfs", "2d", 8, ledgerCounts{pushed: in(866_000, 1_020_000), filtered: in(645_000, 730_000), local: in(107_000, 126_000), executed: in(28_000, 49_400), records: in(112_000, 163_000), hops: in(161_000, 232_000), envelopes: in(1_200, 2_380), mbytes: in(3_260_000, 4_680_000), waves: in(2, 140), parks: in(24_100, 43_600), misses: in(2_480, 6_000), fetches: in(1_850, 5_350), allocKB: in(2_100, 12_000)}},
	{15, "bfs_do", "1d", 8, ledgerCounts{records: x(284), protocol: x(284), hops: x(284), envelopes: in(269, 295), mbytes: in(134_000, 138_000), waves: in(2, 290), parks: in(41_500, 44_200), misses: in(4_380, 4_630), fetches: in(3_780, 3_950), allocKB: in(2_310, 3_860)}},
	{15, "bfs_do", "2d", 8, ledgerCounts{records: x(284), protocol: x(284), hops: x(405), envelopes: in(210, 303), mbytes: in(190_000, 196_000), waves: in(2, 200), parks: in(41_600, 44_000), misses: in(4_390, 4_610), fetches: in(3_780, 3_940), allocKB: in(2_360, 3_680)}},
	{15, "bfs_do isolated", "1d", 8, ledgerCounts{records: x(56), protocol: x(56), hops: x(56), envelopes: x(56), mbytes: x(1_624), waves: in(2, 8), allocKB: in(945, 1_280)}},
	{15, "bfs_do isolated", "2d", 8, ledgerCounts{records: x(56), protocol: x(56), hops: x(80), envelopes: in(34, 51), mbytes: in(1_960, 2_250), waves: in(2, 8), allocKB: in(939, 1_290)}},
	{15, "sssp", "1d", 8, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(2_576), envelopes: in(2_400, 2_620), mbytes: in(4_230_000, 4_330_000), waves: in(2, 586), parks: in(24_100, 25_200), misses: in(14_700, 15_400), fetches: in(13_500, 14_100), allocKB: in(17_300, 24_800)}},
	{15, "sssp no ghosts", "1d", 8, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(2_576), envelopes: in(2_380, 2_660), mbytes: in(4_230_000, 4_330_000), waves: in(2, 502), parks: in(24_100, 25_300), misses: in(14_700, 15_400), fetches: in(13_500, 14_100), allocKB: in(16_700, 26_400)}},
	{15, "sssp", "2d", 8, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(3_680), envelopes: in(2_040, 2_490), mbytes: in(6_040_000, 6_180_000), waves: in(2, 650), parks: in(24_200, 25_200), misses: in(14_700, 15_400), fetches: in(13_500, 14_100), allocKB: in(16_700, 25_800)}},
	{15, "sssp no ghosts", "2d", 8, ledgerCounts{records: x(2_576), protocol: x(2_576), relaxed: x(1_507_748), hops: x(3_680), envelopes: in(2_020, 2_500), mbytes: in(6_040_000, 6_180_000), waves: in(2, 522), parks: in(24_100, 25_300), misses: in(14_700, 15_400), fetches: in(13_500, 14_100), allocKB: in(16_900, 24_900)}},
	{15, "cc", "1d", 8, ledgerCounts{pushed: in(27, 49), local: x(16), executed: in(8, 49), records: in(291, 318), protocol: x(282), hops: in(291, 318), envelopes: in(275, 325), mbytes: in(125_000, 130_000), waves: in(2, 208), parks: in(36_400, 37_800), misses: in(3_370, 3_540), fetches: in(3_190, 3_340), allocKB: in(3_000, 4_360)}},
	{15, "cc", "2d", 8, ledgerCounts{pushed: in(26, 55), local: x(16), executed: in(8, 49), records: in(289, 324), protocol: x(282), hops: in(412, 454), envelopes: in(219, 335), mbytes: in(178_000, 185_000), waves: in(2, 212), parks: in(36_200, 38_200), misses: in(3_370, 3_530), fetches: in(3_200, 3_350), allocKB: in(2_910, 4_440)}},
	{15, "cc flood", "1d", 8, ledgerCounts{pushed: in(589_000, 3_190_000), filtered: in(414_000, 2_210_000), local: in(101_000, 425_000), executed: in(48_800, 252_000), records: in(84_100, 599_000), hops: in(84_100, 599_000), envelopes: in(899, 6_040), mbytes: in(1_440_000, 10_300_000), waves: in(2, 178), parks: in(34_600, 213_000), misses: in(1_440, 10_300), fetches: in(1_320, 8_040), allocKB: in(3_700, 20_600)}},
	{15, "cc flood", "2d", 8, ledgerCounts{pushed: in(523_000, 3_140_000), filtered: in(377_000, 2_180_000), local: in(92_600, 418_000), executed: in(40_900, 238_000), records: in(74_200, 575_000), hops: in(106_000, 821_000), envelopes: in(803, 4_880), mbytes: in(1_820_000, 14_100_000), waves: in(2, 112), parks: in(30_900, 196_000), misses: in(1_580, 8_150), fetches: in(1_730, 6_230), allocKB: in(4_100, 18_400)}},
	{15, "kcore", "1d", 8, ledgerCounts{pushed: in(7_630, 7_830), local: in(1_040, 1_110), executed: x(154), records: x(6_709), protocol: x(56), hops: x(6_709), envelopes: in(113, 592), mbytes: in(231_000, 245_000), waves: in(2, 124), parks: in(18_000, 19_300), misses: in(1_440, 1_530), fetches: in(1_370, 1_440), allocKB: in(1_240, 2_200)}},
	{15, "kcore", "2d", 8, ledgerCounts{pushed: in(7_630, 7_830), local: in(1_040, 1_110), executed: x(154), records: x(6_709), protocol: x(56), hops: x(9_678), envelopes: in(79, 434), mbytes: in(332_000, 347_000), waves: in(2, 122), parks: in(18_100, 19_400), misses: in(1_450, 1_540), fetches: in(1_370, 1_460), allocKB: in(1_250, 2_220)}},
	{15, "kcore no ghosts", "1d", 8, ledgerCounts{pushed: in(7_630, 7_830), local: in(1_040, 1_110), executed: x(154), records: x(6_709), protocol: x(56), hops: x(6_709), envelopes: in(137, 494), mbytes: in(232_000, 243_000), waves: in(2, 154), parks: in(18_000, 19_500), misses: in(1_450, 1_550), fetches: in(1_370, 1_460), allocKB: in(1_080, 2_810)}},
	{15, "kcore no ghosts", "2d", 8, ledgerCounts{pushed: in(7_630, 7_820), local: in(1_050, 1_100), executed: x(154), records: x(6_709), protocol: x(56), hops: x(9_678), envelopes: in(80, 438), mbytes: in(332_000, 348_000), waves: in(2, 116), parks: in(18_000, 19_300), misses: in(1_450, 1_540), fetches: in(1_380, 1_450), allocKB: in(1_250, 2_180)}},
	{15, "pagerank", "1d", 8, ledgerCounts{records: x(182), protocol: x(182), hops: x(182), envelopes: x(182), mbytes: x(2_956_730), waves: in(2, 136), parks: in(62_700, 65_700), misses: in(4_550, 4_810), fetches: in(4_480, 4_620), allocKB: in(2_810, 5_490)}},
	{15, "pagerank", "2d", 8, ledgerCounts{records: x(182), protocol: x(182), hops: x(256), envelopes: in(251, 260), mbytes: x(4_224_172), waves: in(2, 94), parks: in(62_700, 66_200), misses: in(4_550, 4_840), fetches: in(4_470, 4_650), allocKB: in(2_660, 5_470)}},
	{15, "pagerank no ghosts", "1d", 8, ledgerCounts{records: x(182), protocol: x(182), hops: x(182), envelopes: x(182), mbytes: x(2_956_730), waves: in(2, 130), parks: in(62_700, 65_900), misses: in(4_540, 4_840), fetches: in(4_480, 4_620), allocKB: in(2_650, 5_270)}},
	{15, "pagerank no ghosts", "2d", 8, ledgerCounts{records: x(182), protocol: x(182), hops: x(256), envelopes: in(251, 260), mbytes: x(4_224_172), waves: in(2, 104), parks: in(62_500, 66_200), misses: in(4_550, 4_850), fetches: in(4_470, 4_630), allocKB: in(2_660, 5_300)}},
	{12, "triangles", "1d", 1, ledgerCounts{pushed: x(2_912_231), local: x(545_455), executed: x(2_947_276), records: x(2_401_821), hops: x(2_401_821), envelopes: in(13_900, 14_400), mbytes: in(57_200_000, 58_500_000), waves: in(2, 132), allocKB: in(229_000, 632_000)}},
	{12, "triangles", "2d", 1, ledgerCounts{pushed: x(2_912_231), local: x(545_455), executed: x(2_947_276), records: x(2_401_821), hops: x(3_265_754), envelopes: in(18_500, 19_300), mbytes: in(77_900_000, 79_600_000), waves: in(2, 124), allocKB: in(166_000, 684_000)}},
	{12, "estimate", "1d", 1, ledgerCounts{pushed: x(767_248), local: x(143_535), executed: x(776_548), records: x(633_013), hops: x(633_013), envelopes: in(3_610, 4_120), mbytes: in(15_000_000, 15_500_000), waves: in(2, 112), allocKB: in(27_400, 188_000)}},
	{12, "estimate", "2d", 1, ledgerCounts{pushed: x(767_248), local: x(143_535), executed: x(776_548), records: x(633_013), hops: x(863_024), envelopes: in(4_840, 5_370), mbytes: in(20_500_000, 21_100_000), waves: in(2, 82), allocKB: in(43_300, 174_000)}},
	{12, "estimate", "2d", 8, ledgerCounts{pushed: x(767_248), local: x(143_535), executed: x(776_548), records: x(633_013), hops: x(863_024), envelopes: in(5_100, 6_040), mbytes: in(20_600_000, 21_100_000), waves: in(2, 1_888), parks: in(656_000, 685_000), misses: in(25_200, 33_700), fetches: in(2_290, 5_970), allocKB: in(53_300, 142_000)}},
}

// ledgerRatios bound, on every row of a query, a ratio of two cells that
// their bands do not imply. BFS ships a 20-byte visitor in runs of its tag
// and width at about 20 mailbox bytes a routed record-hop (32 framed alone),
// and the ghost filter drops at least 0.70 of its pushes.
var ledgerRatios = []struct {
	query    string
	num, den int
	lo, hi   float64
}{
	{"bfs", mbytes, hops, 0, 21},
	{"bfs", filtered, pushed, 0.70, 1},
}

// ledgerSpec is the query a ledger row names on g, and the ghost tables it
// runs with.
func ledgerSpec(t *testing.T, g *Graph, query string) (engine.Spec, []*core.GhostTable) {
	var src, isolated Vertex
	for d, _ := g.Degree(src); d < 8; d, _ = g.Degree(src) {
		src++
	}
	for d, _ := g.Degree(isolated); d > 0; d, _ = g.Degree(isolated) {
		isolated++
	}
	switch query {
	case "bfs":
		return engine.Spec{Algo: engine.AlgoBFS, Source: src}, g.ghosts
	case "bfs_do":
		return engine.Spec{Algo: engine.AlgoBFSDO, Source: src}, g.ghosts
	case "bfs_do isolated":
		return engine.Spec{Algo: engine.AlgoBFSDO, Source: isolated}, g.ghosts
	case "sssp", "sssp no ghosts":
		return engine.Spec{Algo: engine.AlgoSSSP, Source: src, WeightSeed: 7}, ledgerGhosts(g, query)
	case "cc":
		return engine.Spec{Algo: engine.AlgoCC}, g.ghosts
	case "cc flood":
		return ccFlood(g.NumVertices()), g.ghosts
	case "kcore", "kcore no ghosts":
		return engine.Spec{Algo: engine.AlgoKCore, K: 64}, ledgerGhosts(g, query)
	case "pagerank", "pagerank no ghosts":
		return engine.Spec{Algo: engine.AlgoPageRank, Iters: 3}, ledgerGhosts(g, query)
	case "triangles":
		return engine.Spec{Algo: engine.AlgoTriangles}, g.ghosts
	case "estimate":
		return engine.Spec{Algo: engine.AlgoTriangles, SampleProb: 0.25, SampleSeed: 9}, g.ghosts
	}
	t.Fatalf("no ledger query %q", query)
	return engine.Spec{}, nil
}

func ledgerGhosts(g *Graph, query string) []*core.GhostTable {
	if strings.HasSuffix(query, " no ghosts") {
		return core.BuildGhostTables(g.parts, -1)
	}
	return g.ghosts
}

// ledgerRun runs spec twice on cfg and returns the second run's counts.
func ledgerRun(t *testing.T, g *Graph, cfg engine.Config, spec engine.Spec) [ncols]uint64 {
	if _, _, err := engine.RunOnce(cfg, engine.Options{}, spec); err != nil {
		t.Fatal(err)
	}
	g.machine.ResetStats()
	dev0 := g.stores.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, stats, err := engine.RunOnce(cfg, engine.Options{}, spec)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	dev := g.stores.Stats()
	s := core.Sum(stats)
	if s.Pushed-s.GhostFiltered-s.Local+s.Forwarded+s.ProtocolSent != s.Mailbox.RecordsSent {
		t.Errorf("pushed %d − ghost-filtered %d − applied in place %d + forwarded %d + protocol %d != %d records sent: a push took no outcome, or two",
			s.Pushed, s.GhostFiltered, s.Local, s.Forwarded, s.ProtocolSent, s.Mailbox.RecordsSent)
	}
	return [ncols]uint64{
		pushed: s.Pushed, filtered: s.GhostFiltered, local: s.Local, executed: s.Executed,
		records: s.Mailbox.RecordsSent, protocol: s.ProtocolSent, relaxed: s.Relaxed,
		hops: s.Mailbox.Hops, envelopes: s.Mailbox.EnvelopesSent,
		mbytes: g.machine.Obs().Snapshot().Histograms[obs.MBEnvelopeBytes].Sum,
		waves:  s.DetectorWaves, parks: s.Parked,
		misses: dev.Cache.Misses - dev0.Cache.Misses, fetches: dev.DemandFetches - dev0.DemandFetches,
		allocKB: (m1.TotalAlloc - m0.TotalAlloc) / 1000,
	}
}

// literal is a row as Go source, its observed counts as exact cells.
func (r ledgerRow) literal(got [ncols]uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{%d, %q, %q, %d, ledgerCounts{", r.scale, r.query, r.topo, r.frac)
	sep := ""
	for c, v := range got {
		if v != 0 {
			fmt.Fprintf(&b, "%s%s: x(%s)", sep, ledgerCols[c], grouped(v))
			sep = ", "
		}
	}
	b.WriteString("}},")
	return b.String()
}

// grouped writes v with its digits in threes, as a Go literal: 1_507_748.
func grouped(v uint64) string {
	s := strconv.FormatUint(v, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "_" + s[i:]
	}
	return s
}

// TestLedger checks every ledger row's counts against its cells, the ratios
// of ledgerRatios, and on every row the push law: each push is ghost-filtered,
// applied in place on its master rank, or sent, and replica forwards and
// protocol records send again. A failing row prints itself as observed.
func TestLedger(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("scale-15 count ledger: not under -short or -race (the instrumented runtime allocates on its own schedule)")
	}
	graphs := map[uint]*Graph{}
	frac := map[*Graph]int{}
	for _, r := range ledger {
		t.Run(fmt.Sprintf("%d/%s/%s/%d", r.scale, r.query, r.topo, r.frac), func(t *testing.T) {
			g := graphs[r.scale]
			if g == nil {
				var err error
				if g, err = GenerateRMAT(r.scale, 42, Options{Ranks: 8, Topology: "2d", Simplify: true}); err != nil {
					t.Fatal(err)
				}
				graphs[r.scale], frac[g] = g, 1
			}
			if frac[g] != r.frac {
				if err := g.ResetMemoryBudget(); err != nil {
					t.Fatal(err)
				}
				frac[g] = 1
				if r.frac != 1 {
					latency := time.Duration(0) // the device's default
					if r.scale < 15 {
						latency = time.Microsecond
					}
					if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 1 / float64(r.frac), DeviceLatency: latency}); err != nil {
						t.Fatal(err)
					}
					frac[g] = r.frac
				}
			}
			cfg := g.engineConfig()
			cfg.Topology = r.topo
			spec, ghosts := ledgerSpec(t, g, r.query)
			cfg.Ghosts = ghosts
			got := ledgerRun(t, g, cfg, spec)
			t.Log(r.literal(got))
			var bad []string
			for c, want := range r.want {
				if got[c] < want.lo || got[c] > want.hi {
					bad = append(bad, fmt.Sprintf("%s %d not in [%d, %d]", ledgerCols[c], got[c], want.lo, want.hi))
				}
			}
			for _, q := range ledgerRatios {
				if ratio := float64(got[q.num]) / float64(got[q.den]); q.query == r.query && !(ratio >= q.lo && ratio <= q.hi) {
					bad = append(bad, fmt.Sprintf("%s/%s %.3f not in [%g, %g]", ledgerCols[q.num], ledgerCols[q.den], ratio, q.lo, q.hi))
				}
			}
			if len(bad) > 0 {
				t.Errorf("%s; observed:\n\t%s", strings.Join(bad, ", "), r.literal(got))
			}
		})
	}
	for g := range frac {
		if err := g.ResetMemoryBudget(); err != nil {
			t.Error(err)
		}
	}
}

// raceBuild reports whether the test binary was built with the race detector.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// ccFlood is cc resumed from a checkpoint that labelled nothing on a graph of
// n vertices: min-label propagation over the whole graph, with no marking.
func ccFlood(n uint64) engine.Spec {
	own := make([]Vertex, n)
	for v := range own {
		own[v] = Vertex(v)
	}
	cp := &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoCC}, Res: &engine.Result{Labels: own, Cancelled: true}}
	return cp.ResumeSpec(0)
}

// TestUntaggedTargetsTraverseIdentically: the tags in the stored target words
// are an accelerator, not data. With every tag stripped from a built graph —
// what an old target file or a hand-built matrix looks like — each push takes
// the general path (range compare, owner table), nothing is ghost-filtered,
// and all seven query types return the golden answers. cc's marking leaves
// its label propagation only isolated vertices on this graph, so cc pushes
// here as a resume from a checkpoint that labelled nothing, which propagates
// over the whole graph.
func TestUntaggedTargetsTraverseIdentically(t *testing.T) {
	g := goldenGraph(t)
	for _, part := range g.parts {
		mem := part.CSR.Targets().(csr.MemTargets)
		for i, w := range mem {
			mem[i] = csr.Target(w.Vertex())
		}
	}
	checkGolden(t, goldenRun(t, g))
	for _, spec := range []engine.Spec{
		{Algo: engine.AlgoBFS, Source: 1}, {Algo: engine.AlgoSSSP, Source: 1, WeightSeed: 7},
		{Algo: engine.AlgoCC}, ccFlood(g.NumVertices()),
	} {
		_, stats, err := engine.RunOnce(g.engineConfig(), engine.Options{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		var pushed, local uint64
		for rank, s := range stats {
			pushed += s.Pushed
			local += s.Local
			if s.GhostFiltered != 0 {
				t.Errorf("%s rank %d: %d pushes ghost-filtered through untagged words", spec.Algo, rank, s.GhostFiltered)
			}
			if want := s.Pushed - s.Local + s.Forwarded + s.ProtocolSent; want != s.Mailbox.RecordsSent {
				t.Errorf("%s rank %d: pushed %d − applied in place %d + forwarded %d + protocol %d != %d records sent",
					spec.Algo, rank, s.Pushed, s.Local, s.Forwarded, s.ProtocolSent, s.Mailbox.RecordsSent)
			}
		}
		if spec.Resume != nil && (pushed == 0 || local == 0) {
			t.Errorf("cc pushed %d, %d in place: untagged local targets must still be applied in place", pushed, local)
		}
	}
}
