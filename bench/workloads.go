package main

import (
	"fmt"
	"strings"
	"time"

	"havoqgt"
)

// The graph every workload and every seed shares, so ratios between
// workloads mean something and runs of different seeds measure the same
// work. Scale 15 is the issue's documented fallback: the driver's time cap
// (92 runs in 57 minutes) leaves 24 s of measurement per run, and at scale 16
// no workload reaches 200 queries in that time on a 2-core box.
//
// The generator seed is fixed, as Graph500 fixes one graph and draws 64 search
// keys: --seed draws the sources, the weight seeds and the order of the
// analytics round. Between generator seeds cc alone took 109-165 ms (how far
// min-label propagation runs depends on where the smallest id sits), which
// spread analytics qps by a tenth before the box added its own, and the
// benchmark's spread across seeds must stay within its bounds.
const (
	graphSeed       = 42
	defaultScale    = 15
	defaultRanks    = 8
	defaultTopology = "2d"
	bfsSources      = 64 // distinct sources of the Graph500-style BFS list
	kcoreK          = 64
	pagerankIters   = 3
	setupRepeats    = 7 // set-ups timed per run; setup_s is their median
)

// graphShape is the machine and graph a run builds; only the smoke test
// departs from defaultShape.
type graphShape struct {
	scale    uint
	ranks    int
	topology string
}

var defaultShape = graphShape{scale: defaultScale, ranks: defaultRanks, topology: defaultTopology}

func (s graphShape) options() havoqgt.Options {
	// Simplify: k-core needs a simple graph, and every workload must see the
	// same edges.
	return havoqgt.Options{Ranks: s.ranks, Topology: s.topology, Simplify: true}
}

// query is one item of a workload's list. Fields an algorithm does not use
// are zero, so query values are usable as map keys for the reference cache.
type query struct {
	algo       string // bfs | bfs_do | sssp | cc | kcore | pagerank
	source     havoqgt.Vertex
	weightSeed uint64
	k          uint32
	iters      uint32
}

// workload is one set of inputs. The list is fixed by the seed; the measured
// phase walks it in whole rounds (cyclically) until the time is up, so every
// run sees the same mix however many queries fit.
type workload struct {
	name string
	why  string
	// outstanding is the closed loop's window: 1 = one synchronous caller on
	// the facade with no engine attached; >1 = that many async engine handles
	// kept outstanding by the one generator goroutine.
	outstanding int
	engine      *havoqgt.EngineOptions // nil = no engine attached
	memory      *havoqgt.MemoryConfig  // nil = fully resident
	round       int                    // queries per round
	list        func(seed uint64, g *havoqgt.Graph) ([]query, error)
}

var serveEngine = havoqgt.EngineOptions{MaxInFlight: 4, MaxQueue: 64}

// oocMemory keeps an eighth of each rank's adjacency resident over a
// simulated NAND-flash device.
var oocMemory = havoqgt.MemoryConfig{
	ResidentFraction: 1.0 / 8,
	PageSize:         4096,
	DeviceLatency:    25 * time.Microsecond,
	DeviceQueueDepth: 64,
}

var workloads = []workload{
	{
		name:        "g500_bfs",
		why:         "the paper's kernel: one isolated top-down BFS at a time through core, mailbox 2-D routing and termination; the base the others are read against",
		outstanding: 1,
		round:       8,
		list:        bfsList,
	},
	{
		name:        "serve_points",
		why:         "a resident server's clients: 8 outstanding point queries (bfs, bfs_do, sssp; 5 of 16 from isolated sources) through engine admission, tagged records and the termination Mux",
		outstanding: 8,
		engine:      &serveEngine,
		round:       16,
		list:        pointList,
	},
	{
		name:        "analytics",
		why:         "whole-graph kernels (kcore, cc, pagerank) one at a time with no engine: internal/algos and the core scheduler dominate; admission, interleaving and paging do nothing",
		outstanding: 1,
		round:       20,
		list:        analyticsList,
	},
	{
		name: "ooc_bfs",
		why:  "the paper's external-memory trade: the g500_bfs list at 1/8 resident adjacency, 4 in flight through the engine, so the ooc pager and the pagecache CLOCK do most of the work",
		// 4 outstanding, not the issue's 8: with 4 more queued behind the 4 in
		// flight, qps and p50 of one seed moved by 6-7% between runs; with
		// none queued, by 2%.
		outstanding: 4,
		engine:      &serveEngine,
		memory:      &oocMemory,
		round:       8,
		list:        bfsList,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Streams keep the draws of different lists apart under one seed.
const (
	streamBFS       = 1 << 32
	streamPoint     = 2 << 32
	streamAnalytics = 3 << 32
)

// sourceDrawer draws vertices of one stream by rejection: the next value of
// splitmix64(seed, i) mod n whose degree the caller accepts.
type sourceDrawer struct {
	g    *havoqgt.Graph
	seed uint64
	next uint64 // stream base + draws made
}

func (d *sourceDrawer) draw(accept func(degree uint64) bool) (havoqgt.Vertex, error) {
	n := d.g.NumVertices()
	for tries := uint64(0); tries < 64*n; tries++ {
		v := havoqgt.Vertex(draw(d.seed, d.next) % n)
		d.next++
		deg, err := d.g.Degree(v)
		if err != nil {
			return 0, err
		}
		if accept(deg) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("no acceptable source among %d vertices", n)
}

func hasEdge(degree uint64) bool { return degree >= 1 }
func noEdge(degree uint64) bool  { return degree == 0 }

// bfsList is 200 top-down BFS over 64 sources of degree >= 1 (the Graph500
// rule: a source with no edge measures nothing).
func bfsList(seed uint64, g *havoqgt.Graph) ([]query, error) {
	d := sourceDrawer{g: g, seed: seed, next: streamBFS}
	sources := make([]havoqgt.Vertex, bfsSources)
	for i := range sources {
		var err error
		if sources[i], err = d.draw(hasEdge); err != nil {
			return nil, err
		}
	}
	list := make([]query, 200)
	for i := range list {
		list[i] = query{algo: "bfs", source: sources[i%len(sources)]}
	}
	return list, nil
}

// pointRound spreads 6 bfs, 9 bfs_do and 1 sssp over a round of 16 so that no
// two heavy visitor queries are adjacent more often than the mix forces. A
// '-' marks the five whose source has no edge: about 29% of this graph's
// vertices are isolated, so that is the share of trivially small queries a
// client drawing sources uniformly sends. Fixing it at 5 of 16 makes seeds
// differ in which vertices are asked, not in how many queries do no work
// (drawn freely, the share moved qps by a tenth between seeds).
var pointRound = [16]string{
	"bfs_do", "bfs", "-bfs_do", "bfs_do", "bfs", "bfs_do", "-bfs", "bfs_do",
	"-bfs_do", "bfs", "bfs_do", "sssp", "-bfs_do", "bfs", "bfs_do", "-bfs",
}

// pointList is 320 point queries: per round 4 bfs, 6 bfs_do and 1 sssp from
// sources with an edge (nearly all in the giant component), and 2 bfs and 3
// bfs_do from isolated sources.
func pointList(seed uint64, g *havoqgt.Graph) ([]query, error) {
	d := sourceDrawer{g: g, seed: seed, next: streamPoint}
	list := make([]query, 320)
	for i := range list {
		algo, accept := pointRound[i%len(pointRound)], hasEdge
		if rest, ok := strings.CutPrefix(algo, "-"); ok {
			algo, accept = rest, noEdge
		}
		src, err := d.draw(accept)
		if err != nil {
			return nil, err
		}
		q := query{algo: algo, source: src}
		if algo == "sssp" {
			q.weightSeed = 1 + uint64(i)
		}
		list[i] = q
	}
	return list, nil
}

// analyticsRound is 12 kcore, 6 cc and 2 pagerank: 60/30/10% of the samples,
// so p50 sits inside the kcore band and p95 inside the pagerank band.
var analyticsRound = [20]string{
	"kcore", "kcore", "cc", "kcore", "kcore", "cc", "kcore", "kcore", "pagerank", "cc",
	"kcore", "kcore", "cc", "kcore", "kcore", "cc", "kcore", "kcore", "pagerank", "cc",
}

// analyticsList is 10 rounds of whole-graph kernels, every round in the same
// order, which the seed shuffles: the kernels take no source, so which kernel
// finds the heap and caches of which is all a seed can vary. Triangle
// counting is left out (minutes per query at this scale); it has a drill.
func analyticsList(seed uint64, _ *havoqgt.Graph) ([]query, error) {
	round := analyticsRound
	for i := len(round) - 1; i > 0; i-- {
		j := draw(seed, streamAnalytics+uint64(i)) % uint64(i+1)
		round[i], round[j] = round[j], round[i]
	}
	list := make([]query, 10*len(round))
	for i := range list {
		q := query{algo: round[i%len(round)]}
		switch q.algo {
		case "kcore":
			q.k = kcoreK
		case "pagerank":
			q.iters = pagerankIters
		}
		list[i] = q
	}
	return list, nil
}
