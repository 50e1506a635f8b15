package main

// Selfbench: a closed-loop load generator that answers the question the
// engine exists for — does interleaving queries on one resident graph beat
// running them back to back? The same mixed workload is executed serialized
// (one-shot facade calls: one transient engine, one query in flight, at a
// time) and concurrently (all in flight on one attached engine) — the same
// executor both times — in two transport regimes:
//
//   - zero latency: the simulator's default instantaneous transport. On a
//     single host this is a pure CPU-throughput comparison — there is no
//     latency for asynchronous interleaving to hide, so the gap is small.
//   - modeled latency (-bench-latency): every rank-to-rank message pays a
//     fixed delivery delay, emulating the interconnect / external-memory
//     transfer costs of the distributed machines the paper targets. Here
//     the serialized baseline stalls on every termination wave and
//     sparse-frontier round trip with the message plane idle, while
//     the engine fills those stalls with other queries' work — the
//     latency-hiding effect the asynchronous visitor queue is built for.
//
// Results (throughput, p50/p99 latency, speedup, per-regime) are written as
// JSON to -bench-out. Both phases' scalar results are hashed and compared,
// so the benchmark doubles as a correctness check.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"havoqgt"
)

type benchPhase struct {
	WallMS     float64 `json:"wall_ms"`
	QPS        float64 `json:"qps"`
	LatP50MS   float64 `json:"lat_p50_ms"`
	LatP99MS   float64 `json:"lat_p99_ms"`
	LatMaxMS   float64 `json:"lat_max_ms"`
	InFlight   int     `json:"in_flight"`
	Queries    int     `json:"queries"`
	ResultHash uint64  `json:"result_hash"`
}

// benchComparison is serialized-vs-concurrent under one transport regime.
type benchComparison struct {
	SimLatencyMS float64    `json:"sim_latency_ms"`
	Serialized   benchPhase `json:"serialized"`
	Concurrent   benchPhase `json:"concurrent"`
	Speedup      float64    `json:"speedup"`
}

type benchReport struct {
	Timestamp      string          `json:"timestamp"`
	Scale          uint            `json:"scale"`
	Ranks          int             `json:"ranks"`
	Topology       string          `json:"topology"`
	Vertices       uint64          `json:"vertices"`
	Edges          uint64          `json:"edges"`
	Workload       string          `json:"workload"`
	ZeroLatency    benchComparison `json:"zero_latency"`
	ModeledLatency benchComparison `json:"modeled_latency"`
}

// benchQuery is one workload item; run executes it through the facade
// (a transient engine when none is attached, the attached one otherwise)
// and returns a content hash so serialized and concurrent phases
// can be checked for identical answers.
type benchQuery struct {
	name string
	run  func(g *havoqgt.Graph) (uint64, error)
}

// splitmix64 is the workload's deterministic source PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// benchWorkload models a serving mix: BFS and SSSP point queries from
// uniformly random sources (under a scale-free degree distribution that is
// a natural blend of heavy giant-component traversals and near-trivial
// queries on cold vertices), plus one whole-graph components query and one
// k-core query.
func benchWorkload(n uint64, queries int) []benchQuery {
	var w []benchQuery
	for i := 0; i < queries; i++ {
		src := havoqgt.Vertex(splitmix64(uint64(i)*0x9e37+42) % n)
		switch {
		case i == 5:
			w = append(w, benchQuery{name: "cc", run: func(g *havoqgt.Graph) (uint64, error) {
				res, err := g.Components()
				if err != nil {
					return 0, err
				}
				return res.Count, nil
			}})
		case i == 11:
			w = append(w, benchQuery{name: "kcore", run: func(g *havoqgt.Graph) (uint64, error) {
				res, err := g.KCore(2)
				if err != nil {
					return 0, err
				}
				return res.CoreSize, nil
			}})
		case i%2 == 0:
			w = append(w, benchQuery{name: "bfs", run: func(g *havoqgt.Graph) (uint64, error) {
				res, err := g.BFS(src)
				if err != nil {
					return 0, err
				}
				return res.Reached*1e9 + uint64(res.MaxLevel), nil
			}})
		default:
			seed := uint64(i)
			w = append(w, benchQuery{name: "sssp", run: func(g *havoqgt.Graph) (uint64, error) {
				res, err := g.ShortestPaths(src, seed)
				if err != nil {
					return 0, err
				}
				var h uint64
				for v, d := range res.Distances {
					if d != havoqgt.UnreachedDistance {
						h += d * uint64(v+1)
					}
				}
				return h, nil
			}})
		}
	}
	return w
}

// percentile returns the p-th percentile of a sorted latency sample in
// milliseconds, using the nearest-rank definition: the smallest value with
// at least a p fraction of the sample at or below it (rank ⌈p·n⌉, clamped
// to [1, n]). The previous truncating-index formula int(p*(n-1))
// systematically under-reported tail percentiles — e.g. p99 over 48 samples
// indexed element 46 of 47 instead of the maximum.
func percentile(sorted []time.Duration, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return float64(sorted[r-1].Microseconds()) / 1e3
}

func summarize(lats []time.Duration, wall time.Duration, inFlight int, hash uint64) benchPhase {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return benchPhase{
		WallMS:     float64(wall.Microseconds()) / 1e3,
		QPS:        float64(len(lats)) / wall.Seconds(),
		LatP50MS:   percentile(sorted, 0.50),
		LatP99MS:   percentile(sorted, 0.99),
		LatMaxMS:   percentile(sorted, 1.0),
		InFlight:   inFlight,
		Queries:    len(lats),
		ResultHash: hash,
	}
}

// runSerialized executes the workload one query at a time, with no engine
// attached: each call is a transient engine with one query.
func runSerialized(g *havoqgt.Graph, work []benchQuery) (benchPhase, error) {
	lats := make([]time.Duration, len(work))
	var hash uint64
	start := time.Now()
	for i, q := range work {
		t := time.Now()
		h, err := q.run(g)
		if err != nil {
			return benchPhase{}, fmt.Errorf("serialized %s #%d: %w", q.name, i, err)
		}
		lats[i] = time.Since(t)
		hash += h
	}
	return summarize(lats, time.Since(start), 1, hash), nil
}

// runConcurrent executes the workload all at once through an engine.
func runConcurrent(g *havoqgt.Graph, work []benchQuery, opts havoqgt.EngineOptions) (benchPhase, error) {
	e, err := g.StartEngine(opts)
	if err != nil {
		return benchPhase{}, err
	}
	lats := make([]time.Duration, len(work))
	hashes := make([]uint64, len(work))
	errs := make([]error, len(work))
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range work {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			hashes[i], errs[i] = q.run(g)
			lats[i] = time.Since(t)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := e.Close(); err != nil {
		return benchPhase{}, err
	}
	var hash uint64
	for i, err := range errs {
		if err != nil {
			return benchPhase{}, fmt.Errorf("concurrent %s #%d: %w", work[i].name, i, err)
		}
		hash += hashes[i]
	}
	return summarize(lats, wall, opts.MaxInFlight, hash), nil
}

// compare runs serialized-then-concurrent under the given transport latency.
func compare(g *havoqgt.Graph, work []benchQuery, o *options, simLatency time.Duration) (benchComparison, error) {
	g.SetSimLatency(simLatency)
	defer g.SetSimLatency(0)
	ser, err := runSerialized(g, work)
	if err != nil {
		return benchComparison{}, err
	}
	con, err := runConcurrent(g, work, havoqgt.EngineOptions{
		MaxInFlight: o.maxInFlight,
		MaxQueue:    len(work),
		StepBatch:   o.stepBatch,
	})
	if err != nil {
		return benchComparison{}, err
	}
	if ser.ResultHash != con.ResultHash {
		return benchComparison{}, fmt.Errorf("result divergence: serialized hash %d != concurrent hash %d",
			ser.ResultHash, con.ResultHash)
	}
	return benchComparison{
		SimLatencyMS: float64(simLatency.Microseconds()) / 1e3,
		Serialized:   ser,
		Concurrent:   con,
		Speedup:      con.QPS / ser.QPS,
	}, nil
}

func selfbench(o *options) error {
	fmt.Printf("havoqd: selfbench: building scale-%d %s graph on %d ranks (topo %s)\n",
		o.scale, o.model, o.ranks, o.topo)
	g, err := buildGraph(o)
	if err != nil {
		return err
	}
	work := benchWorkload(g.NumVertices(), o.benchQueries)

	fmt.Printf("havoqd: selfbench: zero-latency regime (%d queries)\n", len(work))
	zero, err := compare(g, work, o, 0)
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: selfbench:   serialized %.1f q/s, concurrent %.1f q/s, speedup %.2fx\n",
		zero.Serialized.QPS, zero.Concurrent.QPS, zero.Speedup)

	fmt.Printf("havoqd: selfbench: modeled-latency regime (%v per message)\n", o.benchLatency)
	modeled, err := compare(g, work, o, o.benchLatency)
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: selfbench:   serialized %.1f q/s, concurrent %.1f q/s, speedup %.2fx\n",
		modeled.Serialized.QPS, modeled.Concurrent.QPS, modeled.Speedup)

	rep := benchReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Scale:     o.scale,
		Ranks:     o.ranks,
		Topology:  o.topo,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Workload: fmt.Sprintf("%d queries: bfs/sssp from splitmix64 random sources + 1 cc + 1 kcore(k=2)",
			len(work)),
		ZeroLatency:    zero,
		ModeledLatency: modeled,
	}
	out := o.benchOut
	if out == "" {
		out = "BENCH_engine.json"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("havoqd: selfbench: wrote %s\n", out)
	return nil
}
