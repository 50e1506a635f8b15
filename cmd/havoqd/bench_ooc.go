package main

// Memory-budget sweep (-ooc): run the selfbench workload at a descending
// series of resident fractions — the paper's semi-external question, asked of
// the serving engine: how does throughput degrade as the DRAM budget shrinks
// below the edge data, and how much of the device latency does asynchronous
// visitor parking hide?
//
// For each fraction the workload runs twice from a cold cache:
//
//   - serialized: one-shot facade calls, one query in flight at a time. A
//     visit whose adjacency page is absent parks on the page while demand
//     fetches overlap on the device queue, but only this query's own resident
//     work is there to hide the latency behind.
//   - concurrent: all in flight on one attached engine — the same executor —
//     so every other in-flight query's resident work keeps executing too.
//
// Every phase's result hash must equal the fully-resident baseline — the
// sweep doubles as an out-of-core correctness check — and fractions below 1
// must actually fault (misses > 0, hit rate > 0), so the sweep fails loudly
// if the budget plumbing silently no-ops. TEPS is computed from the visitor
// push counters (one push per traversed edge).

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"havoqgt"
)

// memConfig assembles the facade memory config from the command line.
func memConfig(o *options, fraction float64) havoqgt.MemoryConfig {
	return havoqgt.MemoryConfig{
		ResidentFraction: fraction,
		PageSize:         o.memPage,
		DeviceLatency:    o.memLatency,
		DeviceQueueDepth: o.memQueueDepth,
		Dir:              o.memDir,
	}
}

// oocCounters is one phase's out-of-core activity, deltas over the phase.
type oocCounters struct {
	TEPS            float64 `json:"teps"`
	EdgesPushed     uint64  `json:"edges_pushed"`
	Parked          uint64  `json:"parked"`
	Unparked        uint64  `json:"unparked"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheStalls     uint64  `json:"cache_stalls"`
	HitRate         float64 `json:"hit_rate"`
	ReadMB          float64 `json:"read_mb"`
	DemandFetches   uint64  `json:"demand_fetches"`
	Prefetches      uint64  `json:"prefetches"`
	PrefetchDropped uint64  `json:"prefetch_dropped"`
	Retries         uint64  `json:"retries"`
	Exhausted       uint64  `json:"exhausted"`
}

// oocPhase is one (fraction, execution mode) measurement.
type oocPhase struct {
	benchPhase
	OOC oocCounters `json:"ooc"`
}

// oocEntry is one resident fraction's serialized-vs-concurrent comparison.
type oocEntry struct {
	Fraction   float64  `json:"resident_fraction"`
	Serialized oocPhase `json:"serialized"`
	Concurrent oocPhase `json:"concurrent"`
	// Speedup is concurrent QPS over serialized QPS at this budget: the
	// latency-hiding payoff, growing as the budget shrinks.
	Speedup float64 `json:"speedup"`
}

type oocReport struct {
	Timestamp     string     `json:"timestamp"`
	Scale         uint       `json:"scale"`
	Ranks         int        `json:"ranks"`
	Topology      string     `json:"topology"`
	Vertices      uint64     `json:"vertices"`
	Edges         uint64     `json:"edges"`
	Workload      string     `json:"workload"`
	Device        string     `json:"device"`
	DeviceLatency string     `json:"device_latency"`
	Sweep         []oocEntry `json:"sweep"`
}

// parseFractions parses the -ooc-fractions list, descending order preserved.
func parseFractions(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("bad resident fraction %q (want a number in (0,1])", tok)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-ooc-fractions is empty")
	}
	return out, nil
}

// oocPhaseRun executes the workload once — serialized or concurrent — at the
// given resident fraction, from a cold cache. fraction 1 means fully
// resident: no budget is set and the OOC counters stay zero.
func oocPhaseRun(g *havoqgt.Graph, work []benchQuery, o *options, fraction float64, concurrent bool) (oocPhase, error) {
	if fraction < 1 {
		if err := g.SetMemoryBudget(memConfig(o, fraction)); err != nil {
			return oocPhase{}, err
		}
	}
	tc0 := g.TraversalCounters()
	var (
		ph  benchPhase
		err error
	)
	if concurrent {
		ph, err = runConcurrent(g, work, havoqgt.EngineOptions{
			MaxInFlight: o.maxInFlight,
			MaxQueue:    len(work),
			StepBatch:   o.stepBatch,
		})
	} else {
		ph, err = runSerialized(g, work)
	}
	tc1 := g.TraversalCounters()
	ms := g.MemoryStats()
	if fraction < 1 {
		if rerr := g.ResetMemoryBudget(); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return oocPhase{}, err
	}
	pushed := tc1.Pushed - tc0.Pushed
	out := oocPhase{benchPhase: ph}
	out.OOC = oocCounters{
		TEPS:            float64(pushed) / (ph.WallMS / 1e3),
		EdgesPushed:     pushed,
		Parked:          tc1.Parked - tc0.Parked,
		Unparked:        tc1.Unparked - tc0.Unparked,
		Retries:         ms.Retries,
		Exhausted:       ms.Exhausted,
		DemandFetches:   ms.DemandFetches,
		Prefetches:      ms.Prefetches,
		PrefetchDropped: ms.PrefetchDropped,
	}
	if fraction < 1 {
		// The budget was fresh for this phase, so absolute cache stats are
		// already per-phase deltas.
		out.OOC.CacheHits = ms.CacheHits
		out.OOC.CacheMisses = ms.CacheMisses
		out.OOC.CacheStalls = ms.CacheStalls
		out.OOC.HitRate = ms.HitRate
		out.OOC.ReadMB = float64(ms.BytesRead) / (1 << 20)
	}
	return out, nil
}

// oocCompare runs both modes at one fraction and validates the phase hashes
// against the fully-resident baseline (0 = establish the baseline).
func oocCompare(g *havoqgt.Graph, work []benchQuery, o *options, fraction float64, baseline uint64) (oocEntry, error) {
	ser, err := oocPhaseRun(g, work, o, fraction, false)
	if err != nil {
		return oocEntry{}, fmt.Errorf("fraction %g serialized: %w", fraction, err)
	}
	con, err := oocPhaseRun(g, work, o, fraction, true)
	if err != nil {
		return oocEntry{}, fmt.Errorf("fraction %g concurrent: %w", fraction, err)
	}
	if ser.ResultHash != con.ResultHash {
		return oocEntry{}, fmt.Errorf("fraction %g: serialized hash %d != concurrent hash %d",
			fraction, ser.ResultHash, con.ResultHash)
	}
	if baseline != 0 && ser.ResultHash != baseline {
		return oocEntry{}, fmt.Errorf("fraction %g: hash %d != fully-resident baseline %d",
			fraction, ser.ResultHash, baseline)
	}
	if fraction < 1 {
		for name, ph := range map[string]oocPhase{"serialized": ser, "concurrent": con} {
			if ph.OOC.CacheMisses == 0 {
				return oocEntry{}, fmt.Errorf("fraction %g %s: no cache misses — the budget is not taking effect", fraction, name)
			}
			if ph.OOC.CacheHits == 0 {
				return oocEntry{}, fmt.Errorf("fraction %g %s: zero hit rate — the cache is not retaining pages", fraction, name)
			}
		}
	}
	return oocEntry{
		Fraction:   fraction,
		Serialized: ser,
		Concurrent: con,
		Speedup:    con.QPS / ser.QPS,
	}, nil
}

func oocbench(o *options) error {
	fractions, err := parseFractions(o.oocFractions)
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: ooc: building scale-%d %s graph on %d ranks (topo %s)\n",
		o.scale, o.model, o.ranks, o.topo)
	g, err := buildGraph(o)
	if err != nil {
		return err
	}
	work := benchWorkload(g.NumVertices(), o.benchQueries)

	devLatency := o.memLatency
	if devLatency == 0 {
		devLatency = 25 * time.Microsecond
	}
	device := "simulated NVRAM"
	if o.memDir != "" {
		device = "file-backed (" + o.memDir + ")"
	}

	var sweep []oocEntry
	var baseline uint64
	for _, f := range fractions {
		entry, err := oocCompare(g, work, o, f, baseline)
		if err != nil {
			return err
		}
		if baseline == 0 {
			baseline = entry.Serialized.ResultHash
		}
		fmt.Printf("havoqd: ooc: fraction %-7g serialized %8.1f q/s (hit %5.1f%%)  concurrent %8.1f q/s (hit %5.1f%%)  speedup %.2fx\n",
			f, entry.Serialized.QPS, 100*entry.Serialized.OOC.HitRate,
			entry.Concurrent.QPS, 100*entry.Concurrent.OOC.HitRate, entry.Speedup)
		sweep = append(sweep, entry)
	}

	rep := oocReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Scale:     o.scale,
		Ranks:     o.ranks,
		Topology:  o.topo,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Workload: fmt.Sprintf("%d queries: bfs/sssp from splitmix64 random sources + 1 cc + 1 kcore(k=2)",
			len(work)),
		Device:        device,
		DeviceLatency: devLatency.String(),
		Sweep:         sweep,
	}
	f, err := os.Create(o.oocOut)
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
	fmt.Printf("havoqd: ooc: wrote %s\n", o.oocOut)
	return nil
}
