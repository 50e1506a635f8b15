package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"havoqgt"
	"havoqgt/internal/obs"
)

// Tracing, all from outside the program: spans the generator records around
// its calls into the facade, a 5 ms sampler of the engine's admission gauges,
// and snapshots of the counters the program already keeps, taken at phase
// boundaries. Spans inside the rank loop are a later issue's to add.

// span is one traced interval. Spans of one query share its id; Parent names
// the span that caused this one.
type span struct {
	Name    string `json:"name"`
	Query   int    `json:"query"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // offsets from the measured phase's start
	EndNS   int64  `json:"end_ns"`
}

// tracer holds spans and gauge samples in memory until the run ends. Only the
// generator goroutine calls its methods; the sampler goroutine owns the gauge
// sums until stop. A nil tracer records nothing.
//
// Tracing is on for every second round and off for the others, so one run
// measures its own overhead on the same graph, heap and machine state:
// facade.trace_overhead compares the rounds with and without it.
type tracer struct {
	spans   []span
	enabled bool
	sampler *gaugeSampler // nil when there is no engine to sample
}

func (t *tracer) on() bool { return t != nil && t.enabled }

func tracedRound(round int) bool { return round%2 == 0 }

func (t *tracer) beginRound(round int) {
	if t == nil {
		return
	}
	t.enabled = tracedRound(round)
	if t.sampler != nil {
		t.sampler.set(t.enabled)
	}
}

// record turns a finished sample into its spans.
func (t *tracer) record(s sample) {
	if !s.traced || t == nil {
		return
	}
	add := func(name, parent string, from, to time.Duration) {
		t.spans = append(t.spans, span{Name: name, Query: s.idx, Parent: parent, StartNS: int64(from), EndNS: int64(to)})
	}
	add("query."+s.q.algo, "", s.submit, s.collected)
	if s.submitted > s.submit {
		add("facade.submit", "query."+s.q.algo, s.submit, s.submitted)
	}
	add("facade.execute", "query."+s.q.algo, s.submitted, s.done)
	if s.collected > s.done {
		add("facade.collect", "query."+s.q.algo, s.done, s.collected)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gaugeSampler reads the engine's in-flight and waiting gauges every 5 ms
// while enabled.
type gaugeSampler struct {
	inFlight, waiting *obs.Gauge
	ticker            *time.Ticker
	quit              chan struct{}
	wg                sync.WaitGroup

	// Owned by the sampler goroutine until stop returns.
	n                    int
	sumInFlight, sumWait int64
}

const samplePeriod = 5 * time.Millisecond

func startGaugeSampler(reg *obs.Registry) *gaugeSampler {
	g := &gaugeSampler{
		inFlight: reg.Gauge(obs.EngineInFlight),
		waiting:  reg.Gauge(obs.EngineWaiting),
		ticker:   time.NewTicker(samplePeriod),
		quit:     make(chan struct{}),
	}
	g.ticker.Stop() // armed by the first traced round
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			select {
			case <-g.quit:
				return
			case <-g.ticker.C:
				g.n++
				g.sumInFlight += g.inFlight.Value()
				g.sumWait += g.waiting.Value()
			}
		}
	}()
	return g
}

func (g *gaugeSampler) set(enabled bool) {
	if enabled {
		g.ticker.Reset(samplePeriod)
	} else {
		g.ticker.Stop()
	}
}

// stop ends the goroutine and returns the mean of each gauge.
func (g *gaugeSampler) stop() (inFlight, waiting float64) {
	g.ticker.Stop()
	close(g.quit)
	g.wg.Wait()
	return ratio(float64(g.sumInFlight), float64(g.n)), ratio(float64(g.sumWait), float64(g.n))
}

// boundary is everything read at a phase boundary: the program's own
// counters plus what the OS and the Go runtime say about the process.
type boundary struct {
	obs      obs.Snapshot
	mem      havoqgt.MemoryStats
	cpu      time.Duration // rusage user + system
	allocB   uint64        // runtime.MemStats.TotalAlloc
	gcCPU    float64       // /cpu/classes/gc/total:cpu-seconds
	totalCPU float64       // /cpu/classes/total:cpu-seconds
}

func takeBoundary(g *havoqgt.Graph, reg *obs.Registry) (boundary, error) {
	b := boundary{obs: reg.Snapshot(), mem: g.MemoryStats()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return b, fmt.Errorf("getrusage: %w", err)
	}
	b.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.allocB = ms.TotalAlloc
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	b.gcCPU, b.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	return b, nil
}

// registryOf returns the machine's metrics registry. The facade hands it out
// only through an engine, so a workload that attaches none starts one for a
// moment and closes it again; the registry outlives it.
func registryOf(e *env) (*obs.Registry, error) {
	if e.eng != nil {
		return e.eng.Metrics(), nil
	}
	eng, err := e.g.StartEngine(havoqgt.EngineOptions{})
	if err != nil {
		return nil, fmt.Errorf("start engine for the registry: %w", err)
	}
	reg := eng.Metrics()
	return reg, eng.Close()
}

// layerMetrics derives the per-layer metrics of the measured phase from its
// samples, the two boundaries around it and the sampler's means.
func layerMetrics(ph phase, v verdict, from, to boundary, inFlightMean, waitingMean float64) metricSet {
	m := metricSet{}
	queries := float64(len(ph.samples))
	delta := func(name string) float64 { return float64(to.obs.Counter(name) - from.obs.Counter(name)) }
	perQuery := func(name string) float64 { return ratio(delta(name), queries) }
	hist := func(name string) obs.HistSnapshot {
		return to.obs.Histograms[name].Sub(from.obs.Histograms[name])
	}

	// facade: spans around Submit*, <-Done() and Wait().
	var submitUS, executeMS, collectUS []float64
	var collectSum, latencySum time.Duration
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		submitUS = append(submitUS, float64(s.submitted-s.submit)/1e3)
		executeMS = append(executeMS, float64(s.done-s.submitted)/1e6)
		collectUS = append(collectUS, float64(s.collected-s.done)/1e3)
		collectSum += s.collected - s.done
		latencySum += s.latency()
	}
	m["facade.submit_us_p50"] = percentile(sortedCopy(submitUS), 0.5)
	m["facade.execute_ms_p50"] = percentile(sortedCopy(executeMS), 0.5)
	m["facade.collect_us_p50"] = percentile(sortedCopy(collectUS), 0.5)
	m["facade.collect_share"] = ratio(float64(collectSum), float64(latencySum))
	cpu := to.cpu - from.cpu
	m["facade.cpu_ms_per_query"] = ratio(float64(cpu)/1e6, queries)
	m["facade.cpu_utilization"] = ratio(float64(cpu), float64(ph.wall)*float64(runtime.NumCPU()))
	m["facade.alloc_mb_per_query"] = ratio(float64(to.allocB-from.allocB)/(1<<20), queries)
	m["facade.gc_cpu_fraction"] = ratio(to.gcCPU-from.gcCPU, to.totalCPU-from.totalCPU)
	m["facade.trace_overhead"] = traceOverhead(ph)

	m["rt.msgs_per_query"] = perQuery(obs.RTMsgs)
	m["rt.bytes_per_query"] = perQuery(obs.RTBytes)
	m["rt.control_msgs_per_query"] = perQuery(obs.RTKindMsgs("control"))
	m["rt.coll_msgs_per_query"] = perQuery(obs.RTKindMsgs("coll"))

	m["mailbox.records_per_query"] = perQuery(obs.MBRecordsSent)
	m["mailbox.hops_per_record"] = ratio(delta(obs.MBHops), delta(obs.MBRecordsSent))
	// Every hop puts one record into one envelope.
	m["mailbox.records_per_envelope"] = ratio(delta(obs.MBHops), delta(obs.MBEnvelopesSent))
	m["mailbox.envelope_bytes_p50"] = float64(hist(obs.MBEnvelopeBytes).Quantile(0.5))
	m["mailbox.flushes_per_query"] = perQuery(obs.MBFlushes)
	m["mailbox.pool_hit_rate"] = ratio(delta(obs.MBPoolHits), delta(obs.MBPoolGets))

	m["termination.waves_per_query"] = perQuery(obs.TermWaves)
	m["termination.retests_per_query"] = perQuery(obs.TermRetests)

	m["core.pushed_per_query"] = perQuery(obs.CorePushed)
	m["core.executed_per_query"] = perQuery(obs.CoreExecuted)
	m["core.pushed_per_s"] = ratio(delta(obs.CorePushed), ph.wall.Seconds())
	m["core.useful_visit_ratio"] = ratio(float64(v.vertices), delta(obs.CoreExecuted))
	m["core.ghost_filter_rate"] = ratio(delta(obs.CoreGhostFiltered), delta(obs.CorePushed))
	m["core.queue_depth_p50"] = float64(hist(obs.CoreQueueDepth).Quantile(0.5))

	// algos: the generator's own latency per algorithm on this workload.
	for _, algo := range []string{"bfs", "bfs_do", "sssp", "cc", "kcore", "pagerank"} {
		lat := latenciesMS(ph.samples, func(s sample) bool { return s.q.algo == algo })
		m["algos."+algo+".p50_ms"] = percentile(lat, 0.5)
	}
	m["algos.pagerank.ms_per_iter"] = m["algos.pagerank.p50_ms"] / pagerankIters

	m["engine.in_flight_mean"] = inFlightMean
	m["engine.waiting_mean"] = waitingMean
	queryNS := hist(obs.EngineQueryNS)
	m["engine.query_ms_p50"] = float64(queryNS.Quantile(0.5)) / 1e6
	m["engine.query_ms_p99"] = float64(queryNS.Quantile(0.99)) / 1e6
	m["engine.rejected"] = delta(obs.EngineRejected)
	m["engine.cancelled"] = delta(obs.EngineCancelled)

	m["ooc.parked_per_query"] = perQuery(obs.CoreParked)
	m["ooc.unparked_per_query"] = perQuery(obs.CoreUnparked)
	m["ooc.park_rate"] = ratio(delta(obs.CoreParked), delta(obs.CoreExecuted))
	m["ooc.demand_fetches_per_query"] = perQuery(obs.OOCDemandFetches)
	m["ooc.prefetches_per_query"] = perQuery(obs.OOCPrefetches)
	m["ooc.prefetch_dropped_rate"] = ratio(delta(obs.OOCPrefetchDropped), delta(obs.OOCPrefetches)+delta(obs.OOCPrefetchDropped))

	hits := float64(to.mem.CacheHits - from.mem.CacheHits)
	misses := float64(to.mem.CacheMisses - from.mem.CacheMisses)
	m["pagecache.hit_rate"] = ratio(hits, hits+misses)
	m["pagecache.misses_per_query"] = ratio(misses, queries)
	m["pagecache.stalls_per_query"] = ratio(float64(to.mem.CacheStalls-from.mem.CacheStalls), queries)
	m["pagecache.evictions_per_query"] = ratio(float64(to.mem.CacheEvictions-from.mem.CacheEvictions), queries)
	m["pagecache.read_mb_per_query"] = ratio(float64(to.mem.BytesRead-from.mem.BytesRead)/(1<<20), queries)
	m["pagecache.retries"] = float64(to.mem.Retries - from.mem.Retries)
	return m
}

// traceOverhead is 1 − (queries per second over the traced rounds) ÷ (the
// same over the untraced rounds). A round's time runs from its first submit
// to the next round's first submit; the last round has no successor and its
// drain runs at lower concurrency, so it is left out. 0 with fewer than one
// complete round of each kind.
func traceOverhead(ph phase) float64 {
	var on, off time.Duration
	var nOn, nOff int
	for r := 0; r+1 < len(ph.roundStart); r++ {
		d := ph.roundStart[r+1] - ph.roundStart[r]
		if tracedRound(r) {
			on, nOn = on+d, nOn+1
		} else {
			off, nOff = off+d, nOff+1
		}
	}
	if nOn == 0 || nOff == 0 {
		return 0
	}
	perRoundOn, perRoundOff := float64(on)/float64(nOn), float64(off)/float64(nOff)
	return 1 - perRoundOff/perRoundOn
}
