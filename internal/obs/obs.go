// Package obs is the repository's unified observability layer: a lock-cheap
// metrics registry (named counters, per-rank counter vectors, gauges, and
// power-of-two histograms) plus a phase-scoped span/tracing API.
//
// The paper's entire evaluation is communication behaviour — messages, bytes,
// hops, and quiescence waves per BFS/CC/k-core phase — so every subsystem of
// the simulated machine (internal/rt, internal/mailbox, internal/termination,
// internal/core, the algorithm drivers) reports into one Registry attached to
// the rt.Machine. The experiment harness snapshots the registry between
// phases and exports JSON/CSV rows carrying the full communication profile,
// following the measurement methodology of Ammar & Özsu's "Experimental
// Analysis of Distributed Graph Systems" and the per-device/per-phase
// instrumentation style of FlashGraph.
//
// Concurrency model. Metric handles are registered once (get-or-create under
// a mutex) and then updated with plain atomic operations; per-rank vectors
// give each simulated rank a cache-line-padded slot so the hot send/receive
// paths never contend. Snapshot and Reset may run concurrently with updates:
// they see a momentary, per-cell-atomic view, which is exact whenever the
// caller brackets them with machine barriers (as the harness does).
//
// Tracing. Setting the HAVOQ_TRACE environment variable streams one JSON
// line per completed span: "1" or "stderr" to standard error, any other
// non-empty value to that file (append).
package obs

import (
	"sync"
	"sync/atomic"
)

// padBytes pads a 8-byte atomic out to a 64-byte cache line so adjacent
// ranks' slots never false-share.
const padBytes = 56

// Counter is a monotonically increasing cluster-wide counter.
type Counter struct {
	v atomic.Uint64
	_ [padBytes]byte //nolint:unused // padding
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// paddedU64 is one rank's cache-line-isolated slot of a PerRank vector.
type paddedU64 struct {
	v atomic.Uint64
	_ [padBytes]byte //nolint:unused // padding
}

// PerRank is a counter vector with one padded slot per simulated rank, so
// hot per-rank paths (transport sends, mailbox records) update without any
// cross-rank cache traffic.
type PerRank struct {
	cells []paddedU64
}

// Add adds n to rank's slot.
func (c *PerRank) Add(rank int, n uint64) { c.cells[rank].v.Add(n) }

// Inc adds one to rank's slot.
func (c *PerRank) Inc(rank int) { c.cells[rank].v.Add(1) }

// Publish adds to rank's slot what a rank-confined plain counter has grown
// since its previous publication: cur is the counter now, *last what the slot
// has already been given (updated here). Hot paths keep one plain ledger and
// the engine's rank loop calls this once per iteration instead of paying an
// atomic add per event; growth rather than the absolute value is published so
// that Registry.Reset between phases keeps working for a ledger that outlives
// the phase.
func (c *PerRank) Publish(rank int, cur uint64, last *uint64) {
	if cur != *last {
		c.cells[rank].v.Add(cur - *last)
		*last = cur
	}
}

// Rank returns rank's slot value.
func (c *PerRank) Rank(rank int) uint64 { return c.cells[rank].v.Load() }

// Len returns the number of rank slots.
func (c *PerRank) Len() int { return len(c.cells) }

// Total sums all rank slots.
func (c *PerRank) Total() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Values returns a copy of the per-rank values.
func (c *PerRank) Values() []uint64 {
	out := make([]uint64, len(c.cells))
	for i := range c.cells {
		out[i] = c.cells[i].v.Load()
	}
	return out
}

func (c *PerRank) reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// Gauge is an instantaneous signed value (queue depth, buffer occupancy).
type Gauge struct {
	v atomic.Int64
	_ [padBytes]byte //nolint:unused // padding
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Registry holds every metric of one simulated machine. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	perRank  map[string]*PerRank
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	spans  []SpanEvent

	tracer *tracer
}

// MaxSpanLog bounds the in-memory span log; older spans are dropped (they
// have already been streamed if tracing is enabled).
const MaxSpanLog = 4096

// NewRegistry returns an empty registry. Tracing is armed from the
// HAVOQ_TRACE environment variable (see package comment).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		perRank:  make(map[string]*PerRank),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   tracerFromEnv(),
	}
}

// Counter returns the named counter, creating it on first use. Handles are
// stable across Reset.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// PerRank returns the named per-rank counter vector with at least p slots,
// creating it on first use. Handles are stable across Reset.
func (r *Registry) PerRank(name string, p int) *PerRank {
	r.mu.RLock()
	c := r.perRank[name]
	r.mu.RUnlock()
	if c != nil && c.Len() >= p {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c = r.perRank[name]
	if c == nil || c.Len() < p {
		grown := &PerRank{cells: make([]paddedU64, p)}
		if c != nil {
			for i := range c.cells {
				grown.cells[i].v.Store(c.cells[i].v.Load())
			}
		}
		c = grown
		r.perRank[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric and clears the span log, atomically
// per cell. This is the single reset path for the whole machine — subsystem
// adapters (rt.Machine.ResetStats, the harness's per-phase brackets) must
// funnel through it so an experiment phase can never observe a half-reset
// counter set split across subsystems.
func (r *Registry) Reset() {
	r.mu.RLock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, c := range r.perRank {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.mu.RUnlock()
	r.spanMu.Lock()
	r.spans = nil
	r.spanMu.Unlock()
}

// counterTotals returns the instantaneous totals of every counter and
// per-rank vector (per-rank vectors summed), keyed by name. Used to compute
// span deltas.
func (r *Registry) counterTotals() map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]uint64, len(r.counters)+len(r.perRank))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, c := range r.perRank {
		out[name] = c.Total()
	}
	return out
}
