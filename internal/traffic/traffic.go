// Package traffic is havoqd's front-door admission plane: the first layer of
// the system that thinks in users rather than ranks. It sits between the
// HTTP listener and the multi-query engine and applies, in order:
//
//  1. per-tenant token-bucket quotas with batched accounting (quota.go) —
//     the admission hot path is one atomic decrement, refill happens on a
//     coarse shared tick ("commit information, not traffic");
//  2. a bounded result cache over serialized responses, keyed by
//     (engine spec, graph version) and invalidated by graph-version
//     advance (cache.go) — scale-free traffic is hot-key traffic, and the
//     cheapest query is the one the engine never sees;
//  3. hot-query collapsing (collapse.go) — concurrent identical cache
//     misses fan into one engine execution whose result all of them share.
//
// Everything reports into the machine's obs registry under traffic.* names,
// so /stats exposes shed/collapse/cache behaviour next to the engine and
// message-plane counters it shapes.
package traffic

import (
	"context"
	"sync/atomic"
	"time"

	"havoqgt/internal/engine"
	"havoqgt/internal/obs"
)

// Key identifies one logical query result: everything that determines the
// answer bytes, including the graph version so a snapshot swap (ROADMAP
// item 4) invalidates by key mismatch alone.
type Key struct {
	// Spec is the query, canonical (engine.Canonical), so a field its type
	// does not read cannot split one question into two keys. Its Deadline
	// separates requests with different deadline budgets: their successful
	// answers are identical, but their failure behaviour is not, and a
	// tight-deadline leader must not hand its timeout to a patient follower.
	Spec    engine.Spec
	Full    bool // the answer carries the per-vertex arrays
	Version uint64
}

// Outcome classifies how a Do request was satisfied.
type Outcome int

const (
	// OutcomeExecuted: this request led its own engine execution.
	OutcomeExecuted Outcome = iota
	// OutcomeCollapsed: this request joined another request's in-flight
	// execution and shared its result.
	OutcomeCollapsed
	// OutcomeCached: served from the result cache, no execution at all.
	OutcomeCached
)

// String returns the outcome's wire label (used in response headers).
func (o Outcome) String() string {
	switch o {
	case OutcomeCollapsed:
		return "collapsed"
	case OutcomeCached:
		return "cached"
	default:
		return "executed"
	}
}

// Config tunes a Plane.
type Config struct {
	// Quota configures the per-tenant limiter.
	Quota QuotaConfig
	// CacheBytes bounds the result cache (serialized bytes + per-entry
	// overhead). 0 means the 64 MiB default; negative disables caching.
	CacheBytes int64
	// Registry receives the traffic.* metrics; nil creates a private one.
	Registry *obs.Registry
}

// DefaultCacheBytes is the result-cache capacity when Config.CacheBytes is 0.
const DefaultCacheBytes = 64 << 20

// Plane is the assembled front door. All methods are safe for unbounded
// concurrent use. Close stops the quota refill goroutine.
type Plane struct {
	lim     *Limiter
	grp     group
	cache   *resultCache // nil when caching is disabled
	version atomic.Uint64

	reg             *obs.Registry
	admitted        *obs.Counter
	shed            *obs.Counter
	collapseLeaders *obs.Counter
	collapseHits    *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	cacheEvictions  *obs.Counter
	cacheBytes      *obs.Gauge
	cacheEntries    *obs.Gauge
	tenants         *obs.Gauge
	requestNS       *obs.Histogram
}

// New builds a Plane. The initial graph version is 1 (matching a freshly
// built Graph); a request keyed to a newer version advances it (advance).
func New(cfg Config) *Plane {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	capacity := cfg.CacheBytes
	if capacity == 0 {
		capacity = DefaultCacheBytes
	}
	p := &Plane{
		lim:             newLimiter(cfg.Quota),
		reg:             reg,
		admitted:        reg.Counter(obs.TrafficAdmitted),
		shed:            reg.Counter(obs.TrafficQuotaShed),
		collapseLeaders: reg.Counter(obs.TrafficCollapseLeaders),
		collapseHits:    reg.Counter(obs.TrafficCollapseHits),
		cacheHits:       reg.Counter(obs.TrafficCacheHits),
		cacheMisses:     reg.Counter(obs.TrafficCacheMisses),
		cacheEvictions:  reg.Counter(obs.TrafficCacheEvictions),
		cacheBytes:      reg.Gauge(obs.TrafficCacheBytes),
		cacheEntries:    reg.Gauge(obs.TrafficCacheEntries),
		tenants:         reg.Gauge(obs.TrafficTenants),
		requestNS:       reg.Histogram(obs.TrafficRequestNS),
	}
	if capacity > 0 {
		p.cache = newResultCache(capacity)
	}
	p.version.Store(1)
	return p
}

// Close stops the background refill ticker. The Plane must not be used
// after Close.
func (p *Plane) Close() { p.lim.close() }

// Admit charges one request against tenant's quota. On success the request
// is counted admitted; on shed it is counted and *ErrQuotaExceeded
// (matching ErrQuota) is returned with the suggested Retry-After.
func (p *Plane) Admit(tenant string) error {
	if err := p.lim.Admit(tenant); err != nil {
		p.shed.Inc()
		return err
	}
	p.admitted.Inc()
	p.tenants.Set(p.lim.Tenants())
	return nil
}

// Do satisfies one admitted request for key: from the cache when possible,
// by joining an identical in-flight execution otherwise, and by leading a
// new execution as the last resort. exec runs detached from any single
// requester — its context cancels only when every collapsed waiter has
// abandoned — and its serialized result is cached on success only (an error
// is shared with the waiters that collapsed into it, but never cached).
//
// The returned bytes are shared with the cache and other waiters: callers
// must treat them as immutable.
func (p *Plane) Do(ctx context.Context, key Key, exec func(ctx context.Context) ([]byte, error)) ([]byte, Outcome, error) {
	p.advance(key.Version)
	if p.cache != nil {
		if val, ok := p.cache.get(key); ok {
			p.cacheHits.Inc()
			return val, OutcomeCached, nil
		}
		p.cacheMisses.Inc()
	}
	val, joined, err := p.grp.do(ctx, key, func(execCtx context.Context) ([]byte, error) {
		v, execErr := exec(execCtx)
		if execErr == nil && p.cache != nil {
			if stored, evicted := p.cache.put(key, v); stored {
				p.cacheEvictions.Add(uint64(evicted))
				b, n := p.cache.stats()
				p.cacheBytes.Set(b)
				p.cacheEntries.Set(int64(n))
			}
		}
		return v, execErr
	})
	if joined {
		p.collapseHits.Inc()
		return val, OutcomeCollapsed, err
	}
	p.collapseLeaders.Inc()
	return val, OutcomeExecuted, err
}

// ObserveLatency records one served request's end-to-end latency into the
// traffic.request_ns histogram.
func (p *Plane) ObserveLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.requestNS.Observe(uint64(d))
}

// Version returns the plane's current graph version.
func (p *Plane) Version() uint64 { return p.version.Load() }

// advance moves the plane's graph version up to v and purges cache entries
// from older versions. Regressions are ignored — versions are monotone.
func (p *Plane) advance(v uint64) {
	for {
		cur := p.version.Load()
		if v <= cur {
			return
		}
		if p.version.CompareAndSwap(cur, v) {
			if p.cache != nil {
				p.cache.purgeBelow(v)
				b, n := p.cache.stats()
				p.cacheBytes.Set(b)
				p.cacheEntries.Set(int64(n))
			}
			return
		}
	}
}
