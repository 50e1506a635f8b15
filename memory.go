package havoqgt

// Memory-budget facade: move the resident graph's adjacency data out of core
// (behind the user-space page cache over simulated NVRAM or a real file) so
// the engine traverses more graph than the DRAM budget holds — the paper's
// semi-external configuration (§VIII-A). Vertex state stays in DRAM; only the
// CSR target array (the bulk of the data) pages in on demand, with visits
// parking on missing pages while resident work continues.

import (
	"errors"
	"fmt"
	"time"

	"havoqgt/internal/obs"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
)

// MemoryConfig sets the out-of-core memory budget for SetMemoryBudget.
type MemoryConfig struct {
	// ResidentFraction is the per-rank DRAM page-cache budget as a fraction
	// of that rank's serialized adjacency bytes, in (0, 1]. 1/8 keeps at
	// most an eighth of the edge data cached.
	ResidentFraction float64
	// PageSize is the cache page size in bytes (default 4096).
	PageSize int
	// DeviceLatency and DeviceQueueDepth model the NVRAM device when Dir is
	// empty (defaults 25µs, 64 — enterprise NAND-flash class).
	DeviceLatency    time.Duration
	DeviceQueueDepth int
	// Dir, when non-empty, backs each rank's adjacency with a real file
	// under it instead of simulated NVRAM. Files are removed by
	// ResetMemoryBudget.
	Dir string
}

// MemoryStats aggregates the out-of-core serving counters across ranks.
type MemoryStats struct {
	// Page cache, summed over ranks. Misses counts device fault-ins exactly;
	// Stalls counts waits for a frame with every frame pinned or loading.
	CacheHits      uint64
	CacheMisses    uint64
	CacheStalls    uint64
	CacheEvictions uint64
	BytesRead      uint64
	// HitRate is hits/(hits+misses) over the aggregate, 1 with no accesses.
	HitRate float64
	// Device retry plane.
	Retries   uint64
	Exhausted uint64
	// Pager fetch pipeline. Prefetches and PrefetchDropped count the
	// read-ahead hints of direction-optimizing BFS's bottom-up scans, the
	// only source of hints; other traversals fetch on demand only.
	DemandFetches   uint64
	Prefetches      uint64
	PrefetchDropped uint64
}

// TraversalCounters are the machine-wide visitor-queue counters relevant to
// out-of-core serving, read from the metrics registry. PushedDelta between
// two snapshots divided by wall time approximates TEPS for edge-frontier
// algorithms (every traversed edge pushes one visitor).
type TraversalCounters struct {
	Pushed   uint64
	Executed uint64
	Parked   uint64
	Unparked uint64
}

// SetMemoryBudget moves every rank's CSR adjacency out of core under the
// given budget. Must be called with no engine attached (the store swap is
// not safe under in-flight queries). Every query afterwards — on an engine
// attached by a subsequent StartEngine or on a one-shot call's transient one
// — runs in latency-hiding out-of-core mode: visits park on absent pages
// while resident work overlaps the device. Undo with ResetMemoryBudget;
// calling again without resetting fails.
func (g *Graph) SetMemoryBudget(cfg MemoryConfig) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.eng != nil {
		return errors.New("havoqgt: cannot change the memory budget while an engine is attached (close it first)")
	}
	if g.stores != nil {
		return errors.New("havoqgt: a memory budget is already set (ResetMemoryBudget first)")
	}
	stores, err := ooc.ExternalizeAll(g.parts, g.machine.Obs(), func(*partition.Part) ooc.Config {
		return ooc.Config{
			ResidentFraction: cfg.ResidentFraction,
			PageSize:         cfg.PageSize,
			Latency:          cfg.DeviceLatency,
			QueueDepth:       cfg.DeviceQueueDepth,
			Dir:              cfg.Dir,
		}
	})
	if err != nil {
		return fmt.Errorf("havoqgt: %w", err)
	}
	g.stores = stores
	return nil
}

// ResetMemoryBudget restores fully-resident in-memory adjacency storage,
// tearing down the device stacks (and removing backing files). No-op when no
// budget is set.
func (g *Graph) ResetMemoryBudget() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.eng != nil {
		return errors.New("havoqgt: cannot change the memory budget while an engine is attached (close it first)")
	}
	err := g.stores.Close()
	g.stores = nil
	return err
}

// OutOfCore reports whether a memory budget is currently set.
func (g *Graph) OutOfCore() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stores != nil
}

// MemoryStats aggregates the out-of-core counters across ranks. Zero-valued
// when no budget is set.
func (g *Graph) MemoryStats() MemoryStats {
	g.mu.Lock()
	stores := g.stores
	g.mu.Unlock()
	s := stores.Stats()
	return MemoryStats{
		CacheHits:       s.Cache.Hits,
		CacheMisses:     s.Cache.Misses,
		CacheStalls:     s.Cache.Stalls,
		CacheEvictions:  s.Cache.Evictions,
		BytesRead:       s.Cache.BytesRead,
		HitRate:         s.Cache.HitRate(),
		Retries:         s.Retries,
		Exhausted:       s.Exhausted,
		DemandFetches:   s.DemandFetches,
		Prefetches:      s.Prefetches,
		PrefetchDropped: s.PrefetchDropped,
	}
}

// TraversalCounters reads the machine-wide visitor-queue counters. Benchmark
// code diffs successive snapshots to attribute work to a phase.
func (g *Graph) TraversalCounters() TraversalCounters {
	reg, p := g.machine.Obs(), g.opts.Ranks
	return TraversalCounters{
		Pushed:   reg.PerRank(obs.CorePushed, p).Total(),
		Executed: reg.PerRank(obs.CoreExecuted, p).Total(),
		Parked:   reg.PerRank(obs.CoreParked, p).Total(),
		Unparked: reg.PerRank(obs.CoreUnparked, p).Total(),
	}
}
