// Package ooc puts a partition's CSR target array out of core for the
// serving engine: the adjacency bytes move onto a (simulated or file-backed)
// block device behind the concurrent page cache, and a Pager turns cache
// misses into asynchronous fetches so the engine's rank loop parks visits on
// missing pages instead of blocking on the device — the paper's
// latency-hiding traversal (§VIII-A) applied to the multi-query engine.
//
// Layering (bottom up): MemDevice+SimDevice (modeled NVRAM) or FileDevice
// (real file), an optional fault-injection wrapper, pagecache.RetryDevice
// (transient-fault absorption), pagecache.Cache (CLOCK, load-coalescing),
// extmem.Store (vertex decoding, the csr.TargetStore face), and Pager (the
// core.RowPager face the visitor queues park against).
package ooc

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"havoqgt/internal/csr"
	"havoqgt/internal/extmem"
	"havoqgt/internal/obs"
	"havoqgt/internal/pagecache"
	"havoqgt/internal/partition"
)

// Config shapes one partition's out-of-core backing.
type Config struct {
	// ResidentFraction is the DRAM budget as a fraction of the partition's
	// serialized target bytes, in (0, 1]. 1/8 means the cache holds at most
	// one eighth of the adjacency data; the rest faults in on demand.
	ResidentFraction float64
	// PageSize is the cache page size in bytes (default 4096).
	PageSize int
	// Latency and QueueDepth model the NVRAM device (pagecache.SimDevice)
	// when Dir is empty: per-read service latency and sustained concurrent
	// reads. The defaults (25µs, 64) approximate an enterprise NAND-Flash
	// card (Fusion-io class): tens of microseconds of latency hidden behind
	// a deep queue.
	Latency    time.Duration
	QueueDepth int
	// Dir, when non-empty, stores the serialized targets in a real file
	// under it (pagecache.FileDevice) instead of simulated NVRAM. The file
	// is removed on Restore.
	Dir string
	// Rank names the backing file within Dir.
	Rank int
	// WrapDevice, when non-nil, interposes on the device stack between the
	// base device and the retry layer — the fault plane's hook point
	// (faults.FaultyDevice).
	WrapDevice func(pagecache.BlockDevice) pagecache.BlockDevice
	// Obs, when non-nil, receives the ooc.* and pagecache.* counters.
	Obs *obs.Registry
}

const (
	defaultPageSize   = 4096
	defaultLatency    = 25 * time.Microsecond
	defaultQueueDepth = 64
	maxFetchers       = 8   // fetch workers: min(QueueDepth, 8), capped again by NewPager
	prefetchQueue     = 256 // prefetch backlog bound, capped again by NewPager
)

func (c Config) normalized() Config {
	if c.PageSize <= 0 {
		c.PageSize = defaultPageSize
	}
	if c.Latency <= 0 {
		c.Latency = defaultLatency
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	return c
}

// Store is one partition's out-of-core backing: the device stack, the cache,
// the extmem target store spliced into the partition's CSR, and the pager.
// Restore undoes the whole thing, putting the original in-memory targets
// back — memory-budget sweeps Externalize and Restore per budget point.
type Store struct {
	part  *partition.Part
	orig  csr.MemTargets
	ext   *extmem.Store
	cache *pagecache.Cache
	retry *pagecache.RetryDevice
	pager *Pager
	path  string // backing file to remove, "" for simulated NVRAM
}

// Snapshot is a point-in-time view of the store's counters.
type Snapshot struct {
	Cache           pagecache.Stats
	Retries         uint64
	Exhausted       uint64
	DemandFetches   uint64
	Prefetches      uint64
	PrefetchDropped uint64
}

// Externalize moves part's in-memory CSR targets onto an out-of-core device
// stack per cfg and returns the Store managing it. The partition's CSR reads
// through the page cache from here on; attach Store.Pager() to the engine so
// traversal parks on misses instead of blocking.
func Externalize(part *partition.Part, cfg Config) (*Store, error) {
	cfg = cfg.normalized()
	if cfg.ResidentFraction <= 0 || cfg.ResidentFraction > 1 {
		return nil, fmt.Errorf("ooc: resident fraction %v outside (0, 1]", cfg.ResidentFraction)
	}
	mem, ok := part.CSR.Targets().(csr.MemTargets)
	if !ok {
		return nil, fmt.Errorf("ooc: partition targets already external")
	}

	var base pagecache.BlockDevice
	var path string
	if cfg.Dir != "" {
		path = filepath.Join(cfg.Dir, fmt.Sprintf("targets-rank%04d.hvqt", cfg.Rank))
		if err := extmem.WriteTargetsFile(path, mem); err != nil {
			return nil, fmt.Errorf("ooc: write targets file: %w", err)
		}
		fd, err := pagecache.OpenFile(path)
		if err != nil {
			os.Remove(path)
			return nil, err
		}
		base = fd
	} else {
		base = pagecache.NewSimDevice(
			&pagecache.MemDevice{Data: extmem.SerializeTargets(mem)},
			cfg.Latency, cfg.QueueDepth)
	}
	dev := base
	if cfg.WrapDevice != nil {
		dev = cfg.WrapDevice(dev)
	}
	retry := pagecache.NewRetryDevice(dev, pagecache.DefaultReadAttempts)
	if cfg.Obs != nil {
		retry.SetCounters(cfg.Obs.Counter(obs.PCRetries), cfg.Obs.Counter(obs.PCExhausted))
	}

	frames := framesFor(cfg.ResidentFraction, int64(len(mem))*extmem.VertexBytes,
		retry.Size(), cfg.PageSize)
	cache, err := pagecache.New(retry, cfg.PageSize, frames)
	if err != nil {
		if path != "" {
			base.Close()
			os.Remove(path)
		}
		return nil, err
	}
	ext := extmem.NewStore(cache, uint64(len(mem)))
	if err := part.CSR.ReplaceTargets(ext); err != nil {
		cache.Close()
		if path != "" {
			os.Remove(path)
		}
		return nil, err
	}
	s := &Store{
		part:  part,
		orig:  mem,
		ext:   ext,
		cache: cache,
		retry: retry,
		path:  path,
		pager: NewPager(part.CSR, cache, min(cfg.QueueDepth, maxFetchers), prefetchQueue, cfg.Obs),
	}
	return s, nil
}

// framesFor sizes the cache: the resident fraction applies to the payload
// (target) bytes, clamped to at least minFrames so the cache stays
// functional at extreme budgets and to the device's own page count so a 1.0
// fraction doesn't over-allocate.
func framesFor(fraction float64, targetBytes, devSize int64, pageSize int) int {
	const minFrames = 4
	frames := int((fraction*float64(targetBytes) + float64(pageSize) - 1) / float64(pageSize))
	if frames < minFrames {
		frames = minFrames
	}
	if totalPages := int((devSize + int64(pageSize) - 1) / int64(pageSize)); totalPages > minFrames && frames > totalPages {
		frames = totalPages
	}
	return frames
}

// Pager returns the fetch engine to register with the serving engine
// (engine.Config.Pagers). It satisfies core.RowPager structurally.
func (s *Store) Pager() *Pager { return s.pager }

// Stats returns all of the store's counters in one snapshot.
func (s *Store) Stats() Snapshot {
	d, p, dr := s.pager.counts()
	return Snapshot{
		Cache:           s.cache.Stats(),
		Retries:         s.retry.Retries(),
		Exhausted:       s.retry.Exhausted(),
		DemandFetches:   d,
		Prefetches:      p,
		PrefetchDropped: dr,
	}
}

// ResetStats zeroes the cache counters (device retry counters and pager
// counters are monotone and left alone; diff snapshots instead).
func (s *Store) ResetStats() { s.cache.ResetStats() }

// Restore tears the out-of-core stack down: stop the pager workers, splice
// the original in-memory targets back into the partition's CSR, close the
// cache (and the device chain under it), and remove the backing file.
func (s *Store) Restore() error {
	s.pager.Close()
	if err := s.part.CSR.ReplaceTargets(s.orig); err != nil {
		return err
	}
	err := s.ext.Close()
	if s.path != "" {
		if rmErr := os.Remove(s.path); err == nil {
			err = rmErr
		}
	}
	return err
}

// Stores is a machine's out-of-core backing, one Store per rank.
type Stores []*Store

// ExternalizeAll is the one machine-wide externalize: it moves every rank's
// partition out of core, rank r's under cfg(parts[r]) with Rank set to r and
// Obs to reg. When a rank fails, the ranks already moved are restored —
// their in-memory targets back, their backing files removed — and the error
// names the failing rank.
func ExternalizeAll(parts []*partition.Part, reg *obs.Registry, cfg func(*partition.Part) Config) (Stores, error) {
	stores := make(Stores, 0, len(parts))
	for rank, part := range parts {
		c := cfg(part)
		c.Rank, c.Obs = rank, reg
		st, err := Externalize(part, c)
		if err != nil {
			stores.Close()
			return nil, fmt.Errorf("ooc: externalize rank %d: %w", rank, err)
		}
		stores = append(stores, st)
	}
	return stores, nil
}

// Pagers returns every rank's pager in rank order, nil for no stores. The
// engine side turns them into engine.Config.Pagers (engine.RowPagers).
func (s Stores) Pagers() []*Pager {
	var pagers []*Pager
	for _, st := range s {
		pagers = append(pagers, st.Pager())
	}
	return pagers
}

// Stats sums every rank's counters.
func (s Stores) Stats() Snapshot {
	var sum Snapshot
	for _, st := range s {
		x := st.Stats()
		sum.Cache.Hits += x.Cache.Hits
		sum.Cache.Misses += x.Cache.Misses
		sum.Cache.Stalls += x.Cache.Stalls
		sum.Cache.Evictions += x.Cache.Evictions
		sum.Cache.BytesRead += x.Cache.BytesRead
		sum.Retries += x.Retries
		sum.Exhausted += x.Exhausted
		sum.DemandFetches += x.DemandFetches
		sum.Prefetches += x.Prefetches
		sum.PrefetchDropped += x.PrefetchDropped
	}
	return sum
}

// Close restores every rank (Store.Restore) and returns the first error.
func (s Stores) Close() error {
	var first error
	for _, st := range s {
		if err := st.Restore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
