package ooc

import (
	"sync"

	"havoqgt/internal/csr"
	"havoqgt/internal/extmem"
	"havoqgt/internal/obs"
	"havoqgt/internal/pagecache"
)

// Pager is the asynchronous fetch engine between the rank loop and one
// partition's page cache. It satisfies core.RowPager structurally (core
// defines the interface; neither package imports the other):
//
//   - RowResident answers "can this visit run now?" and, on a miss, enqueues
//     a demand fetch for the first missing page of the row's span — the rank
//     loop parks the visitor on the returned page key.
//   - PrefetchRow enqueues best-effort fetches for rows that just entered a
//     local scheduler (frontier composition), so pages arrive ahead of the
//     wave.
//   - Drain hands completed page keys back to the rank loop, which unparks
//     the visitors waiting on them.
//
// Fetch workers pull pages (demand strictly before prefetch) and fault them
// in via Cache.Touch, so the device's queue depth is actually exercised:
// many fetches proceed concurrently while the rank goroutine keeps executing
// resident visits. The queued set dedups fetches across queries parked on
// the same page.
//
// RowResident/PrefetchRow/Drain are called only from the owning rank's
// engine goroutine; the mutex synchronizes that goroutine against the fetch
// workers.
type Pager struct {
	m        *csr.Matrix
	cache    *pagecache.Cache
	pageSize int64
	// maxSpan bounds the page span a row may park on: a row wider than half
	// the cache could never have all its pages resident at once, so such
	// rows are reported resident and read synchronously instead (the read
	// path streams through the cache page by page and always terminates).
	maxSpan int64

	mu       sync.Mutex
	cond     sync.Cond
	demand   []int64            // FIFO, never dropped
	prefetch []int64            // FIFO, bounded by prefetchCap
	queued   map[int64]struct{} // pages enqueued or being fetched
	failed   map[int64]error    // sticky fetch failures (see RowResident)
	done     []int64            // completed pages awaiting Drain
	pinned   map[int64]struct{} // pages fetched-and-pinned, awaiting Release
	closed   bool
	wg       sync.WaitGroup

	prefetchCap int
	// pinCap bounds fetched-but-unconsumed pages: workers stall once pinCap
	// pages sit pinned awaiting Release, coupling the fetch rate to the rank
	// loop's consumption rate. Without it, fetches evict each other's pages
	// before their parked visitors run (see Unpark in internal/core).
	pinCap int

	// Monotone counters, mirrored into obs when a registry was given.
	nDemand, nPrefetch, nDropped uint64
	cDemand, cPrefetch, cDropped *obs.Counter
}

// NewPager builds a pager over a matrix whose targets read through cache,
// with the given fetch worker count and prefetch queue bound. reg may be nil.
func NewPager(m *csr.Matrix, cache *pagecache.Cache, fetchers, prefetchCap int, reg *obs.Registry) *Pager {
	if fetchers <= 0 {
		fetchers = 1
	}
	if prefetchCap <= 0 {
		prefetchCap = 256
	}
	// Scale the fetch pipeline to the cache, not just the device: pages
	// loaded faster than parked visitors consume them evict each other (and
	// the pages other waiters are about to run against), collapsing the hit
	// rate exactly when the budget is tightest. In-flight fetches are capped
	// at a quarter of the frames and completed-but-unconsumed pages (pinned,
	// see worker/Release) at another quarter, so at least half the frames
	// always stay reclaimable for the serving read path.
	if maxF := cache.NumFrames() / 4; fetchers > maxF {
		fetchers = max(1, maxF)
	}
	if maxP := cache.NumFrames() / 2; prefetchCap > maxP {
		prefetchCap = max(2, maxP)
	}
	p := &Pager{
		m:           m,
		cache:       cache,
		pageSize:    int64(cache.PageSize()),
		maxSpan:     int64(max(1, cache.NumFrames()/2)),
		queued:      make(map[int64]struct{}),
		failed:      make(map[int64]error),
		pinned:      make(map[int64]struct{}),
		prefetchCap: prefetchCap,
		pinCap:      max(1, cache.NumFrames()/4),
	}
	p.cond.L = &p.mu
	if reg != nil {
		p.cDemand = reg.Counter(obs.OOCDemandFetches)
		p.cPrefetch = reg.Counter(obs.OOCPrefetches)
		p.cDropped = reg.Counter(obs.OOCPrefetchDropped)
	}
	p.wg.Add(fetchers)
	for i := 0; i < fetchers; i++ {
		go p.worker()
	}
	return p
}

// span returns the inclusive device-page range of row's adjacency bytes and
// whether the row has any targets at all.
func (p *Pager) span(row int) (p0, p1 int64, ok bool) {
	lo, hi := p.m.RowSpan(row)
	if lo == hi {
		return 0, 0, false
	}
	p0 = int64(lo) * extmem.VertexBytes / p.pageSize
	p1 = (int64(hi)*extmem.VertexBytes - 1) / p.pageSize
	return p0, p1, true
}

// RowResident implements core.RowPager. On a miss it enqueues demand fetches
// for EVERY absent page of the row's span and returns the last such page as
// the park key: the fetch FIFO preserves order, so by the time the last
// page's completion drains, the earlier pages have been fetched too —
// usually in the same Drain batch, hence pinned together while the unparked
// visitor runs. (Parking on the first absent page instead invites a
// ping-pong: its batch is released before the later pages arrive, and the
// later pages' arrival finds the first evicted again.) The key is guaranteed
// to appear in a future Drain — the enqueue happens before the caller parks,
// and completion strictly follows the enqueue, so the unpark signal cannot
// be lost. Pages whose fetch failed permanently are treated as resident: the
// visit proceeds to the synchronous read path, which surfaces the device
// error instead of parking the visitor forever.
func (p *Pager) RowResident(row int) (int64, bool) {
	p0, p1, ok := p.span(row)
	if !ok || p1-p0+1 > p.maxSpan {
		return 0, true
	}
	key, parked := int64(0), false
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, true
	}
	for pg := p0; pg <= p1; pg++ {
		if p.cache.Resident(pg * p.pageSize) {
			continue
		}
		if _, bad := p.failed[pg]; bad {
			continue
		}
		if _, dup := p.queued[pg]; !dup {
			p.queued[pg] = struct{}{}
			p.demand = append(p.demand, pg)
			p.nDemand++
			if p.cDemand != nil {
				p.cDemand.Inc()
			}
			p.cond.Signal()
		}
		key, parked = pg, true
	}
	p.mu.Unlock()
	if parked {
		return key, false
	}
	return 0, true
}

// PrefetchRow implements core.RowPager: best-effort fetch hints for every
// absent page of row's span, dropped (and counted) when the prefetch queue
// is full.
func (p *Pager) PrefetchRow(row int) {
	p0, p1, ok := p.span(row)
	if !ok || p1-p0+1 > p.maxSpan {
		return
	}
	for pg := p0; pg <= p1; pg++ {
		if p.cache.Resident(pg * p.pageSize) {
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		_, dup := p.queued[pg]
		_, bad := p.failed[pg]
		switch {
		case dup || bad:
		case len(p.prefetch) >= p.prefetchCap:
			p.nDropped++
			if p.cDropped != nil {
				p.cDropped.Inc()
			}
		default:
			p.queued[pg] = struct{}{}
			p.prefetch = append(p.prefetch, pg)
			p.nPrefetch++
			if p.cPrefetch != nil {
				p.cPrefetch.Inc()
			}
			p.cond.Signal()
		}
		p.mu.Unlock()
	}
}

// Drain implements core.RowPager: the pages whose fetches completed since
// the last Drain. Failed pages are included — their parked visitors must
// retry (and take the fail-stop synchronous path) rather than wait forever.
func (p *Pager) Drain() []int64 {
	p.mu.Lock()
	d := p.done
	p.done = nil
	p.mu.Unlock()
	return d
}

// FailedPages returns the number of pages whose fetch failed permanently.
func (p *Pager) FailedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.failed)
}

// Depths reports the pager's instantaneous queue state: demand and prefetch
// FIFO lengths, pages handed to a worker but not yet completed, and
// completions awaiting Drain. Diagnostic — values are stale on return.
func (p *Pager) Depths() (demand, prefetch, inflight, done int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.demand), len(p.prefetch),
		len(p.queued) - len(p.demand) - len(p.prefetch), len(p.done)
}

func (p *Pager) counts() (demand, prefetch, dropped uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nDemand, p.nPrefetch, p.nDropped
}

// worker is one fetch goroutine: pop a page (demand first), fault it in with
// the frame pinned, report completion. The pin holds the page resident until
// the rank loop has drained the completion and run the parked visitors
// (Release); workers stall once pinCap completions sit unconsumed, so the
// fetch pipeline can never run ahead of consumption and evict pages whose
// waiters have not executed yet.
func (p *Pager) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for !p.closed && (len(p.demand) == 0 && len(p.prefetch) == 0 || len(p.pinned) >= p.pinCap) {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		var pg int64
		if len(p.demand) > 0 {
			pg = p.demand[0]
			p.demand = p.demand[1:]
		} else {
			pg = p.prefetch[0]
			p.prefetch = p.prefetch[1:]
		}
		p.mu.Unlock()

		err := p.cache.TouchPin(pg * p.pageSize)

		p.mu.Lock()
		delete(p.queued, pg)
		if err != nil {
			p.failed[pg] = err
		} else if p.closed {
			// Close already dropped all pins; don't strand a new one.
			p.cache.Unpin(pg * p.pageSize)
		} else if _, dup := p.pinned[pg]; dup {
			// Already holding a pin for this page (a prior completion not yet
			// released); fold the new pin into it rather than leaking one.
			p.cache.Unpin(pg * p.pageSize)
		} else {
			p.pinned[pg] = struct{}{}
		}
		p.done = append(p.done, pg)
		p.mu.Unlock()
	}
}

// Release drops the pager's pins on the given fetched pages. The rank loop
// calls it after Unpark has run the visitors parked on a Drain batch — until
// then the pages cannot be evicted, so every demand fetch is consumed at
// least once. Releasing unknown pages (failed loads, already released) is a
// no-op.
func (p *Pager) Release(pages []int64) {
	p.mu.Lock()
	freed := false
	for _, pg := range pages {
		if _, ok := p.pinned[pg]; !ok {
			continue
		}
		delete(p.pinned, pg)
		p.cache.Unpin(pg * p.pageSize)
		freed = true
	}
	if freed {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Close stops the fetch workers and waits for them. Pending queue entries
// are discarded; parked visitors are owned by the queues, which a cancel or
// engine shutdown clears separately.
func (p *Pager) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for pg := range p.pinned {
		p.cache.Unpin(pg * p.pageSize)
	}
	clear(p.pinned)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
