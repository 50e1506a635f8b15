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
//   - Resident answers "can this visit run now?" from the cache's residency
//     bits, without a lock.
//   - Park takes one Step slice's misses under one lock: it enqueues a demand
//     fetch for every absent page of each row's span and returns the page key
//     the rank loop parks the row's visitor on.
//   - Drain hands completed page keys back to the rank loop, which unparks
//     the visitors and rows waiting on them, and Release unpins them.
//
// Every read that can wait goes through Park: the visitor queues' and every
// counted sweep's (core.Parking). Fetch workers pull pages in park order and
// fault them in via Cache.TouchPin, so the device's queue depth is actually
// exercised: many fetches proceed concurrently while the rank goroutine keeps
// executing resident work. The queued set dedups fetches across queries
// parked on the same page.
//
// Resident/Park/Drain/Release are called only from the owning rank's engine
// goroutine; the mutex synchronizes that goroutine against the fetch workers.
type Pager struct {
	m        *csr.Matrix
	cache    *pagecache.Cache
	pageSize int64
	// maxSpan bounds the page span a row may park on: a row wider than half
	// the cache could never have all its pages resident at once, so such
	// rows are reported resident and read synchronously instead (the read
	// path streams through the cache page by page and always terminates).
	maxSpan int64

	mu      sync.Mutex
	cond    sync.Cond
	demand  fifo               // pages to fetch, in park order
	queued  map[int64]struct{} // pages enqueued or being fetched
	failed  map[int64]error    // sticky fetch failures (see Park)
	done    []int64            // completed pages awaiting Drain
	drained []int64            // the last Drain batch's array, refilled by the one after
	pinned  map[int64]struct{} // pages fetched-and-pinned, awaiting Release
	closed  bool
	wg      sync.WaitGroup

	// pinCap bounds fetched-but-unconsumed pages: workers stall once pinCap
	// pages sit pinned awaiting Release, coupling the fetch rate to the rank
	// loop's consumption rate. Without it, fetches evict each other's pages
	// before their parked visitors run (see Unpark in internal/core).
	pinCap int

	// The demand fetch count, mirrored into obs when a registry was given.
	nDemand uint64
	cDemand *obs.Counter
}

// NewPager builds a pager over a matrix whose targets read through cache,
// with the given fetch worker count. reg may be nil.
func NewPager(m *csr.Matrix, cache *pagecache.Cache, fetchers int, reg *obs.Registry) *Pager {
	if fetchers <= 0 {
		fetchers = 1
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
	p := &Pager{
		m:        m,
		cache:    cache,
		pageSize: int64(cache.PageSize()),
		maxSpan:  int64(max(1, cache.NumFrames()/2)),
		queued:   make(map[int64]struct{}),
		failed:   make(map[int64]error),
		pinned:   make(map[int64]struct{}),
		pinCap:   max(1, cache.NumFrames()/4),
	}
	p.cond.L = &p.mu
	if reg != nil {
		p.cDemand = reg.Counter(obs.OOCDemandFetches)
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

// Resident implements core.RowPager: every page of row's span has its
// residency bit set (pagecache.Cache.Resident, one atomic load a page). Empty
// rows and rows wider than maxSpan are resident by definition.
func (p *Pager) Resident(row int) bool {
	p0, p1, ok := p.span(row)
	if !ok || p1-p0+1 > p.maxSpan {
		return true
	}
	for pg := p0; pg <= p1; pg++ {
		if !p.cache.Resident(pg * p.pageSize) {
			return false
		}
	}
	return true
}

// Park implements core.RowPager. For each row it enqueues demand fetches for
// EVERY page of the span still absent and returns the last such page as the
// park key: the fetch FIFO preserves order, so by the time the last page's
// completion drains, the earlier pages have been fetched too — usually in the
// same Drain batch, hence pinned together while the unparked visitor runs.
// (Parking on the first absent page instead invites a ping-pong: its batch is
// released before the later pages arrive, and the later pages' arrival finds
// the first evicted again.) The key is guaranteed to appear in a future Drain
// — the enqueue, or the fetch it dedups onto, precedes completion, which
// appends to done under this same lock — so the unpark signal cannot be lost.
// A row whose pages all completed since Resident, or whose absent pages'
// fetches failed permanently, gets a negative key: its visit proceeds now,
// and a failed page's synchronous read surfaces the device error instead of
// parking the visitor forever. A closed pager parks nothing.
func (p *Pager) Park(rows []int, keys []int64) {
	enqueued := uint64(0)
	p.mu.Lock()
	for i, row := range rows {
		keys[i] = -1
		p0, p1, ok := p.span(row)
		if p.closed || !ok || p1-p0+1 > p.maxSpan {
			continue
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
				p.demand.push(pg)
				enqueued++
			}
			keys[i] = pg
		}
	}
	if enqueued > 0 {
		p.nDemand += enqueued
		if p.cDemand != nil {
			p.cDemand.Add(enqueued)
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Drain implements core.RowPager: the pages whose fetches completed since
// the last Drain. Failed pages are included — their parked visitors must
// retry (and take the fail-stop synchronous path) rather than wait forever.
// The batch is valid until the next Drain, which refills its array.
func (p *Pager) Drain() []int64 {
	p.mu.Lock()
	d := p.done
	p.done, p.drained = p.drained[:0], d
	p.mu.Unlock()
	return d
}

// FailedPages returns the number of pages whose fetch failed permanently.
func (p *Pager) FailedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.failed)
}

func (p *Pager) counts() (demand uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nDemand
}

// worker is one fetch goroutine: pop a page, fault it in with the frame
// pinned, report completion. The pin holds the page resident until the rank
// loop has drained the completion and run the parked work (Release); workers
// stall once pinCap completions sit unconsumed, so the fetch pipeline can
// never run ahead of consumption and evict pages whose waiters have not run
// yet.
func (p *Pager) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for !p.closed && (p.demand.len() == 0 || len(p.pinned) >= p.pinCap) {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		pg := p.demand.pop()
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

// fifo is a queue of page keys that keeps its backing array: popped slots are
// reclaimed once the consumed prefix is half of it, so a warm pager queues
// without allocating.
type fifo struct {
	keys []int64
	head int
}

func (f *fifo) len() int      { return len(f.keys) - f.head }
func (f *fifo) push(pg int64) { f.keys = append(f.keys, pg) }

func (f *fifo) pop() int64 {
	pg := f.keys[f.head]
	f.head++
	if 2*f.head >= len(f.keys) {
		n := copy(f.keys, f.keys[f.head:])
		f.keys, f.head = f.keys[:n], 0
	}
	return pg
}
