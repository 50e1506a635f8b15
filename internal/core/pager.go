package core

// RowPager is the visitor queue's window onto an out-of-core partition
// store (internal/ooc implements it; core deliberately does not import ooc).
// When a queue has a pager, a popped visitor whose adjacency page is not
// resident is *parked* on that page instead of executed — the paper's
// latency-hiding move: traversal keeps running on resident vertices while
// the device fetch proceeds underneath (§VIII-A).
//
// All methods are called only from the rank's single engine goroutine, so
// implementations need internal synchronization only against their own fetch
// workers, not against concurrent queue calls.
type RowPager interface {
	// Resident reports whether every page of row's adjacency span is
	// resident. It takes no lock — Step asks it of every popped visitor — and
	// is advisory: a page can load or be evicted the moment it returns. Rows
	// with no targets, and rows whose spans are impractical to fault in
	// asynchronously (wider than half the cache), are reported resident: the
	// serving read path then faults synchronously, which always terminates.
	Resident(row int) bool

	// Park takes the rows of one Step slice that Resident reported absent
	// and, under one lock, enqueues asynchronous demand fetches for every page
	// of their spans still absent. It sets keys[i] (len(keys) == len(rows))
	// to the page key rows[i]'s visitor parks on — the span's last absent
	// page, which will later appear in a Drain result — or to a negative value
	// when the row turned out resident after all (its pages completed since
	// the check, or their fetch failed permanently and the read path must
	// surface the error): that visitor runs in the same Step.
	Park(rows []int, keys []int64)

	// Drain returns the page keys whose fetches completed since the last
	// Drain (successfully or not — a failed page is also "ready": parked
	// visitors must retry and surface the device error on the synchronous
	// path rather than wait forever). Drained pages stay pinned against
	// eviction until released. The batch is valid until the next Drain.
	Drain() []int64

	// Release drops the eviction pins on a Drain batch. The caller invokes it
	// after Unpark has run the batch's parked visitors; between Drain and
	// Release the pages are guaranteed resident, so unparked visitors execute
	// against the fetched data instead of racing the fetch pipeline's
	// evictions (the race otherwise degenerates into park/fetch/evict
	// livelock under tight budgets). Releasing failed or unknown keys is a
	// no-op.
	Release(pages []int64)
}
