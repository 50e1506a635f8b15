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
	// RowResident reports whether every page of row's adjacency span is
	// resident. When it is not, RowResident enqueues asynchronous demand
	// fetches for all absent pages and returns the page key the caller should
	// park on (the span's last absent page); the key will later appear in a
	// Drain result when its fetch completes. Rows whose spans are impractical
	// to fault in asynchronously (wider than the cache) are reported resident
	// — the serving read path then faults synchronously, which always
	// terminates.
	RowResident(row int) (key int64, resident bool)

	// PrefetchRow hints that row's adjacency will be visited soon (it just
	// entered the local scheduler — frontier composition). Best-effort: the pager
	// may drop hints under load; correctness never depends on them.
	PrefetchRow(row int)

	// Drain returns the page keys whose fetches completed since the last
	// Drain (successfully or not — a failed page is also "ready": parked
	// visitors must retry and surface the device error on the synchronous
	// path rather than wait forever). Drained pages stay pinned against
	// eviction until released.
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
