package pagecache

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Stats counts cache activity.
//
// Misses counts device fault-ins exactly: one per load the cache issues
// against the device (coalesced waiters on an in-flight load count nothing,
// and a reader stalled waiting for a free frame counts a Stall per wait, not
// a Miss per retry). Hits counts page accesses served from a resident frame.
// Every page access therefore lands in exactly one of Hits or Misses.
type Stats struct {
	Hits      uint64
	Misses    uint64 // device fault-ins (loads issued), exactly
	Stalls    uint64 // waits for a frame with every frame pinned or loading
	Evictions uint64
	BytesRead uint64 // bytes served to callers
}

// HitRate returns hits / (hits + misses), or 1 if there were no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// frame is one cached page slot.
type frame struct {
	page       int64 // page index, -1 when free
	data       []byte
	referenced bool // CLOCK reference bit
	loading    bool // the page is being read in
	inflight   int  // reader pins on data
	// loaded is broadcast (under Cache.mu) when a load into this frame
	// completes or is withdrawn; readers wanting the page wait on it.
	loaded sync.Cond
}

// Cache is a user-space page cache over a BlockDevice. It supports
// concurrent reads: a hit pins its frame under a short critical section and
// copies (ReadAt) or reads in place (ReadPinned) outside it, misses release
// the lock during device I/O so many misses proceed in parallel (bounded
// only by the device's queue depth), and concurrent requests for the same
// missing page coalesce onto one device read.
//
// Eviction is CLOCK (second chance), a practical approximation of LRU with
// O(1) state per frame.
type Cache struct {
	dev      BlockDevice
	pageSize int
	size     int64 // dev.Size(), read once: the hit path asks it per call

	mu     sync.Mutex
	frames []*frame
	table  map[int64]*frame
	hand   int
	stats  Stats
	// frameFreed is signalled when a pinned frame may have become
	// reclaimable: an in-flight copy finished, or a load completed or was
	// withdrawn. Readers that find every frame pinned with no load in
	// progress block here instead of spinning on the lock.
	frameFreed   sync.Cond
	stallWaiters int
	// resident holds one bit per device page, set where a load completes and
	// cleared where its frame is evicted — both under mu — so Resident reads
	// it without the lock. A withdrawn failed load never sets it.
	resident []atomic.Uint64
}

// New returns a cache of numFrames pages of pageSize bytes over dev.
func New(dev BlockDevice, pageSize, numFrames int) (*Cache, error) {
	if pageSize <= 0 || numFrames <= 0 {
		return nil, fmt.Errorf("pagecache: pageSize and numFrames must be positive")
	}
	c := &Cache{
		dev:      dev,
		size:     dev.Size(),
		pageSize: pageSize,
		frames:   make([]*frame, numFrames),
		table:    make(map[int64]*frame, numFrames),
	}
	pages := (c.size + int64(pageSize) - 1) / int64(pageSize)
	c.resident = make([]atomic.Uint64, (pages+63)/64)
	for i := range c.frames {
		c.frames[i] = &frame{page: -1, data: make([]byte, pageSize)}
		c.frames[i].loaded.L = &c.mu
	}
	c.frameFreed.L = &c.mu
	return c, nil
}

// PageSize returns the page size in bytes.
func (c *Cache) PageSize() int { return c.pageSize }

// NumFrames returns the cache capacity in pages.
func (c *Cache) NumFrames() int { return len(c.frames) }

// ReadAt fills p from offset off through the cache, returning the number of
// bytes read. Reads crossing page boundaries are split internally.
//
// ReadAt honors the io.ReaderAt contract: when it returns n < len(p) because
// the read was clamped at end-of-device, the error is io.EOF (a full read
// ending exactly at the device boundary returns nil).
func (c *Cache) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pagecache: negative offset")
	}
	total := 0
	for len(p) > 0 {
		if off >= c.size {
			break
		}
		page := off / int64(c.pageSize)
		inPage := int(off % int64(c.pageSize))
		n := min(len(p), c.pageSize-inPage)
		// Clamp to device size.
		if rem := c.size - off; int64(n) > rem {
			n = int(rem)
		}
		if err := c.readFromPage(p[:n], page, inPage, false); err != nil {
			return total, err
		}
		p = p[n:]
		off += int64(n)
		total += n
	}
	if len(p) > 0 {
		// The loop stopped with bytes still wanted: the read was clamped at
		// end-of-device. io.ReaderAt requires a non-nil error here.
		return total, io.EOF
	}
	return total, nil
}

// Page is one cached page held pinned for a reader (ReadPinned): Bytes runs
// from the requested offset to the end of the page, clamped at end-of-device,
// and stays valid until Release.
type Page struct {
	Bytes []byte
	c     *Cache
	f     *frame
}

// ReadPinned returns the cached bytes at off in place, faulting the page in if
// needed, with the frame pinned against eviction: one lock trip to pin and one
// (Release) to unpin, and no copy. off must lie inside the device.
func (c *Cache) ReadPinned(off int64) (Page, error) {
	if off < 0 || off >= c.size {
		return Page{}, fmt.Errorf("pagecache: offset %d outside the device", off)
	}
	page := off / int64(c.pageSize)
	f, err := c.pinPage(page)
	if err != nil {
		return Page{}, err
	}
	end := int(min(int64(c.pageSize), c.size-page*int64(c.pageSize)))
	return Page{Bytes: f.data[off%int64(c.pageSize) : end], c: c, f: f}, nil
}

// Release drops the page's pin and counts read bytes as served to the caller.
func (p Page) Release(read int) { p.c.unpin(p.f, read) }

// readFromPage copies len(dst) bytes from the given page at offset inPage,
// faulting the page in if needed. With pin set, the frame's reader pin is
// retained on success instead of released — the caller owns it and must drop
// it through Unpin once the page's consumers have run.
func (c *Cache) readFromPage(dst []byte, page int64, inPage int, pin bool) error {
	f, err := c.pinPage(page)
	if err != nil {
		return err
	}
	copy(dst, f.data[inPage:])
	if !pin {
		c.unpin(f, len(dst))
	}
	return nil
}

// pinPage returns the frame holding page with a reader pin taken, faulting
// the page in if needed. The caller drops the pin through unpin.
func (c *Cache) pinPage(page int64) (*frame, error) {
	c.mu.Lock()
	for {
		if f, ok := c.table[page]; ok {
			if f.loading {
				// Another reader is faulting this page in; wait for it.
				f.loaded.Wait()
				continue
			}
			f.referenced = true
			f.inflight++
			c.stats.Hits++
			c.mu.Unlock()
			return f, nil
		}
		// Miss path: claim a victim frame, publish it as loading, and read
		// the device outside the lock.
		f := c.evictLocked()
		if f == nil {
			// No reclaimable frame. Distinguish the two causes: frames held
			// by in-progress loads (wait for one to finish) vs. frames all
			// pinned by in-flight copies with nothing loading (block on the
			// condition until a pin drops — a tight relock-and-retry loop
			// here would spin a core against the very readers it waits for).
			// Either way this is a stall, not a miss: no device fault-in
			// happens on this pass.
			c.stats.Stalls++
			if lf := c.anyLoadingLocked(); lf != nil {
				lf.loaded.Wait()
				continue
			}
			c.stallWaiters++
			c.frameFreed.Wait()
			c.stallWaiters--
			continue
		}
		// One miss per device fault-in, counted exactly where the load is
		// claimed (a reader retrying around the stall path above must not
		// count the same logical fault more than once).
		c.stats.Misses++
		if f.page >= 0 {
			delete(c.table, f.page)
			c.setResidentLocked(f.page, false)
			c.stats.Evictions++
		}
		f.page = page
		f.loading = true
		f.referenced = true
		c.table[page] = f
		c.mu.Unlock()

		// The page is only allowed to fall short of pageSize where the device
		// itself ends; anything shorter mid-device is a failed load. A device
		// returning (n>0, err) must NOT have its partial data published as
		// valid cache contents.
		pageOff := page * int64(c.pageSize)
		want := c.pageSize
		if rem := c.size - pageOff; rem < int64(want) {
			want = int(rem)
		}
		n, err := c.dev.ReadAt(f.data[:want], pageOff)
		if err == io.EOF && n == want {
			err = nil // a full read ending at the device boundary may carry EOF
		}
		if err == nil && n < want {
			err = io.ErrUnexpectedEOF // short read without an error: device broke its contract
		}
		c.mu.Lock()
		if err != nil {
			// Failed or partial load: withdraw the frame so later readers
			// retry, and propagate the device error to this caller. The
			// page's residency bit was never set.
			delete(c.table, page)
			f.page = -1
			f.loading = false
			f.loaded.Broadcast()
			c.wakeStalledLocked()
			c.mu.Unlock()
			return nil, err
		}
		for i := want; i < len(f.data); i++ {
			f.data[i] = 0 // zero-fill only past end-of-device
		}
		f.loading = false
		f.loaded.Broadcast()
		f.inflight++
		c.setResidentLocked(page, true)
		c.wakeStalledLocked()
		c.mu.Unlock()
		return f, nil
	}
}

// unpin releases a reader's pin on a frame, counts read bytes as served, and
// wakes any reader blocked waiting for a reclaimable frame.
func (c *Cache) unpin(f *frame, read int) {
	c.mu.Lock()
	f.inflight--
	c.stats.BytesRead += uint64(read)
	c.wakeStalledLocked()
	c.mu.Unlock()
}

// setResidentLocked sets or clears page's residency bit. Every write holds
// c.mu, so a load and a store cannot lose another writer's update; readers
// (Resident) load the word without the lock.
func (c *Cache) setResidentLocked(page int64, on bool) {
	w, bit := &c.resident[page>>6], uint64(1)<<(page&63)
	if on {
		w.Store(w.Load() | bit)
	} else {
		w.Store(w.Load() &^ bit)
	}
}

// wakeStalledLocked wakes readers blocked in the all-frames-pinned path.
func (c *Cache) wakeStalledLocked() {
	if c.stallWaiters > 0 {
		c.frameFreed.Broadcast()
	}
}

// evictLocked runs the CLOCK hand to find a reclaimable frame. Returns nil
// if every frame is pinned by a load or an in-flight copy.
func (c *Cache) evictLocked() *frame {
	for sweep := 0; sweep < 2*len(c.frames); sweep++ {
		f := c.frames[c.hand]
		c.hand = (c.hand + 1) % len(c.frames)
		if f.loading || f.inflight > 0 {
			continue
		}
		if f.page >= 0 && f.referenced {
			f.referenced = false
			continue
		}
		return f
	}
	return nil
}

// anyLoadingLocked returns one frame with a load in progress, if any.
func (c *Cache) anyLoadingLocked() *frame {
	for _, f := range c.frames {
		if f.loading {
			return f
		}
	}
	return nil
}

// Resident reports whether the page containing off is present in the cache
// with its load complete — i.e. whether a ReadAt touching off would be served
// without a synchronous device fault. Offsets past end-of-device are
// trivially resident (reads there never touch the device). It is one atomic
// load of the page's residency bit and takes no lock; the answer is advisory:
// the page can be evicted the moment it returns.
func (c *Cache) Resident(off int64) bool {
	if off < 0 {
		return false
	}
	if off >= c.size {
		return true
	}
	page := off / int64(c.pageSize)
	return c.resident[page>>6].Load()&(uint64(1)<<(page&63)) != 0
}

// TouchPin faults in the page containing off without copying any data out,
// blocking until the page is resident (or the load fails), and returns with
// a reader pin held on the frame: the page cannot be evicted until a
// matching Unpin. It is the pager's fetch primitive — pinning from fault-in
// until the page's consumers have run guarantees a fetched page is consumed
// at least once before eviction (under memory pressure an unpinned page can
// be evicted before the consumer runs, degenerating into fetch/evict
// livelock). No pin is taken when the load fails or off is past
// end-of-device (both are safe to Unpin anyway).
//
// Pins count against the frame pool: callers must bound their outstanding
// pins well below NumFrames or concurrent readers stall waiting for frames.
func (c *Cache) TouchPin(off int64) error {
	if off < 0 {
		return fmt.Errorf("pagecache: negative offset")
	}
	if off >= c.size {
		return nil
	}
	return c.readFromPage(nil, off/int64(c.pageSize), 0, true)
}

// Unpin drops a pin taken by TouchPin on the page containing off. Unpinning
// an offset whose page is absent (the load failed, or off is past
// end-of-device) is a no-op.
func (c *Cache) Unpin(off int64) {
	if off < 0 || off >= c.size {
		return
	}
	page := off / int64(c.pageSize)
	c.mu.Lock()
	if f, ok := c.table[page]; ok && f.inflight > 0 {
		f.inflight--
		c.wakeStalledLocked()
	}
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters (cache contents are kept).
func (c *Cache) ResetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.mu.Unlock()
}

// Close closes the underlying device.
func (c *Cache) Close() error { return c.dev.Close() }
