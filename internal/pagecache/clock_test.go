package pagecache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingDevice counts ReadAt calls against the wrapped device — the ground
// truth the Misses counter must match exactly.
type countingDevice struct {
	BlockDevice
	calls atomic.Uint64
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	d.calls.Add(1)
	return d.BlockDevice.ReadAt(p, off)
}

// TestMissesEqualDeviceFaultIns is the accounting contract test: under many
// racing readers, Misses equals the number of device reads exactly (no
// double-counting in the stall/retry path), and every page access lands in
// exactly one of Hits or Misses.
func TestMissesEqualDeviceFaultIns(t *testing.T) {
	const (
		pageSize = 64
		pages    = 32
		frames   = 4
		readers  = 8
		reads    = 400
	)
	dev := &countingDevice{BlockDevice: &MemDevice{Data: testData(pageSize * pages)}}
	c, err := New(dev, pageSize, frames)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < reads; i++ {
				// Single-page reads, a different skewed walk per reader.
				page := int64((i*(r+3) + r) % pages)
				if _, err := c.ReadAt(buf, page*pageSize); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if got, want := st.Misses, dev.calls.Load(); got != want {
		t.Fatalf("Misses = %d, device fault-ins = %d; must be exactly equal", got, want)
	}
	if total, want := st.Hits+st.Misses, uint64(readers*reads); total != want {
		t.Fatalf("Hits(%d)+Misses(%d) = %d, page accesses = %d; every access must count exactly once",
			st.Hits, st.Misses, total, want)
	}
	if st.Misses < pages {
		t.Fatalf("Misses = %d < %d pages: every page was touched at least once", st.Misses, pages)
	}
}

// TestCoalescedMissCountsOnce holds a device read open while several readers
// pile onto the same missing page: exactly one miss (and one device read) may
// be counted; the coalesced waiters are hits.
func TestCoalescedMissCountsOnce(t *testing.T) {
	const pageSize = 64
	release := make(chan struct{})
	var entered sync.Once
	started := make(chan struct{})
	slow := &gateDevice{
		BlockDevice: &MemDevice{Data: testData(pageSize * 4)},
		gate: func() {
			entered.Do(func() { close(started) })
			<-release
		},
	}
	dev := &countingDevice{BlockDevice: slow}
	c, err := New(dev, pageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 6
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			if _, err := c.ReadAt(buf, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started
	time.Sleep(10 * time.Millisecond) // let the rest coalesce onto the load
	close(release)
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 || dev.calls.Load() != 1 {
		t.Fatalf("Misses = %d, device reads = %d; want exactly 1 each", st.Misses, dev.calls.Load())
	}
	if st.Hits != waiters-1 {
		t.Fatalf("Hits = %d, want %d (coalesced waiters)", st.Hits, waiters-1)
	}
}

// gateDevice calls gate before every read — a hook to hold loads open.
type gateDevice struct {
	BlockDevice
	gate func()
}

func (d *gateDevice) ReadAt(p []byte, off int64) (int, error) {
	d.gate()
	return d.BlockDevice.ReadAt(p, off)
}

// TestAllFramesPinnedBlocksWithoutSpinning pins every frame with no load in
// progress — the regression case where readFromPage used to relock-and-retry
// in a tight loop. The reader must park on the condition variable (Stalls
// stays put while it waits) and complete promptly once a pin drops.
func TestAllFramesPinnedBlocksWithoutSpinning(t *testing.T) {
	const pageSize = 64
	c, err := New(&MemDevice{Data: testData(pageSize * 8)}, pageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	// Fault in pages 0 and 1, then pin both frames as an in-flight copy would.
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(buf, pageSize); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	for _, f := range c.frames {
		f.inflight++
	}
	c.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		b := make([]byte, 8)
		_, err := c.ReadAt(b, 2*pageSize)
		done <- err
	}()

	// Wait for the reader to reach the stall path...
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Stalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reader never reached the stall path")
		}
		time.Sleep(time.Millisecond)
	}
	// ...then verify it is parked, not spinning: a spinning retry loop would
	// keep incrementing Stalls while every frame stays pinned.
	before := c.Stats().Stalls
	time.Sleep(50 * time.Millisecond)
	if after := c.Stats().Stalls; after != before {
		t.Fatalf("Stalls grew from %d to %d while all frames stayed pinned: reader is spinning", before, after)
	}
	select {
	case err := <-done:
		t.Fatalf("read completed while all frames were pinned (err=%v)", err)
	default:
	}

	// Drop one pin; the blocked reader must be woken and complete.
	c.unpin(c.frames[0], 0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked after a frame was unpinned")
	}
	if st := c.Stats(); st.Stalls < 1 {
		t.Fatalf("Stalls = %d, want >= 1", st.Stalls)
	}
}

// TestEvictionSkipsPinnedFrames holds a pin on one resident page while the
// rest of the cache churns: the CLOCK hand must never reclaim the pinned
// frame, no matter how much pressure the other frame takes.
func TestEvictionSkipsPinnedFrames(t *testing.T) {
	const pageSize = 64
	c, err := New(&MemDevice{Data: testData(pageSize * 16)}, pageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	pinned := c.table[0]
	pinned.inflight++
	c.mu.Unlock()

	for page := int64(1); page < 16; page++ {
		if _, err := c.ReadAt(buf, page*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Resident(0) {
		t.Fatal("pinned page 0 was evicted")
	}
	c.mu.Lock()
	if pinned.page != 0 {
		t.Fatalf("pinned frame now holds page %d, want 0", pinned.page)
	}
	c.mu.Unlock()
	c.unpin(pinned, 0)
	if st := c.Stats(); st.Evictions != 14 {
		// 15 faults beyond page 0 through the single unpinned frame: the
		// first fills the free frame, the rest each evict its predecessor.
		t.Fatalf("Evictions = %d, want 14", st.Evictions)
	}
}

// TestClockSecondChance verifies the fairness property that distinguishes
// CLOCK from naive FIFO: a page re-referenced since the hand last passed it
// survives the next eviction; an untouched one is taken.
func TestClockSecondChance(t *testing.T) {
	const pageSize = 64
	c, err := New(&MemDevice{Data: testData(pageSize * 8)}, pageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for page := int64(0); page < 4; page++ { // fill: all referenced
		if _, err := c.ReadAt(buf, page*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	// Fault page 4: the hand strips every reference bit, wraps, and takes
	// frame 0 (page 0). Pages 1..3 are now resident and unreferenced.
	if _, err := c.ReadAt(buf, 4*pageSize); err != nil {
		t.Fatal(err)
	}
	// Re-reference page 1, then fault page 5: the hand clears page 1's bit
	// (second chance) and evicts page 2 instead.
	if _, err := c.ReadAt(buf, 1*pageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(buf, 5*pageSize); err != nil {
		t.Fatal(err)
	}
	if !c.Resident(1 * pageSize) {
		t.Fatal("re-referenced page 1 was evicted: no second chance")
	}
	if c.Resident(2 * pageSize) {
		t.Fatal("unreferenced page 2 survived: eviction took the wrong victim")
	}
}

// TestResidentAndTouch covers the pager's primitives: TouchPin faults a page
// in (counting one miss), a second is a hit, and Resident tracks exactly the
// loaded-and-complete state.
func TestResidentAndTouch(t *testing.T) {
	const pageSize = 64
	c, err := New(&MemDevice{Data: testData(pageSize * 4)}, pageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	touch := func(off int64) error {
		defer c.Unpin(off)
		return c.TouchPin(off)
	}
	if c.Resident(0) {
		t.Fatal("page 0 resident before any access")
	}
	if c.Resident(-1) {
		t.Fatal("negative offset reported resident")
	}
	if !c.Resident(4 * pageSize) {
		t.Fatal("offset past end-of-device must be trivially resident")
	}
	if err := touch(0); err != nil {
		t.Fatal(err)
	}
	if !c.Resident(0) {
		t.Fatal("page 0 not resident after TouchPin")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first TouchPin: Misses=%d Hits=%d, want 1/0", st.Misses, st.Hits)
	}
	if err := touch(pageSize / 2); err != nil { // same page, different offset
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after second TouchPin: Misses=%d Hits=%d, want 1/1", st.Misses, st.Hits)
	}
	if err := touch(100 * pageSize); err != nil { // past EOF: no-op
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits+st.Misses != 2 {
		t.Fatalf("TouchPin past end-of-device counted an access: Hits=%d Misses=%d", st.Hits, st.Misses)
	}
	if err := touch(-5); err == nil {
		t.Fatal("TouchPin(-5) succeeded, want error")
	}
}

// TestTouchPinProtectsFromEviction covers the flow-control primitive: a
// TouchPinned page survives arbitrary churn until Unpin, then becomes a
// normal eviction candidate. Unpin on absent or past-EOF pages is a no-op.
func TestTouchPinProtectsFromEviction(t *testing.T) {
	const pageSize = 64
	c, err := New(&MemDevice{Data: testData(pageSize * 16)}, pageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TouchPin(0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after TouchPin: Misses=%d Hits=%d, want 1/0", st.Misses, st.Hits)
	}
	// Churn every other page through the second frame: page 0 must survive.
	buf := make([]byte, 8)
	for pg := int64(1); pg < 16; pg++ {
		if _, err := c.ReadAt(buf, pg*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Resident(0) {
		t.Fatal("pinned page evicted under churn")
	}
	c.Unpin(0)
	// Unpinned, the page is reclaimable again: two faults force it out.
	for pg := int64(1); pg <= 2; pg++ {
		if _, err := c.ReadAt(buf, pg*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if c.Resident(0) {
		t.Fatal("unpinned page survived eviction pressure on a 2-frame cache")
	}
	c.Unpin(3 * pageSize)                              // absent page: no-op
	c.Unpin(100 * pageSize)                            // past EOF: no-op
	c.Unpin(-1)                                        // negative: no-op
	if err := c.TouchPin(100 * pageSize); err != nil { // past EOF: no-op, no pin
		t.Fatal(err)
	}
	if err := c.TouchPin(-1); err == nil {
		t.Fatal("TouchPin(-1) succeeded, want error")
	}
}
