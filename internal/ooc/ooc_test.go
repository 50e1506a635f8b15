package ooc

import (
	"errors"
	"slices"
	"testing"
	"time"

	"havoqgt/internal/csr"
	"havoqgt/internal/extmem"
	"havoqgt/internal/pagecache"
)

// testMatrix builds a CSR matrix with the given per-row degrees whose targets
// read through a page cache of `frames` pages of `pageSize` bytes, over a
// device wrapped by wrap (identity when nil).
func testMatrix(t *testing.T, degrees []uint64, pageSize, frames int,
	wrap func(pagecache.BlockDevice) pagecache.BlockDevice) (*csr.Matrix, *pagecache.Cache) {
	t.Helper()
	offsets := make([]uint64, len(degrees)+1)
	for i, d := range degrees {
		offsets[i+1] = offsets[i] + d
	}
	mem := make(csr.MemTargets, offsets[len(degrees)])
	for i := range mem {
		mem[i] = csr.Target(i * 7)
	}
	var dev pagecache.BlockDevice = &pagecache.MemDevice{Data: extmem.SerializeTargets(mem)}
	if wrap != nil {
		dev = wrap(dev)
	}
	cache, err := pagecache.New(dev, pageSize, frames)
	if err != nil {
		t.Fatal(err)
	}
	m, err := csr.New(offsets, extmem.NewStore(cache, uint64(len(mem))))
	if err != nil {
		t.Fatal(err)
	}
	return m, cache
}

// rowResident is one Step slice of a single row: the lock-free check, then
// the batched call. It returns the row's park key, or resident.
func rowResident(p *Pager, row int) (int64, bool) {
	if p.Resident(row) {
		return 0, true
	}
	keys := []int64{0}
	p.Park([]int{row}, keys)
	return keys[0], keys[0] < 0
}

// waitResident drives the Park/Drain/Release cycle until the row is
// resident, the way the rank loop does, bounded by a deadline. Releasing the
// drain batch matters: drained pages stay pinned until released, and the
// fetch workers stall once enough completions sit unconsumed.
func waitResident(t *testing.T, p *Pager, row int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, resident := rowResident(p, row); resident {
			return
		}
		p.Release(p.Drain())
		if time.Now().After(deadline) {
			t.Fatalf("row %d never became resident", row)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPagerDemandFetch exercises the park-and-drain cycle: a miss returns a
// page key, the fetch completes asynchronously, Drain eventually reports the
// key, and the row is then resident.
func TestPagerDemandFetch(t *testing.T) {
	// 64 rows of 16 targets = 8 KiB of targets over 256-byte pages; 4 frames.
	degrees := make([]uint64, 64)
	for i := range degrees {
		degrees[i] = 16
	}
	m, cache := testMatrix(t, degrees, 256, 4, nil)
	p := NewPager(m, cache, 2, nil)
	defer p.Close()

	key, resident := rowResident(p, 0)
	if resident {
		t.Fatal("row 0 resident on a cold cache")
	}
	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for !seen {
		batch := p.Drain()
		for _, pg := range batch {
			if pg == key {
				seen = true
			}
		}
		p.Release(batch)
		if time.Now().After(deadline) {
			t.Fatalf("page %d never drained", key)
		}
	}
	waitResident(t, p, 0)
	demand := p.counts()
	if demand == 0 {
		t.Fatal("no demand fetch counted")
	}
	// The row's targets must now read correctly through the cache.
	if got := m.Row(0); got[3] != csr.Target(21) {
		t.Fatalf("row 0 target 3 = %d, want 21", got[3])
	}
}

// gateDev holds every read open until released — pins fetches in flight.
type gateDev struct {
	pagecache.BlockDevice
	gate chan struct{}
}

func (d *gateDev) ReadAt(p []byte, off int64) (int, error) {
	<-d.gate
	return d.BlockDevice.ReadAt(p, off)
}

// TestPagerDedupsQueuedPages checks that repeated misses on the same absent
// page (same or different rows) enqueue exactly one fetch.
func TestPagerDedupsQueuedPages(t *testing.T) {
	gate := make(chan struct{})
	degrees := make([]uint64, 64)
	for i := range degrees {
		degrees[i] = 16
	}
	m, cache := testMatrix(t, degrees, 256, 4, func(d pagecache.BlockDevice) pagecache.BlockDevice {
		return &gateDev{BlockDevice: d, gate: gate}
	})
	p := NewPager(m, cache, 2, nil)
	defer p.Close()

	k1, r1 := rowResident(p, 0)
	k2, r2 := rowResident(p, 1) // rows 0 and 1 share page 0 (32 rows/page)
	if r1 || r2 {
		t.Fatal("rows resident on a cold cache")
	}
	if k1 != k2 {
		t.Fatalf("rows 0 and 1 parked on different pages %d, %d", k1, k2)
	}
	demand := p.counts()
	if demand != 1 {
		t.Fatalf("demand = %d for a coalesced page, want 1", demand)
	}
	close(gate)
	waitResident(t, p, 0)
}

// TestPagerWideRowIsResident checks the span cap: a row spanning more pages
// than half the cache is reported resident (synchronous streaming read path)
// instead of parking on a set of pages that can never be cached at once.
func TestPagerWideRowIsResident(t *testing.T) {
	// Row 0 has 1024 targets = 8 KiB = 32 pages of 256 bytes; cache has 4
	// frames, so maxSpan = 2.
	m, cache := testMatrix(t, []uint64{1024, 4}, 256, 4, nil)
	p := NewPager(m, cache, 1, nil)
	defer p.Close()

	if _, resident := rowResident(p, 0); !resident {
		t.Fatal("wide row not reported resident")
	}
	if demand := p.counts(); demand != 0 {
		t.Fatalf("wide row enqueued %d fetches", demand)
	}
	// The synchronous path must still read it correctly.
	if got := m.Row(0); got[1000] != csr.Target(7000) {
		t.Fatalf("row 0 target 1000 = %d, want 7000", got[1000])
	}
}

// TestPagerEmptyRowIsResident: no targets, nothing to fetch.
func TestPagerEmptyRowIsResident(t *testing.T) {
	m, cache := testMatrix(t, []uint64{0, 16, 0}, 256, 4, nil)
	p := NewPager(m, cache, 1, nil)
	defer p.Close()
	if _, resident := rowResident(p, 0); !resident {
		t.Fatal("empty row not resident")
	}
	if _, resident := rowResident(p, 2); !resident {
		t.Fatal("empty row not resident")
	}
}

// failDev fails every read: the permanent-failure path.
type failDev struct{ pagecache.BlockDevice }

var errBroken = errors.New("device broken")

func (d *failDev) ReadAt(p []byte, off int64) (int, error) { return 0, errBroken }

// TestPagerFailedPageUnparks checks the sticky-failure policy: a page whose
// fetch fails permanently is still reported by Drain (so parked visitors
// wake), and subsequent Park calls treat it as resident so the visit
// proceeds to the synchronous read path, which surfaces the device error
// instead of parking forever.
func TestPagerFailedPageUnparks(t *testing.T) {
	degrees := make([]uint64, 64)
	for i := range degrees {
		degrees[i] = 16
	}
	m, cache := testMatrix(t, degrees, 256, 4, func(d pagecache.BlockDevice) pagecache.BlockDevice {
		return &failDev{BlockDevice: d}
	})
	p := NewPager(m, cache, 1, nil)
	defer p.Close()

	key, resident := rowResident(p, 0)
	if resident {
		t.Fatal("row resident on a cold failing cache")
	}
	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for !seen {
		for _, pg := range p.Drain() {
			if pg == key {
				seen = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("failed page never drained: parked visitors would wait forever")
		}
	}
	if _, resident := rowResident(p, 0); !resident {
		t.Fatal("failed page must be treated as resident so the visit surfaces the error")
	}
	if p.FailedPages() == 0 {
		t.Fatal("failure not recorded")
	}
}

// TestPagerPinsDrainedPagesUntilRelease is the flow-control regression test:
// a demand-fetched page must stay resident from Drain until Release no matter
// how much other traffic churns the cache, and the fetch workers must stall
// once pinCap completions sit unreleased — otherwise fetches evict each
// other's pages before their parked visitors run and the traversal
// degenerates into a park/fetch/evict livelock.
func TestPagerPinsDrainedPagesUntilRelease(t *testing.T) {
	degrees := make([]uint64, 64)
	for i := range degrees {
		degrees[i] = 32 // one 256-byte page per row
	}
	m, cache := testMatrix(t, degrees, 256, 4, nil)
	p := NewPager(m, cache, 2, nil) // 4 frames: fetchers and pinCap clamp to 1
	defer p.Close()

	key, resident := rowResident(p, 0)
	if resident {
		t.Fatal("row 0 resident on a cold cache")
	}
	var batch []int64
	deadline := time.Now().Add(5 * time.Second)
	for len(batch) == 0 {
		batch = slices.Clone(p.Drain()) // held across the Drains below
		if time.Now().After(deadline) {
			t.Fatal("demand page never drained")
		}
	}

	// Churn every other page through the cache. The drained-but-unreleased
	// page must survive all of it.
	buf := make([]byte, 8)
	for row := 1; row < 64; row++ {
		if _, err := cache.ReadAt(buf, int64(row)*256); err != nil {
			t.Fatal(err)
		}
	}
	if !cache.Resident(key * 256) {
		t.Fatal("drained page evicted before Release")
	}

	// pinCap is exhausted: a new demand fetch must not complete until the
	// pin is released.
	var row2 int
	for row2 = 1; row2 < 64; row2++ {
		if !cache.Resident(int64(row2) * 256) {
			break
		}
	}
	key2, r2 := rowResident(p, row2)
	if r2 {
		t.Fatalf("row %d unexpectedly resident", row2)
	}
	time.Sleep(20 * time.Millisecond)
	for _, pg := range p.Drain() {
		if pg == key2 {
			t.Fatal("fetch completed while pinCap was exhausted — workers are not stalling")
		}
	}
	p.Release(batch)
	deadline = time.Now().Add(5 * time.Second)
	for {
		got := p.Drain()
		p.Release(got)
		done := false
		for _, pg := range got {
			if pg == key2 {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fetch never resumed after Release")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPagerCloseUnblocksAndReportsResident: after Close every row reads as
// resident (fail-open: the synchronous path still works) and no worker leaks.
func TestPagerCloseFailsOpen(t *testing.T) {
	degrees := make([]uint64, 64)
	for i := range degrees {
		degrees[i] = 16
	}
	m, cache := testMatrix(t, degrees, 256, 4, nil)
	p := NewPager(m, cache, 2, nil)
	p.Close()
	p.Close() // idempotent
	if _, resident := rowResident(p, 0); !resident {
		t.Fatal("closed pager must report rows resident")
	}
}
