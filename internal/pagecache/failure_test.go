package pagecache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// flakyDevice fails the first failN reads, then behaves like its backing
// memory device.
type flakyDevice struct {
	mem   MemDevice
	failN atomic.Int64
}

var errInjected = errors.New("injected device failure")

func (d *flakyDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.failN.Add(-1) >= 0 {
		return 0, errInjected
	}
	return d.mem.ReadAt(p, off)
}
func (d *flakyDevice) Size() int64  { return d.mem.Size() }
func (d *flakyDevice) Close() error { return nil }

func TestCacheSurfacesDeviceErrors(t *testing.T) {
	dev := &flakyDevice{mem: MemDevice{Data: testData(4096)}}
	dev.failN.Store(1)
	c, err := New(dev, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected error, got %v", err)
	}
}

func TestCacheRecoversAfterDeviceError(t *testing.T) {
	data := testData(4096)
	dev := &flakyDevice{mem: MemDevice{Data: data}}
	dev.failN.Store(2)
	c, err := New(dev, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// First attempts fail; the failed frame must be withdrawn so retries
	// fault the page in cleanly once the device heals.
	for i := 0; i < 2; i++ {
		if _, err := c.ReadAt(buf, 0); err == nil {
			t.Fatal("expected failure while device is down")
		}
	}
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after device recovery failed: %v", err)
	}
	if !bytes.Equal(buf, data[:64]) {
		t.Fatal("recovered read returned wrong data")
	}
	// And it must now be cached.
	s := c.Stats()
	c.ReadAt(buf, 0)
	if c.Stats().Hits != s.Hits+1 {
		t.Fatal("recovered page not cached")
	}
}

// shortReadDevice returns (n>0, err) for the first failN reads — the
// partial-read-with-error case a real device produces on a mid-transfer
// fault — then behaves like its backing memory device.
type shortReadDevice struct {
	mem   MemDevice
	failN atomic.Int64
	short int // bytes "transferred" before the injected fault
}

func (d *shortReadDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.failN.Add(-1) >= 0 {
		n, _ := d.mem.ReadAt(p, off)
		if n > d.short {
			n = d.short
		}
		return n, errInjected
	}
	return d.mem.ReadAt(p, off)
}
func (d *shortReadDevice) Size() int64  { return d.mem.Size() }
func (d *shortReadDevice) Close() error { return nil }

func TestCacheShortReadWithErrorNotCached(t *testing.T) {
	// A device returning (n>0, err) mid-device must propagate the error and
	// must NOT publish the partially-read, zero-filled page as valid cache
	// contents.
	data := testData(4096)
	dev := &shortReadDevice{mem: MemDevice{Data: data}, short: 7}
	dev.failN.Store(1)
	c, err := New(dev, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := c.ReadAt(buf, 0); !errors.Is(err, errInjected) {
		t.Fatalf("partial read error swallowed: got %v", err)
	}
	// The page must not have been cached: the retry re-faults it and returns
	// the true bytes, never a zero-filled tail.
	n, err := c.ReadAt(buf, 0)
	if err != nil || n != 256 {
		t.Fatalf("read after recovery = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[:256]) {
		t.Fatal("partially-read page was published as cache contents")
	}
	if c.Stats().Misses < 2 {
		t.Fatalf("failed partial load was cached: %+v", c.Stats())
	}
}

func TestCacheShortReadWithoutErrorRejected(t *testing.T) {
	// A device that short-reads mid-device with a nil error violates the
	// BlockDevice contract; the cache must reject the page rather than
	// zero-fill the gap.
	data := testData(1024)
	lying := &truncatingDevice{mem: MemDevice{Data: data}, cap: 10}
	c, err := New(lying, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("contract-violating short read accepted: err=%v", err)
	}
}

// truncatingDevice returns at most cap bytes per read with a nil error.
type truncatingDevice struct {
	mem MemDevice
	cap int
}

func (d *truncatingDevice) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > d.cap {
		p = p[:d.cap]
	}
	return d.mem.ReadAt(p, off)
}
func (d *truncatingDevice) Size() int64  { return d.mem.Size() }
func (d *truncatingDevice) Close() error { return nil }

func TestCacheConcurrentReadersSurviveErrors(t *testing.T) {
	data := testData(1 << 14)
	dev := &flakyDevice{mem: MemDevice{Data: data}}
	dev.failN.Store(8)
	c, err := New(dev, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	bad := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := 0; i < 100; i++ {
				off := int64(((g*37 + i*101) * 113) % (len(data) - 128))
				n, err := c.ReadAt(buf, off)
				if err != nil {
					continue // injected failure; retry next round
				}
				if n != 128 || !bytes.Equal(buf, data[off:off+128]) {
					bad <- fmt.Sprintf("corrupt read at %d", off)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
	// The cache must end in a consistent state: a full sweep succeeds.
	buf := make([]byte, 256)
	for off := int64(0); off < int64(len(data)); off += 256 {
		if _, err := c.ReadAt(buf, off); err != nil {
			t.Fatalf("post-failure sweep failed at %d: %v", off, err)
		}
		if !bytes.Equal(buf, data[off:off+256]) {
			t.Fatalf("post-failure sweep corrupt at %d", off)
		}
	}
}

// intermittentDevice fails every failEvery-th read and serves the rest from
// its backing memory device.
type intermittentDevice struct {
	mem       MemDevice
	failEvery int64
	reads     atomic.Int64
}

func (d *intermittentDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.reads.Add(1)%d.failEvery == 0 {
		return 0, errInjected
	}
	return d.mem.ReadAt(p, off)
}
func (d *intermittentDevice) Size() int64  { return d.mem.Size() }
func (d *intermittentDevice) Close() error { return nil }

// residencyMatchesTable checks, at quiescence, that every page's residency
// bit says exactly what the frame table does: set iff the page is in the
// table with its load complete.
func residencyMatchesTable(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := int64(c.pageSize)
	for pg := int64(0); pg*ps < c.dev.Size(); pg++ {
		f, ok := c.table[pg]
		want := ok && !f.loading
		if got := c.Resident(pg * ps); got != want {
			t.Errorf("page %d: Resident = %v, frame table says %v", pg, got, want)
		}
	}
}

// TestResidencyBitsMatchFrameTable races copying reads, pinned fetches and
// in-place reads (with lock-free Resident probes beside them) over a cache
// small enough to evict constantly, on a device that fails every fifth load.
// At quiescence the residency bits must agree with the frame table, and every
// read that succeeded must have returned the device's bytes.
func TestResidencyBitsMatchFrameTable(t *testing.T) {
	const pageSize = 64
	data := testData(pageSize*48 + pageSize/2) // a short last page
	dev := &intermittentDevice{mem: MemDevice{Data: data}, failEvery: 5}
	c, err := New(dev, pageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < 2000; i++ {
				off := int64((g*7919 + i*104729) % len(data))
				switch i % 3 {
				case 0:
					if n, err := c.ReadAt(buf, off); err == nil && !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
						t.Errorf("ReadAt(%d) returned wrong bytes", off)
					}
				case 1:
					if c.TouchPin(off) == nil {
						c.Unpin(off)
					}
				default:
					if pg, err := c.ReadPinned(off); err == nil {
						if !bytes.Equal(pg.Bytes, data[off:off+int64(len(pg.Bytes))]) {
							t.Errorf("ReadPinned(%d) returned wrong bytes", off)
						}
						pg.Release(len(pg.Bytes))
					}
				}
				c.Resident(off)
			}
		}(g)
	}
	wg.Wait()
	if dev.reads.Load() < 2*dev.failEvery {
		t.Fatalf("only %d device reads: the cache never evicted", dev.reads.Load())
	}
	residencyMatchesTable(t, c)
}

// TestFailedLoadNeverSetsResidencyBit: a load that fails after evicting its
// victim clears the victim's bit and never sets its own page's.
func TestFailedLoadNeverSetsResidencyBit(t *testing.T) {
	const pageSize = 64
	dev := &flakyDevice{mem: MemDevice{Data: testData(pageSize * 8)}}
	c, err := New(dev, pageSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for pg := int64(0); pg < 2; pg++ {
		if _, err := c.ReadAt(buf, pg*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	dev.failN.Store(1)
	if _, err := c.ReadAt(buf, 2*pageSize); !errors.Is(err, errInjected) {
		t.Fatalf("load of page 2 = %v, want the injected failure", err)
	}
	if c.Resident(2 * pageSize) {
		t.Fatal("failed load left its residency bit set")
	}
	if c.Resident(0) && c.Resident(pageSize) {
		t.Fatal("the failed load's victim is still marked resident")
	}
	residencyMatchesTable(t, c)
}
