package extmem

import (
	"path/filepath"
	"testing"
	"time"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/pagecache"
)

func testTargets(n int) []csr.Target {
	ts := make([]csr.Target, n)
	for i := range ts {
		ts[i] = csr.Target(i * 7)
	}
	return ts
}

// newStore places targets on a simulated device with the given read latency,
// behind a page cache of frames pages of pageSize bytes.
func newStore(t *testing.T, targets []csr.Target, latency time.Duration, pageSize, frames int) *Store {
	t.Helper()
	dev := pagecache.NewSimDevice(&pagecache.MemDevice{Data: SerializeTargets(targets)}, latency, 4)
	cache, err := pagecache.New(dev, pageSize, frames)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(cache, uint64(len(targets)))
}

func simStore(t *testing.T, targets []csr.Target) *Store {
	return newStore(t, targets, 0, 64, 4)
}

// TestStoreReadRanges reads ranges through page sizes that hold whole
// targets (64), that split one target across two pages (12), and that are
// smaller than one target (3): every word must decode intact, and the cache
// must count exactly the range's bytes as read.
func TestStoreReadRanges(t *testing.T) {
	targets := make([]csr.Target, 1000)
	for i := range targets {
		targets[i] = csr.Target(uint64(i+1) * 0x9e3779b97f4a7c15)
	}
	for _, pageSize := range []int{64, 12, 3} {
		s := newStore(t, targets, 0, pageSize, 4)
		for _, r := range [][2]uint64{{0, 10}, {5, 5}, {990, 1000}, {0, 1000}, {123, 456}} {
			before := s.cache.Stats().BytesRead
			got := s.Read(r[0], r[1])
			if uint64(len(got)) != r[1]-r[0] {
				t.Fatalf("page %d: Read(%d,%d) returned %d targets", pageSize, r[0], r[1], len(got))
			}
			for i, v := range got {
				if v != targets[r[0]+uint64(i)] {
					t.Fatalf("page %d: Read(%d,%d)[%d] = %#x, want %#x", pageSize, r[0], r[1], i, v, targets[r[0]+uint64(i)])
				}
			}
			if read := s.cache.Stats().BytesRead - before; read != (r[1]-r[0])*VertexBytes {
				t.Fatalf("page %d: Read(%d,%d) counted %d bytes read", pageSize, r[0], r[1], read)
			}
		}
		s.Close()
	}
}

func TestStoreBadRangePanics(t *testing.T) {
	s := simStore(t, testTargets(10))
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("bad range did not panic")
		}
	}()
	s.Read(5, 11)
}

func TestSerializeRoundTripThroughCSR(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 3}, {Src: 0, Dst: 9}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	m, err := csr.FromSortedEdges(edges, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	mem := m.Targets().(csr.MemTargets)
	store := newStore(t, mem, 0, 16, 2)
	defer store.Close()
	if err := m.ReplaceTargets(store); err != nil {
		t.Fatal(err)
	}
	row0 := m.Row(0)
	if len(row0) != 2 || row0[0] != 3 || row0[1] != 9 {
		t.Fatalf("externalized row 0 = %v", row0)
	}
	if !m.HasTarget(1, 2) || m.HasTarget(1, 3) {
		t.Fatal("externalized HasTarget wrong")
	}
}

func TestCacheStatsFlowThrough(t *testing.T) {
	cache, err := pagecache.New(&pagecache.MemDevice{Data: SerializeTargets(testTargets(1024))}, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(cache, 1024)
	defer s.Close()
	s.Read(0, 8)
	s.Read(0, 8)
	st := cache.Stats()
	if st.Misses == 0 {
		t.Fatal("no misses recorded on cold read")
	}
	if st.Hits == 0 {
		t.Fatal("no hits recorded on warm read")
	}
}

func TestFileStore(t *testing.T) {
	targets := testTargets(500)
	path := filepath.Join(t.TempDir(), "targets.bin")
	if err := WriteTargetsFile(path, targets); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(path, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 500 {
		t.Fatalf("file store len = %d", s.Len())
	}
	got := s.Read(100, 120)
	for i, v := range got {
		if v != targets[100+i] {
			t.Fatalf("file store Read[%d] = %d", i, v)
		}
	}
}

func TestSimLatencyObservable(t *testing.T) {
	s := newStore(t, testTargets(4096), 500*time.Microsecond, 64, 1)
	defer s.Close()
	start := time.Now()
	s.Read(0, 8) // one cold page
	if time.Since(start) < 400*time.Microsecond {
		t.Fatal("simulated latency not observed")
	}
	start = time.Now()
	s.Read(0, 8) // warm
	if time.Since(start) > 300*time.Microsecond {
		t.Fatal("warm read paid device latency")
	}
}

func TestMemTargetsAgreeWithStore(t *testing.T) {
	// Property: an externalized store always returns the same data as the
	// in-memory targets it was built from.
	targets := testTargets(333)
	s := simStore(t, targets)
	defer s.Close()
	mem := csr.MemTargets(targets)
	for lo := uint64(0); lo < 333; lo += 37 {
		hi := min(lo+13, 333)
		a, b := mem.Read(lo, hi), s.Read(lo, hi)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("store and memory disagree at [%d,%d)[%d]", lo, hi, i)
			}
		}
	}
}

var _ pagecache.BlockDevice = (*pagecache.MemDevice)(nil)
