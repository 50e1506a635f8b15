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

func simStore(t *testing.T, targets []csr.Target) *Store {
	t.Helper()
	s, err := NewSimStore(targets, NVRAMConfig{
		Latency: 0, QueueDepth: 4, PageSize: 64, CacheBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreReadRanges(t *testing.T) {
	targets := testTargets(1000)
	s := simStore(t, targets)
	defer s.Close()
	for _, r := range [][2]uint64{{0, 10}, {5, 5}, {990, 1000}, {0, 1000}, {123, 456}} {
		got := s.Read(r[0], r[1])
		if uint64(len(got)) != r[1]-r[0] {
			t.Fatalf("Read(%d,%d) returned %d targets", r[0], r[1], len(got))
		}
		for i, v := range got {
			if v != targets[r[0]+uint64(i)] {
				t.Fatalf("Read(%d,%d)[%d] = %d, want %d", r[0], r[1], i, v, targets[r[0]+uint64(i)])
			}
		}
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
	store, err := ExternalizeCSR(m, NVRAMConfig{Latency: 0, QueueDepth: 2, PageSize: 16, CacheBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	row0 := m.Row(0)
	if len(row0) != 2 || row0[0] != 3 || row0[1] != 9 {
		t.Fatalf("externalized row 0 = %v", row0)
	}
	if !m.HasTarget(1, 2) || m.HasTarget(1, 3) {
		t.Fatal("externalized HasTarget wrong")
	}
	if _, err := ExternalizeCSR(m, DefaultNVRAM()); err == nil {
		t.Fatal("double externalize accepted")
	}
}

func TestCacheStatsFlowThrough(t *testing.T) {
	s := simStore(t, testTargets(1024))
	defer s.Close()
	s.Read(0, 8)
	s.Read(0, 8)
	st := s.Cache().Stats()
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
	s, err := NewSimStore(testTargets(4096), NVRAMConfig{
		Latency: 500 * time.Microsecond, QueueDepth: 1, PageSize: 64, CacheBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
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

func TestDeviceConfigs(t *testing.T) {
	if d := DefaultNVRAM(); d.Latency >= CommoditySSD().Latency {
		t.Fatal("enterprise NVRAM should be faster than commodity SSD")
	}
	if d := CommoditySSD(); d.QueueDepth >= DefaultNVRAM().QueueDepth {
		t.Fatal("commodity SSD should have shallower queue")
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
