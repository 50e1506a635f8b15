package traffic

import (
	"fmt"
	"testing"

	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
)

// bfs is a BFS query from src.
func bfs(src uint64) engine.Spec { return engine.Spec{Algo: engine.AlgoBFS, Source: graph.Vertex(src)} }

func ck(src, ver uint64) Key { return Key{Spec: bfs(src), Version: ver} }

func TestCacheHitAndMiss(t *testing.T) {
	c := newResultCache(1 << 20)
	if _, ok := c.get(ck(1, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	if stored, _ := c.put(ck(1, 1), []byte("v1")); !stored {
		t.Fatal("put rejected")
	}
	val, ok := c.get(ck(1, 1))
	if !ok || string(val) != "v1" {
		t.Fatalf("get = %q, %v", val, ok)
	}
	if _, ok := c.get(ck(2, 1)); ok {
		t.Fatal("hit on absent key")
	}
}

func TestCacheEvictsLRUUnderBytePressure(t *testing.T) {
	// Room for exactly two entries of entrySize(100B) = 228B each.
	c := newResultCache(2 * (100 + cacheEntryOverhead))
	val := make([]byte, 100)
	c.put(ck(1, 1), val)
	c.put(ck(2, 1), val)
	c.get(ck(1, 1)) // refresh 1: key 2 becomes LRU
	if _, evicted := c.put(ck(3, 1), val); evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", evicted)
	}
	if _, ok := c.get(ck(2, 1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get(ck(1, 1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.get(ck(3, 1)); !ok {
		t.Fatal("new entry missing")
	}
	bytes, entries := c.stats()
	if entries != 2 || bytes > c.capacity {
		t.Fatalf("stats = %d bytes, %d entries; capacity %d", bytes, entries, c.capacity)
	}
}

func TestCacheRejectsOversizedValue(t *testing.T) {
	c := newResultCache(256)
	c.put(ck(1, 1), []byte("small"))
	if stored, _ := c.put(ck(2, 1), make([]byte, 512)); stored {
		t.Fatal("value larger than capacity stored")
	}
	// The oversized put must not have evicted anything.
	if _, ok := c.get(ck(1, 1)); !ok {
		t.Fatal("oversized put evicted an existing entry")
	}
}

func TestCachePutRefreshesExistingKey(t *testing.T) {
	c := newResultCache(1 << 20)
	c.put(ck(1, 1), []byte("old"))
	c.put(ck(1, 1), []byte("new-longer-value"))
	val, ok := c.get(ck(1, 1))
	if !ok || string(val) != "new-longer-value" {
		t.Fatalf("get = %q, %v", val, ok)
	}
	bytes, entries := c.stats()
	want := entrySize([]byte("new-longer-value"))
	if entries != 1 || bytes != want {
		t.Fatalf("stats = %d bytes, %d entries; want %d bytes, 1 entry", bytes, entries, want)
	}
}

func TestCachePurgeBelowDropsOldVersions(t *testing.T) {
	c := newResultCache(1 << 20)
	for v := uint64(1); v <= 3; v++ {
		for s := uint64(0); s < 4; s++ {
			c.put(ck(s, v), []byte(fmt.Sprintf("v%d-s%d", v, s)))
		}
	}
	if dropped := c.purgeBelow(3); dropped != 8 {
		t.Fatalf("dropped %d entries, want 8", dropped)
	}
	for s := uint64(0); s < 4; s++ {
		if _, ok := c.get(ck(s, 1)); ok {
			t.Fatalf("version-1 entry for source %d survived purge", s)
		}
		if _, ok := c.get(ck(s, 3)); !ok {
			t.Fatalf("current-version entry for source %d purged", s)
		}
	}
	bytes, entries := c.stats()
	if entries != 4 {
		t.Fatalf("%d entries after purge, want 4", entries)
	}
	if bytes <= 0 {
		t.Fatalf("bytes = %d after purge", bytes)
	}
}
