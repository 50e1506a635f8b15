package traffic

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"havoqgt/internal/obs"
)

func testPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	if cfg.Quota.Tick == 0 {
		cfg.Quota.Tick = time.Hour // keep refill out of the picture
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

func TestPlaneDoCachesSuccess(t *testing.T) {
	p := testPlane(t, Config{})
	var execs atomic.Int64
	exec := func(context.Context) ([]byte, error) {
		execs.Add(1)
		return []byte("result"), nil
	}
	key := Key{Spec: bfs(1), Version: 1}

	val, outcome, err := p.Do(context.Background(), key, exec)
	if err != nil || string(val) != "result" || outcome != OutcomeExecuted {
		t.Fatalf("first Do = %q, %v, %v", val, outcome, err)
	}
	val, outcome, err = p.Do(context.Background(), key, exec)
	if err != nil || string(val) != "result" || outcome != OutcomeCached {
		t.Fatalf("second Do = %q, %v, %v", val, outcome, err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
}

func TestPlaneDoNeverCachesErrors(t *testing.T) {
	p := testPlane(t, Config{})
	boom := errors.New("boom")
	var execs atomic.Int64
	key := Key{Spec: bfs(1), Version: 1}

	_, _, err := p.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		execs.Add(1)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be served from the cache: the next request
	// executes again and can succeed.
	val, outcome, err := p.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		execs.Add(1)
		return []byte("recovered"), nil
	})
	if err != nil || string(val) != "recovered" || outcome != OutcomeExecuted {
		t.Fatalf("retry Do = %q, %v, %v", val, outcome, err)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions, want 2", got)
	}
}

func TestPlaneVersionBumpInvalidates(t *testing.T) {
	p := testPlane(t, Config{})
	var execs atomic.Int64
	exec := func(context.Context) ([]byte, error) {
		execs.Add(1)
		return []byte("x"), nil
	}
	p.Do(context.Background(), Key{Spec: bfs(1), Version: 1}, exec)
	if _, outcome, _ := p.Do(context.Background(), Key{Spec: bfs(1), Version: 1}, exec); outcome != OutcomeCached {
		t.Fatalf("same-version outcome = %v, want cached", outcome)
	}
	// Version 2 misses by key and purges version-1 bytes.
	if _, outcome, _ := p.Do(context.Background(), Key{Spec: bfs(1), Version: 2}, exec); outcome != OutcomeExecuted {
		t.Fatalf("bumped-version outcome = %v, want executed", outcome)
	}
	if got := p.Version(); got != 2 {
		t.Fatalf("Version() = %d, want 2", got)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions, want 2", got)
	}
}

func TestPlaneCacheDisabled(t *testing.T) {
	p := testPlane(t, Config{CacheBytes: -1})
	var execs atomic.Int64
	exec := func(context.Context) ([]byte, error) {
		execs.Add(1)
		return []byte("x"), nil
	}
	key := Key{Spec: bfs(1), Version: 1}
	p.Do(context.Background(), key, exec)
	if _, outcome, _ := p.Do(context.Background(), key, exec); outcome != OutcomeExecuted {
		t.Fatalf("outcome with caching disabled = %v, want executed", outcome)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions, want 2", got)
	}
}

func TestPlaneCountersFlowIntoRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	p := testPlane(t, Config{Registry: reg, Quota: QuotaConfig{Rate: 1, Burst: 1}})
	if err := p.Admit("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit("a"); err == nil {
		t.Fatal("second request admitted past burst 1")
	}
	exec := func(context.Context) ([]byte, error) { return []byte("x"), nil }
	p.Do(context.Background(), Key{Spec: bfs(1), Version: 1}, exec)
	p.Do(context.Background(), Key{Spec: bfs(1), Version: 1}, exec)
	p.ObserveLatency(5 * time.Millisecond)

	s := reg.Snapshot()
	for name, want := range map[string]uint64{
		obs.TrafficAdmitted:        1,
		obs.TrafficQuotaShed:       1,
		obs.TrafficCollapseLeaders: 1,
		obs.TrafficCacheHits:       1,
		obs.TrafficCacheMisses:     1,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := s.Histograms[obs.TrafficRequestNS]; h.Count != 1 {
		t.Errorf("%s count = %d, want 1", obs.TrafficRequestNS, h.Count)
	}
	if g := s.Gauges[obs.TrafficCacheEntries]; g != 1 {
		t.Errorf("%s = %d, want 1", obs.TrafficCacheEntries, g)
	}
	if g := s.Gauges[obs.TrafficCacheBytes]; g <= 0 {
		t.Errorf("%s = %d, want > 0", obs.TrafficCacheBytes, g)
	}
}

func TestPlaneEvictionCounter(t *testing.T) {
	reg := obs.NewRegistry()
	// Capacity for one 64B entry only: the second put evicts the first.
	p := testPlane(t, Config{Registry: reg, CacheBytes: 64 + cacheEntryOverhead})
	exec := func(context.Context) ([]byte, error) { return make([]byte, 64), nil }
	p.Do(context.Background(), Key{Spec: bfs(1), Version: 1}, exec)
	p.Do(context.Background(), Key{Spec: bfs(2), Version: 1}, exec)
	if got := reg.Snapshot().Counter(obs.TrafficCacheEvictions); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.TrafficCacheEvictions, got)
	}
}
