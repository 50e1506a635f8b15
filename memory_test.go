package havoqgt

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// bfsSig condenses a BFS result for equality checks.
func bfsSig(r *BFSResult) uint64 {
	h := r.Reached*1e9 + uint64(r.MaxLevel)
	for v, lv := range r.Levels {
		h += uint64(lv) * uint64(v+1)
	}
	return h
}

// TestMemoryBudgetOneShotEquivalence runs one-shot calls (no engine
// attached) under a 1/8 resident budget and checks the answers and the cache
// activity: results identical to fully resident, misses equal to real
// fault-ins, and a working restore path.
func TestMemoryBudgetOneShotEquivalence(t *testing.T) {
	g, err := GenerateRMAT(9, 7, Options{Ranks: 4, Undirect: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	baseCC, err := g.Components()
	if err != nil {
		t.Fatal(err)
	}

	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.125, DeviceLatency: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if !g.OutOfCore() {
		t.Fatal("OutOfCore() false after SetMemoryBudget")
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.5}); err == nil {
		t.Fatal("second SetMemoryBudget without reset accepted")
	}

	got, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if bfsSig(got) != bfsSig(base) {
		t.Fatal("out-of-core BFS diverges from fully-resident BFS")
	}
	gotCC, err := g.Components()
	if err != nil {
		t.Fatal(err)
	}
	if gotCC.Count != baseCC.Count {
		t.Fatalf("out-of-core components = %d, resident = %d", gotCC.Count, baseCC.Count)
	}
	ms := g.MemoryStats()
	if ms.CacheMisses == 0 {
		t.Fatal("no cache misses at resident fraction 1/8: the budget is not taking effect")
	}
	if ms.CacheHits == 0 {
		t.Fatal("zero cache hits: the cache is not retaining pages")
	}
	if ms.Exhausted != 0 {
		t.Fatalf("device exhaustion on a healthy device: %d", ms.Exhausted)
	}

	if err := g.ResetMemoryBudget(); err != nil {
		t.Fatal(err)
	}
	if g.OutOfCore() {
		t.Fatal("OutOfCore() true after ResetMemoryBudget")
	}
	back, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if bfsSig(back) != bfsSig(base) {
		t.Fatal("BFS diverges after restoring in-memory storage")
	}
}

// TestMemoryBudgetEngineEquivalence is the tentpole's end-to-end check: an
// engine serving concurrent queries over a 1/8-resident graph must produce
// answers identical to the fully-resident engine, with visits actually
// parking on absent pages and unparking on fetch completion.
func TestMemoryBudgetEngineEquivalence(t *testing.T) {
	g, err := GenerateRMAT(9, 11, Options{Ranks: 4, Undirect: true})
	if err != nil {
		t.Fatal(err)
	}
	sources := []Vertex{0, 3, 17, 101, 255}

	runAll := func() ([]uint64, error) {
		e, err := g.StartEngine(EngineOptions{MaxInFlight: len(sources)})
		if err != nil {
			return nil, err
		}
		defer e.Close()
		sigs := make([]uint64, len(sources))
		errs := make([]error, len(sources))
		var wg sync.WaitGroup
		for i, src := range sources {
			i, src := i, src
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := g.BFS(src)
				if err != nil {
					errs[i] = err
					return
				}
				sigs[i] = bfsSig(res)
			}()
		}
		wg.Wait()
		return sigs, errors.Join(errs...)
	}

	want, err := runAll()
	if err != nil {
		t.Fatal(err)
	}

	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.125, DeviceLatency: 5 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	tc0 := g.TraversalCounters()
	got, err := runAll()
	if err != nil {
		t.Fatal(err)
	}
	tc1 := g.TraversalCounters()
	ms := g.MemoryStats()
	if err := g.ResetMemoryBudget(); err != nil {
		t.Fatal(err)
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("source %d: out-of-core engine result diverges from resident", sources[i])
		}
	}
	if ms.CacheMisses == 0 {
		t.Fatal("engine ran without cache misses at fraction 1/8")
	}
	if ms.DemandFetches == 0 {
		t.Fatal("no demand fetches: visits never parked on absent pages")
	}
	if parked := tc1.Parked - tc0.Parked; parked == 0 {
		t.Fatal("no visitor ever parked: the out-of-core path was not exercised")
	}
	if parked, unparked := tc1.Parked-tc0.Parked, tc1.Unparked-tc0.Unparked; parked != unparked {
		t.Fatalf("parked %d != unparked %d: visitors were lost or leaked", parked, unparked)
	}
}

// TestMemoryBudgetFileBacked exercises the FileDevice path: real backing
// files under a temp dir, removed by ResetMemoryBudget.
func TestMemoryBudgetFileBacked(t *testing.T) {
	g, err := GenerateRMAT(8, 5, Options{Ranks: 2, Undirect: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.BFS(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.25, Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	got, err := g.BFS(1)
	if err != nil {
		t.Fatal(err)
	}
	if bfsSig(got) != bfsSig(base) {
		t.Fatal("file-backed BFS diverges from resident BFS")
	}
	if g.MemoryStats().CacheMisses == 0 {
		t.Fatal("file-backed run faulted nothing in")
	}
	if err := g.ResetMemoryBudget(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryBudgetRollsBack: a budget that fails on rank 2 of 4 leaves the
// graph fully resident — ranks 0 and 1 back in memory with their backing
// files gone — so queries still answer and a later budget can be set.
func TestMemoryBudgetRollsBack(t *testing.T) {
	g, err := GenerateRMAT(8, 5, Options{Ranks: 4, Undirect: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.BFS(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "targets-rank0002.hvqt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.25, Dir: dir}); err == nil {
		t.Fatal("budget set over a blocked backing file")
	}
	if g.OutOfCore() {
		t.Fatal("OutOfCore() true after a failed SetMemoryBudget")
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Fatalf("%d entries under the budget dir, want only the blocker", len(left))
	}
	got, err := g.BFS(1)
	if err != nil {
		t.Fatal(err)
	}
	if bfsSig(got) != bfsSig(base) {
		t.Fatal("BFS after a failed budget diverges")
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.25, Dir: t.TempDir()}); err != nil {
		t.Fatalf("budget after the rollback: %v", err)
	}
	if err := g.ResetMemoryBudget(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryBudgetEngineGuards: the budget cannot change under a live engine.
func TestMemoryBudgetEngineGuards(t *testing.T) {
	g, err := GenerateRMAT(8, 5, Options{Ranks: 2, Undirect: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 2}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	e, err := g.StartEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.5}); err == nil {
		t.Fatal("SetMemoryBudget accepted while an engine is attached")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.SetMemoryBudget(MemoryConfig{ResidentFraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := g.ResetMemoryBudget(); err != nil {
		t.Fatal(err)
	}
}
