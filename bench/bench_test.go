package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

var smokeShape = graphShape{scale: 10, ranks: defaultRanks, topology: defaultTopology}

// benchmarkJSON is the contract file the driver reads.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json repeats the tables in metrics.go and workloads.go; the two
// must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, got, d)
		}
	}
	layers := slices.Concat(perLayer, drillMetrics)
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layers))
	}
	for i, d := range layers {
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, got, d)
		}
	}
}

// The smoke test runs every workload untraced and traced on a small graph
// and checks that each emits every metric BENCHMARK.json names for that kind
// of run, once, finite, with no failed query. Under -short the drills (and so
// their metrics, the last in the file) are skipped.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	if testing.Short() {
		b.PerLayer = b.PerLayer[:len(perLayer)]
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w, shape: smokeShape, seed: 7, seconds: 0.2, trace: trace, drills: !testing.Short()}
			res, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.round {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var want []string
			if trace {
				for _, d := range b.PerLayer {
					want = append(want, d.Name)
				}
			} else {
				for _, d := range b.EndToEnd {
					want = append(want, d.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				v, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, name)
				} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, name, v.Value)
				}
			}
			if !trace {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v.Value)
					}
				}
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 5}, {0.95, 10}, {0.90, 9}, {0.91, 10}, {0.01, 1}, {0, 1}, {1, 10},
	} {
		if got := percentile(sample, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// 200 samples: p95 is the 190th, leaving ten beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.95); got != 190 {
		t.Errorf("percentile(1..200, 0.95) = %v, want 190", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
}

// The teps numerator on a graph small enough to count by hand: a path
// 0-1-2-3, an edge 4-5, and the isolated vertex 6.
func TestTepsNumerator(t *testing.T) {
	edges := graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5}})
	r := &reference{adj: ref.BuildAdj(edges, 7), edges: uint64(len(edges)) / 2, cache: map[query]expected{}}
	for _, c := range []struct {
		q               query
		edges, vertices uint64
	}{
		{query{algo: "bfs", source: 1}, 3, 4},
		{query{algo: "bfs_do", source: 5}, 1, 2},
		{query{algo: "bfs", source: 6}, 0, 1},
		{query{algo: "sssp", source: 3, weightSeed: 9}, 3, 4},
		{query{algo: "cc"}, 4, 7},
		{query{algo: "kcore", k: 2}, 4, 7},
		{query{algo: "pagerank", iters: 3}, 12, 21},
	} {
		exp, err := r.answer(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if exp.edges != c.edges || exp.vertices != c.vertices {
			t.Errorf("%+v: edges %d vertices %d, want %d and %d", c.q, exp.edges, exp.vertices, c.edges, c.vertices)
		}
	}
	// check sums only what verified: one good sample, one wrong hash, one error.
	good, _ := r.answer(query{algo: "bfs", source: 1})
	v := r.check([]sample{
		{idx: 0, q: query{algo: "bfs", source: 1}, hash: good.hash},
		{idx: 1, q: query{algo: "bfs", source: 1}, hash: good.hash + 1},
		{idx: 2, q: query{algo: "cc"}, err: havoqgt.ErrQueryRejected},
	})
	if v.failed != 2 || v.edges != 3 || v.vertices != 4 {
		t.Errorf("check: failed %d edges %d vertices %d, want 2, 3, 4", v.failed, v.edges, v.vertices)
	}
}

// The generator never holds more than the window and never reorders the list.
func TestClosedLoopGenerator(t *testing.T) {
	w := workloads[1] // serve_points: 8 outstanding through the engine
	e, err := setUp(w, smokeShape)
	if err != nil {
		t.Fatal(err)
	}
	defer e.tearDown()
	list, err := w.list(3, e.g)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	ph := runRounds(e, w, list, nil, func(round int, _ time.Duration) bool { return round >= rounds })
	if len(ph.samples) != rounds*w.round {
		t.Fatalf("%d samples, want %d", len(ph.samples), rounds*w.round)
	}
	if ph.maxOutstanding != w.outstanding {
		t.Errorf("at most %d outstanding, want exactly the window of %d", ph.maxOutstanding, w.outstanding)
	}
	byIdx := append([]sample(nil), ph.samples...)
	sort.Slice(byIdx, func(i, j int) bool { return byIdx[i].idx < byIdx[j].idx })
	for i, s := range byIdx {
		if s.idx != i || s.q != list[i%len(list)] {
			t.Fatalf("sample %d is query %d %+v, want list[%d] %+v", i, s.idx, s.q, i, list[i%len(list)])
		}
		if i > 0 && s.submit < byIdx[i-1].submit {
			t.Errorf("query %d submitted before query %d", i, i-1)
		}
		if s.err != nil {
			t.Errorf("query %d: %v", i, s.err)
		}
		// No more than the window may overlap: query i is submitted only
		// after query i-window... has been collected by the generator.
		if i >= w.outstanding {
			earlier := 0
			for _, o := range byIdx[:i] {
				if o.collected > s.submit {
					earlier++
				}
			}
			if earlier >= w.outstanding {
				t.Errorf("query %d submitted with %d still outstanding", i, earlier)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "qps", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		d      metricDef
		a, b   []float64
		status string
	}{
		{lower, steady, []float64{105, 106, 104, 105}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115}, "worse"},
		{lower, steady, []float64{85, 86, 84, 85}, "ok"}, // better is never worse
		{higher, steady, []float64{85, 86, 84, 85}, "worse"},
		{higher, steady, []float64{115, 116, 114, 115}, "ok"},
		{lower, steady, []float64{80, 130, 100, 150}, "unresolved"},
		{lower, []float64{100}, []float64{105}, "ok"}, // single runs have no spread
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.status {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.status)
		}
	}
}

// -compare refuses sets that were not measured under the same conditions, and
// counts any failed query in b as worse.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h header, failed int) string {
		path := filepath.Join(dir, name)
		rec := runRecord{header: h, Workload: workloads[0].name, result: result{Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metricValue{"qps": {Value: 10, Unit: "1/s"}}}}
		if err := writeRecords(path, []runRecord{rec}, false); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := header{Commit: "aaaa", Seed: 42, Scale: defaultScale, Ranks: defaultRanks, Topology: defaultTopology, Seconds: 24, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.22"}
	a := write("a.jsonl", base, 0)
	other := base
	other.Commit = "bbbb"
	if err := compareSets(io.Discard, a, write("b.jsonl", other, 0)); err != nil {
		t.Errorf("sets that differ only in the commit: %v", err)
	}
	if err := compareSets(io.Discard, a, write("failed.jsonl", other, 1)); err == nil {
		t.Error("a failed query in b was not judged worse")
	}
	for name, change := range map[string]func(*header){
		"seed":    func(h *header) { h.Seed = 7 },
		"scale":   func(h *header) { h.Scale = 12 },
		"seconds": func(h *header) { h.Seconds = 10 },
		"nproc":   func(h *header) { h.NProc = 8 },
	} {
		h := other
		change(&h)
		if err := compareSets(io.Discard, a, write(name+".jsonl", h, 0)); err == nil {
			t.Errorf("sets that differ in %s were compared", name)
		}
	}
}
