package main

// End-to-end checks that run havoqd as real child processes: a served graph
// under concurrent HTTP load and a real SIGTERM (TestServeSmoke), and a
// coordinator with four -join worker processes, every result hash held to
// the in-process engine (TestClusterSmoke). `make serve-smoke` and
// `make cluster-smoke` run them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
	"havoqgt/internal/cluster"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
	"havoqgt/internal/xrand"
)

// asHavoqd, set to 1 in a child's environment, makes the test binary run
// havoqd's main on its arguments instead of the tests.
const asHavoqd = "HAVOQD_TEST_AS_HAVOQD"

// TestMain intercepts the re-exec before any test runs.
func TestMain(m *testing.M) {
	if os.Getenv(asHavoqd) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// startHavoqd runs havoqd with args as a child process.
func startHavoqd(t *testing.T, name string, args ...string) *check.Child {
	t.Helper()
	return check.StartChild(t, name, []string{asHavoqd + "=1"}, args...)
}

// mixedQuery is the i-th of TestServeSmoke's queries: every query type,
// BFS and SSSP from spread-out sources.
func mixedQuery(i int, n uint64) queryRequest {
	switch {
	case i%10 == 9:
		return queryRequest{Algo: "cc"}
	case i%10 == 8:
		return queryRequest{Algo: "kcore", K: uint32(2 + i%3)}
	case i%10 == 7:
		return queryRequest{Algo: "pagerank", Iters: uint32(4 + i%8)}
	case i%10 == 5:
		return queryRequest{Algo: "triangles"}
	case i%10 == 3:
		return queryRequest{Algo: "bfs_do", Source: uint64(i*41) % n}
	case i%2 == 0:
		return queryRequest{Algo: "bfs", Source: uint64(i*37) % n}
	default:
		return queryRequest{Algo: "sssp", Source: uint64(i*53+1) % n, WeightSeed: uint64(i)}
	}
}

// TestServeSmoke serves a scale-12 graph on 8 ranks from a havoqd process
// and drives it over real HTTP: /healthz answers ok, 50 concurrent mixed
// queries all answer 200 with a well-formed body, /stats is JSON, and a
// SIGTERM drains the server, which reports every query served and exits 0
// (an engine that fails to close exits 1).
func TestServeSmoke(t *testing.T) {
	const queries = 50
	p := startHavoqd(t, "server", "-scale", "12", "-ranks", "8", "-addr", "127.0.0.1:0")
	base := "http://" + p.Scrape(t, regexp.MustCompile(`havoqd: listening on (\S+)`), 2*time.Minute)
	client := &http.Client{Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()
	get := func(path string) []byte {
		t.Helper()
		res, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, res.StatusCode, err)
		}
		return body
	}

	var health struct {
		OK       bool   `json:"ok"`
		Vertices uint64 `json:"vertices"`
	}
	if err := json.Unmarshal(get("/healthz"), &health); err != nil || !health.OK {
		t.Fatalf("healthz: %+v, %v", health, err)
	}

	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := mixedQuery(i, health.Vertices)
			body, _ := json.Marshal(req)
			res, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("query %d (%s): %v", i, req.Algo, err)
				return
			}
			defer res.Body.Close()
			raw, _ := io.ReadAll(res.Body)
			var qr queryResponse
			if res.StatusCode != http.StatusOK {
				t.Errorf("query %d (%s): status %d: %s", i, req.Algo, res.StatusCode, bytes.TrimSpace(raw))
			} else if err := json.Unmarshal(raw, &qr); err != nil || qr.Algo != req.Algo {
				t.Errorf("query %d (%s): bad response %q: %v", i, req.Algo, raw, err)
			}
		}(i)
	}
	wg.Wait()

	var stats map[string]any
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatalf("stats: bad JSON: %v", err)
	}

	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(t, time.Minute); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	if want := fmt.Sprintf("havoqd: drained; served=%d failed=0 shed=0", queries); !strings.Contains(p.Output(), want) {
		t.Fatalf("no %q in the server's output", want)
	}
}

// TestClusterSmoke forms a cluster of an in-process coordinator and 4
// `havoqd -join` worker processes on a scale-12 graph (one rank each), runs
// every query type through it — three sources for those that read one,
// deduplicated by engine.Canonical, and a sampled triangle count, so every
// parameter the query table reads crosses processes — and requires every
// result hash to be the in-process engine's on the same graph, and every
// worker to exit 0 on the shutdown broadcast.
func TestClusterSmoke(t *testing.T) {
	check.NoLeaks(t)
	flags := []string{"-workers", "4", "-ranks", "4", "-scale", "12"}
	var o options
	if err := newFlagSet(&o).Parse(flags); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCoordinator("127.0.0.1:0", clusterCfg(&o), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	workers := make([]*check.Child, o.workers)
	for slot := range workers {
		workers[slot] = startHavoqd(t, fmt.Sprintf("worker %d", slot),
			append([]string{"-join", c.Addr(), "-slot", strconv.Itoa(slot)}, flags...)...)
	}
	if err := c.WaitReady(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	n := c.NumVertices()
	specs := []engine.Spec{{Algo: engine.AlgoTriangles, SampleProb: 0.25, SampleSeed: 3}}
	for _, a := range engine.Algos() {
		for i := uint64(0); i < 3; i++ {
			spec := engine.Canonical(engine.Spec{Algo: a, Source: graph.Vertex(xrand.Mix64(i+42) % n),
				WeightSeed: i, K: 4, Iters: 8})
			if !slices.Contains(specs, spec) {
				specs = append(specs, spec)
			}
		}
	}
	queries := make([]*cluster.Query, len(specs))
	for i, spec := range specs {
		if queries[i], err = c.Submit(spec); err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
	}
	got := make([]uint64, len(specs))
	for i, q := range queries {
		res, err := q.Wait()
		if err != nil {
			t.Fatalf("%+v: %v", specs[i], err)
		}
		got[i] = cluster.HashResult(specs[i], n, res)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for slot, w := range workers {
		if err := w.Wait(t, 30*time.Second); err != nil {
			t.Errorf("worker %d exit: %v", slot, err)
		}
	}

	g, err := havoqgt.GenerateRMAT(o.scale, o.seed, havoqgt.Options{Ranks: o.ranks, Topology: o.topo, Simplify: o.simplify})
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.StartEngine(havoqgt.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, spec := range specs {
		tk, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := cluster.HashResult(spec, n, tk.Wait()); got[i] != want {
			t.Errorf("%+v: cluster hash %016x, in-process %016x", spec, got[i], want)
		}
	}
	t.Logf("%d/%d hashes identical across %d processes", len(specs), len(specs), o.workers+1)
}
