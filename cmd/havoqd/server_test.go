package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"havoqgt/internal/check"
	"havoqgt/internal/obs"
)

// testServer serves the single-process front end over a scale-9 graph (seed
// 7, 4 ranks, 2d, simplify), configured as havoqd is: from its flags, with
// extra ones appended.
func testServer(t *testing.T, flags ...string) (*server, *httptest.Server) {
	t.Helper()
	check.NoLeaks(t) // registered first so the leak check runs after teardown
	var o options
	if err := newFlagSet(&o).Parse(append([]string{"-scale", "9", "-seed", "7", "-ranks", "4"}, flags...)); err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(&o)
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.StartEngine(o.engine)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(g, e, &o)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
		e.Close()
		// Client keep-alive connections from http.Post hold transport
		// goroutines; drop them so the leak check sees a settled count.
		http.DefaultClient.CloseIdleConnections()
	})
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, req queryRequest) (int, queryResponse, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	res, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var qr queryResponse
	var er errorResponse
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := json.NewDecoder(res.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return res.StatusCode, qr, er
}

// postAs posts one query as the given tenant ("" = anonymous) and returns
// the raw response, for tests that read headers; the caller closes the body.
func postAs(t *testing.T, ts *httptest.Server, tenant string, q queryRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(q)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestServerEndpoints(t *testing.T) {
	s, ts := testServer(t)

	// Healthz.
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(res.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if health["ok"] != true {
		t.Fatalf("healthz: %v", health)
	}

	// A full BFS answer matches the facade run directly.
	code, qr, er := postQuery(t, ts, queryRequest{Algo: "bfs", Source: 3, Full: true})
	if code != http.StatusOK {
		t.Fatalf("bfs: status %d: %s", code, er.Reason)
	}
	want, err := s.g.BFS(3)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Reached != want.Reached || qr.MaxLevel != want.MaxLevel {
		t.Fatalf("bfs summary: got reached=%d max=%d, want reached=%d max=%d",
			qr.Reached, qr.MaxLevel, want.Reached, want.MaxLevel)
	}
	for v := range want.Levels {
		if qr.Levels[v] != want.Levels[v] {
			t.Fatalf("bfs level[%d]: %d != %d", v, qr.Levels[v], want.Levels[v])
		}
	}

	// Each algorithm answers with its summary field.
	if code, qr, er := postQuery(t, ts, queryRequest{Algo: "sssp", Source: 1, WeightSeed: 9}); code != http.StatusOK || qr.Reached == 0 {
		t.Fatalf("sssp: status %d reached %d: %s", code, qr.Reached, er.Reason)
	}
	if code, qr, er := postQuery(t, ts, queryRequest{Algo: "cc"}); code != http.StatusOK || qr.Components == 0 {
		t.Fatalf("cc: status %d components %d: %s", code, qr.Components, er.Reason)
	}
	if code, qr, er := postQuery(t, ts, queryRequest{Algo: "kcore", K: 2}); code != http.StatusOK || qr.CoreSize == 0 {
		t.Fatalf("kcore: status %d core %d: %s", code, qr.CoreSize, er.Reason)
	}
	code, doQR, er := postQuery(t, ts, queryRequest{Algo: "bfs_do", Source: 3})
	if code != http.StatusOK || doQR.Reached == 0 {
		t.Fatalf("bfs_do: status %d reached %d: %s", code, doQR.Reached, er.Reason)
	}
	if doQR.Reached != want.Reached || doQR.MaxLevel != want.MaxLevel {
		t.Fatalf("bfs_do summary (%d, %d) != top-down bfs (%d, %d)",
			doQR.Reached, doQR.MaxLevel, want.Reached, want.MaxLevel)
	}
	if code, qr, er := postQuery(t, ts, queryRequest{Algo: "pagerank", Iters: 6}); code != http.StatusOK || qr.Iters != 6 {
		t.Fatalf("pagerank: status %d iters %d: %s", code, qr.Iters, er.Reason)
	}
	// The whole spec reaches the engine: a full PageRank runs the iteration
	// count it was asked for, not the default.
	wantPR, err := s.g.PageRank(3)
	if err != nil {
		t.Fatal(err)
	}
	code, qr, er = postQuery(t, ts, queryRequest{Algo: "pagerank", Iters: 3, Full: true})
	if code != http.StatusOK || qr.Iters != 3 || len(qr.Ranks) != len(wantPR.Ranks) {
		t.Fatalf("full pagerank: status %d iters %d ranks %d: %s", code, qr.Iters, len(qr.Ranks), er.Reason)
	}
	for v, rk := range wantPR.Ranks {
		if qr.Ranks[v] != rk {
			t.Fatalf("full pagerank: rank(%d) = %d, Graph.PageRank(3) says %d", v, qr.Ranks[v], rk)
		}
	}
	if code, _, er := postQuery(t, ts, queryRequest{Algo: "triangles"}); code != http.StatusOK {
		t.Fatalf("triangles: status %d: %s", code, er.Reason)
	}

	// Stats is valid JSON with engine counters.
	res, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if _, ok := stats["counters"]; !ok {
		t.Fatalf("stats missing counters: %v", stats)
	}
}

// TestServerRejectsBadRequests runs against both front ends: the
// single-process server's and the cluster coordinator's.
func TestServerRejectsBadRequests(t *testing.T) {
	_, single := testServer(t)
	for _, fe := range []struct {
		name string
		ts   *httptest.Server
	}{{"single", single}, {"cluster", testCoordServer(t)}} {
		t.Run(fe.name, func(t *testing.T) { rejectsBadRequests(t, fe.ts) })
	}
}

func rejectsBadRequests(t *testing.T, ts *httptest.Server) {
	cases := []struct {
		name string
		req  queryRequest
		code int
	}{
		{"unknown algo", queryRequest{Algo: "betweenness"}, http.StatusBadRequest},
		{"source out of range", queryRequest{Algo: "bfs", Source: 1 << 40}, http.StatusBadRequest},
		{"bfs_do source out of range", queryRequest{Algo: "bfs_do", Source: 1 << 40}, http.StatusBadRequest},
		{"kcore k=0", queryRequest{Algo: "kcore"}, http.StatusBadRequest},
		{"pagerank iters over cap", queryRequest{Algo: "pagerank", Iters: 1000}, http.StatusBadRequest},
		{"negative deadline", queryRequest{Algo: "cc", DeadlineMS: -1}, http.StatusBadRequest},
		{"deadline past a Duration", queryRequest{Algo: "cc", DeadlineMS: maxDeadlineMS + 1}, http.StatusBadRequest},
		{"deadline that wraps negative", queryRequest{Algo: "cc", DeadlineMS: math.MinInt64}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, er := postQuery(t, ts, tc.req)
			if code != tc.code {
				t.Fatalf("status %d, want %d (%s)", code, tc.code, er.Reason)
			}
			if er.Reason == "" || er.Code != codeBadRequest {
				t.Fatalf("structured error body missing: %+v", er)
			}
		})
	}
	// Malformed JSON and wrong method.
	res, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d", res.StatusCode)
	}
}

// TestServerEquivalentRequestsShareAnswers: requests that ask the same
// question key as one — a field the query type does not read, or a default
// spelled out, does not split them — so the second of each pair is served
// from the cache.
func TestServerEquivalentRequestsShareAnswers(t *testing.T) {
	_, ts := testServer(t)
	for _, pair := range [][2]queryRequest{
		{{Algo: "cc", Source: 5}, {Algo: "cc"}},
		{{Algo: "pagerank"}, {Algo: "pagerank", Iters: 20}},
	} {
		for i, q := range pair {
			res := postAs(t, ts, "", q)
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			want := []string{"executed", "cached"}[i]
			if got := res.Header.Get("X-Traffic-Outcome"); res.StatusCode != http.StatusOK || got != want {
				t.Errorf("%+v: status %d outcome %q, want 200 %s", q, res.StatusCode, got, want)
			}
		}
	}
}

// TestServerConcurrentQueries fires 16 simultaneous requests for one cold
// key: all are answered correctly, and exactly one leads an engine
// execution — every other joins it in flight or hits the cache behind it.
func TestServerConcurrentQueries(t *testing.T) {
	s, ts := testServer(t)
	want, err := s.g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 16
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, qr, er := postQuery(t, ts, queryRequest{Algo: "bfs", Source: 0})
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, er.Reason)
				return
			}
			if qr.Reached != want.Reached || qr.MaxLevel != want.MaxLevel {
				t.Errorf("got reached=%d max=%d, want reached=%d max=%d",
					qr.Reached, qr.MaxLevel, want.Reached, want.MaxLevel)
			}
		}()
	}
	wg.Wait()
	if got := s.served.Load(); got != burst {
		t.Fatalf("served counter %d, want %d", got, burst)
	}
	snap := s.e.Metrics().Snapshot()
	leaders := snap.Counter(obs.TrafficCollapseLeaders)
	absorbed := snap.Counter(obs.TrafficCollapseHits) + snap.Counter(obs.TrafficCacheHits)
	if leaders != 1 || absorbed != burst-1 {
		t.Fatalf("collapse: %d leaders, %d collapsed or cached; want 1 and %d", leaders, absorbed, burst-1)
	}
}

// TestServerQuotaShedsStructured429 drives a tenant past a tiny quota and
// checks the full shed contract: status 429, machine-readable code, a
// Retry-After header, and isolation from other tenants.
func TestServerQuotaShedsStructured429(t *testing.T) {
	_, ts := testServer(t, "-tenant-rate", "1", "-tenant-burst", "2", "-quota-tick", "1h")
	post := func(tenant string) *http.Response {
		return postAs(t, ts, tenant, queryRequest{Algo: "bfs", Source: 0})
	}
	for i := 0; i < 2; i++ {
		res := post("")
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, res.StatusCode)
		}
	}
	res := post("")
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: status %d, want 429", res.StatusCode)
	}
	if ra := res.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er errorResponse
	if err := json.NewDecoder(res.Body).Decode(&er); err != nil {
		t.Fatalf("429 body not structured JSON: %v", err)
	}
	if er.Code != codeQuotaExceeded || er.Reason == "" || er.RetryAfterSec < 1 {
		t.Fatalf("429 body = %+v", er)
	}
	// Another tenant's bucket is untouched.
	res2 := post("other-tenant")
	io.Copy(io.Discard, res2.Body)
	res2.Body.Close()
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant shed: status %d", res2.StatusCode)
	}
}

// TestServerCacheOutcomeHeaders checks the per-request outcome surface: the
// first identical query executes, the second is served from the versioned
// result cache, and both carry the graph version.
func TestServerCacheOutcomeHeaders(t *testing.T) {
	s, ts := testServer(t)
	post := func() *http.Response {
		return postAs(t, ts, "", queryRequest{Algo: "bfs", Source: 5})
	}
	res := post()
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if got := res.Header.Get("X-Traffic-Outcome"); got != "executed" {
		t.Fatalf("first request outcome = %q, want executed", got)
	}
	res = post()
	var cached queryResponse
	if err := json.NewDecoder(res.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get("X-Traffic-Outcome"); got != "cached" {
		t.Fatalf("second request outcome = %q, want cached", got)
	}
	if got := res.Header.Get("X-Graph-Version"); got != "1" {
		t.Fatalf("X-Graph-Version = %q, want 1", got)
	}

	// A graph-version bump invalidates: the next identical query executes
	// again and reports the new version.
	s.g.BumpVersion()
	res = post()
	var fresh queryResponse
	if err := json.NewDecoder(res.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get("X-Traffic-Outcome"); got != "executed" {
		t.Fatalf("post-bump outcome = %q, want executed", got)
	}
	if got := res.Header.Get("X-Graph-Version"); got != "2" {
		t.Fatalf("post-bump X-Graph-Version = %q, want 2", got)
	}
	// id/elapsed_ms describe the execution that produced the bytes; the
	// graph answer itself must agree across the cache and execute paths.
	if cached.Reached != fresh.Reached || cached.MaxLevel != fresh.MaxLevel {
		t.Fatalf("cached answer reached=%d max=%d, fresh answer reached=%d max=%d",
			cached.Reached, cached.MaxLevel, fresh.Reached, fresh.MaxLevel)
	}

	// Hot keys: N sequential requests over K distinct cold sources execute
	// exactly K times; the cache absorbs the other N-K.
	const n, k = 24, 4
	outcomes := map[string]int{}
	for i := 0; i < n; i++ {
		res := postAs(t, ts, "", queryRequest{Algo: "bfs", Source: uint64(100 + i%k)})
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		outcomes[res.Header.Get("X-Traffic-Outcome")]++
	}
	if outcomes["executed"] != k || outcomes["cached"] != n-k {
		t.Fatalf("%d requests over %d keys: outcomes %v, want %d executed and %d cached", n, k, outcomes, k, n-k)
	}
}

// TestServerStatsExposesTrafficCounters: the traffic plane reports into the
// same registry as the engine, so /stats carries traffic.* next to engine.*.
func TestServerStatsExposesTrafficCounters(t *testing.T) {
	_, ts := testServer(t)
	code, _, er := postQuery(t, ts, queryRequest{Algo: "bfs", Source: 1})
	if code != http.StatusOK {
		t.Fatalf("query: status %d: %s", code, er.Reason)
	}
	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var stats struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters[obs.TrafficAdmitted] == 0 {
		t.Fatalf("stats missing %s: %v", obs.TrafficAdmitted, stats.Counters)
	}
	if _, ok := stats.Counters[obs.TrafficCacheMisses]; !ok {
		t.Fatalf("stats missing %s", obs.TrafficCacheMisses)
	}
}

// TestServerOverloadContract is the front door's overload contract as a
// closed burst: 160 requests for distinct keys from 4 tenants whose buckets
// hold 12 tokens and never refill, against an engine that runs 2 queries and
// queues 2 more, cache off. Every response is a 200 or a retryable 429 with
// the structured body and Retry-After — never a 5xx, never a dropped
// connection — and both shed counts follow from the configuration.
func TestServerOverloadContract(t *testing.T) {
	const tenants, perTenant, burst = 4, 40, 12
	s, ts := testServer(t, "-tenant-rate", "1", "-tenant-burst", strconv.Itoa(burst), "-quota-tick", "1h",
		"-cache-bytes", "-1", "-max-in-flight", "2", "-max-queue", "2")

	var ok, quotaShed, engineShed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < tenants*perTenant; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(queryRequest{Algo: "bfs", Source: uint64(i)})
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
			req.Header.Set(tenantHeader, fmt.Sprintf("tenant-%d", i%tenants))
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer res.Body.Close()
			if res.StatusCode == http.StatusOK {
				io.Copy(io.Discard, res.Body)
				ok.Add(1)
				return
			}
			var er errorResponse
			if err := json.NewDecoder(res.Body).Decode(&er); err != nil {
				t.Errorf("request %d: status %d with unstructured body: %v", i, res.StatusCode, err)
				return
			}
			switch {
			case res.StatusCode != http.StatusTooManyRequests:
				t.Errorf("request %d: status %d (%v), want 200 or 429", i, res.StatusCode, er)
			case res.Header.Get("Retry-After") == "" || er.RetryAfterSec < 1:
				t.Errorf("request %d: 429 without Retry-After: %+v", i, er)
			case er.Code == codeQuotaExceeded:
				quotaShed.Add(1)
			case er.Code == codeEngineOverloaded:
				engineShed.Add(1)
			default:
				t.Errorf("request %d: 429 with code %q, want a retryable shed", i, er.Code)
			}
		}()
	}
	wg.Wait()

	admitted := int64(tenants * burst)
	if got, want := quotaShed.Load(), int64(tenants*(perTenant-burst)); got != want {
		t.Errorf("%d quota sheds, want %d", got, want)
	}
	if got := ok.Load() + engineShed.Load(); got != admitted {
		t.Errorf("%d served + %d engine sheds, want the %d admitted", ok.Load(), engineShed.Load(), admitted)
	}
	if got := s.served.Load() + s.shed.Load() + s.failed.Load(); got != tenants*perTenant {
		t.Errorf("served+shed+failed = %d, want %d", got, tenants*perTenant)
	}
	t.Logf("served %d, quota sheds %d, engine sheds %d", ok.Load(), quotaShed.Load(), engineShed.Load())
}
