package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
	"havoqgt/internal/cluster"
)

// coordBurst is the per-tenant burst testCoordServer's quota allows; the
// quota never refills.
const coordBurst = 16

// testCoordServer serves the coordinator's front end over a two-worker
// cluster on the single-process test server's graph (scale 9, seed 7, 4
// ranks, 2d, simplify), configured from its flags with extra ones appended.
// Call it after testServer, whose leak check then covers both: a second
// baseline taken here would race the single server's rank goroutines still
// starting.
func testCoordServer(t *testing.T, flags ...string) *httptest.Server {
	t.Helper()
	var o options
	if err := newFlagSet(&o).Parse(append([]string{"-workers", "2", "-ranks", "4", "-scale", "9", "-seed", "7",
		"-tenant-rate", "1", "-tenant-burst", strconv.Itoa(coordBurst), "-quota-tick", "1h"}, flags...)); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCoordinator("127.0.0.1:0", clusterCfg(&o), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	exits := make(chan workerExit, o.workers)
	for i := 0; i < o.workers; i++ {
		go func() {
			exits <- workerExit{i, cluster.RunWorker(cluster.WorkerOptions{
				Coordinator: c.Addr(), Config: clusterCfg(&o), Slot: -1, Logf: t.Logf,
			})}
		}()
	}
	cs := newCoordServer(c, &o, "")
	ts := httptest.NewServer(cs.handler())
	t.Cleanup(func() {
		ts.Close()
		cs.close()
		c.Close() // workers exit on the shutdown broadcast
		waitWorkerExits(t, exits, o.workers, workerExitWait)
		http.DefaultClient.CloseIdleConnections()
	})
	if err := c.WaitReady(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	return ts
}

// workerExitWait bounds how long testCoordServer's cleanup waits for its
// workers after the shutdown broadcast. A worker wedged in a collective would
// otherwise hold the test binary until the go test timeout, naming nothing.
const workerExitWait = 30 * time.Second

type workerExit struct {
	worker int
	err    error
}

// waitWorkerExits collects n workers' exits. Past wait it fails the test
// naming the workers still running, with every goroutine's stack, so a
// stuck worker names the collective it is blocked in.
func waitWorkerExits(t *testing.T, exits <-chan workerExit, n int, wait time.Duration) {
	t.Helper()
	exited := make([]bool, n)
	timeout := time.After(wait)
	for range n {
		select {
		case e := <-exits:
			exited[e.worker] = true
			if e.err != nil {
				t.Errorf("worker %d exit: %v", e.worker, e.err)
			}
		case <-timeout:
			var missing []int
			for i, ok := range exited {
				if !ok {
					missing = append(missing, i)
				}
			}
			var dump strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&dump, 2) // a strings.Builder write cannot fail
			t.Errorf("workers %v still running %v after the shutdown broadcast; goroutines:\n%s", missing, wait, dump.String())
			return
		}
	}
}

// TestCoordServerEndpoints drives the coordinator's HTTP front door — which
// neither TestClusterSmoke nor internal/cluster's TestKillAndRejoin reaches;
// both call Coordinator.Submit — over a two-worker cluster, against the
// single-process server on the same graph: every query type, full arrays
// included, answers the same except that the cluster ships no parents.
func TestCoordServerEndpoints(t *testing.T) {
	s, single := testServer(t)
	ts := testCoordServer(t)
	var src havoqgt.Vertex // low ids are often isolated: take the first with an edge
	for deg, _ := s.g.Degree(src); deg == 0; deg, _ = s.g.Degree(src) {
		src++
	}

	for _, q := range []queryRequest{
		{Algo: "bfs", Source: uint64(src), Full: true},
		{Algo: "bfs_do", Source: uint64(src), Full: true},
		{Algo: "sssp", Source: uint64(src), WeightSeed: 9, Full: true},
		{Algo: "cc", Full: true},
		{Algo: "kcore", K: 2, Full: true},
		{Algo: "triangles", Full: true},
		{Algo: "pagerank", Iters: 6, Full: true},
	} {
		code, got, er := postQuery(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.Algo, code, er.Reason)
		}
		if got.Parents != nil {
			t.Errorf("%s: the cluster answered with parents", q.Algo)
		}
		_, want, _ := postQuery(t, single, q)
		got.ID, got.ElapsedMS, want.ID, want.ElapsedMS = 0, 0, 0, 0
		want.Parents = nil // arrival-order dependent; the cluster does not assemble them
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cluster answer differs from the single-process server's (reached %d/%d, max level %d/%d, components %d/%d, core %d/%d, triangles %d/%d)",
				q.Algo, got.Reached, want.Reached, got.MaxLevel, want.MaxLevel, got.Components, want.Components,
				got.CoreSize, want.CoreSize, got.Triangles, want.Triangles)
		}
	}

	// One tenant spends its burst (the repeats are cache hits), then sheds.
	for i := 0; i < coordBurst; i++ {
		res := postAs(t, ts, "greedy", queryRequest{Algo: "bfs", Source: 3})
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, res.StatusCode)
		}
	}
	shed := postAs(t, ts, "greedy", queryRequest{Algo: "bfs", Source: 3})
	var er errorResponse
	json.NewDecoder(shed.Body).Decode(&er)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests || er.Code != codeQuotaExceeded || shed.Header.Get("Retry-After") == "" {
		t.Fatalf("request past burst: status %d body %+v Retry-After %q, want 429 %s",
			shed.StatusCode, er, shed.Header.Get("Retry-After"), codeQuotaExceeded)
	}

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var health struct {
		OK      bool  `json:"ok"`
		Cluster bool  `json:"cluster"`
		Missing []int `json:"missing_slots"`
	}
	if err := json.NewDecoder(res.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || !health.Cluster || len(health.Missing) != 0 {
		t.Errorf("healthz: %+v, want ok, cluster, no missing slots", health)
	}
}

// TestCoordServerDefaultDeadline: on the coordinator, as in the single
// process, a request with deadline_ms 0 runs under -deadline. At 1ns the
// deadline cancels the query as it starts, and the front door answers 504.
func TestCoordServerDefaultDeadline(t *testing.T) {
	check.NoLeaks(t)
	ts := testCoordServer(t, "-deadline", "1ns")
	if code, _, er := postQuery(t, ts, queryRequest{Algo: "pagerank", Iters: 64}); code != http.StatusGatewayTimeout || er.Code != codeTimeout {
		t.Fatalf("status %d %+v, want 504 %s", code, er, codeTimeout)
	}
}
