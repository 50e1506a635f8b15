package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"havoqgt/internal/cluster"
)

// TestCoordServerEndpoints drives the coordinator's HTTP front door — which
// neither -smoke -cluster nor -chaos -cluster reaches; both call
// Coordinator.Submit — over a two-worker cluster, against the single-process
// server on the same graph.
func TestCoordServerEndpoints(t *testing.T) {
	_, single := testServer(t) // scale 9, seed 7, 4 ranks, 2d, simplify; registers the leak check

	var o options
	if err := newFlagSet(&o).Parse([]string{"-workers", "2", "-ranks", "4", "-scale", "9", "-seed", "7",
		"-tenant-rate", "1", "-tenant-burst", "8", "-quota-tick", "1h"}); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCoordinator("127.0.0.1:0", clusterCfg(&o), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	exits := make(chan error, o.workers)
	for i := 0; i < o.workers; i++ {
		go func() {
			exits <- cluster.RunWorker(cluster.WorkerOptions{
				Coordinator: c.Addr(), Config: clusterCfg(&o), Slot: -1, Logf: t.Logf,
			})
		}()
	}
	cs := newCoordServer(c, &o, "")
	ts := httptest.NewServer(cs.handler())
	t.Cleanup(func() {
		ts.Close()
		cs.close()
		c.Close() // workers exit on the shutdown broadcast
		for i := 0; i < o.workers; i++ {
			if err := <-exits; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
	})
	if err := c.WaitReady(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	for _, q := range []queryRequest{
		{Algo: "bfs", Source: 3, Full: true},
		{Algo: "cc", Full: true},
	} {
		code, got, er := postQuery(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q.Algo, code, er.Reason)
		}
		_, want, _ := postQuery(t, single, q)
		got.ID, got.ElapsedMS, want.ID, want.ElapsedMS = 0, 0, 0, 0
		want.Parents = nil // arrival-order dependent; the cluster does not assemble them
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cluster answer differs from the single-process server's (reached %d/%d, max level %d/%d, components %d/%d)",
				q.Algo, got.Reached, want.Reached, got.MaxLevel, want.MaxLevel, got.Components, want.Components)
		}
	}

	for _, q := range []queryRequest{
		{Algo: "betweenness"},
		{Algo: "bfs", Source: 1 << 40},
	} {
		if code, _, er := postQuery(t, ts, q); code != http.StatusBadRequest || er.Code != codeBadRequest || er.Reason == "" {
			t.Errorf("%+v: status %d body %+v, want a structured 400", q, code, er)
		}
	}

	// One tenant spends its burst (the repeats are cache hits), then sheds.
	const burst = 8 // -tenant-burst above
	for i := 0; i < burst; i++ {
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
