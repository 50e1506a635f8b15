package main

// Degradation-path tests: oversized bodies shed with 413, deadline-expired
// queries retried server-side from their checkpoints before any 504, and the
// facade's typed retryable error distinguishing timeout from explicit cancel.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
)

func TestServerRejectsOversizedBody(t *testing.T) {
	s, ts := testServer(t)
	big := append([]byte(`{"algo":"`), bytes.Repeat([]byte("x"), maxQueryBody+1024)...)
	big = append(big, []byte(`"}`)...)
	res, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want %d", res.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if s.served.Load() != 0 {
		t.Fatal("oversized request counted as served")
	}
}

// TestServerRetriesDeadlineExpiredQuery drives a query whose first-attempt
// deadline cannot possibly hold and checks the degradation ladder: the server
// resumes it from checkpoints with doubled budgets, and the client either
// gets the correct answer (some attempt fit its budget) or a 504 with
// Retry-After once the retry allowance is spent — never a hang and never a
// wrong answer.
func TestServerRetriesDeadlineExpiredQuery(t *testing.T) {
	s, ts := testServer(t)
	want, err := s.g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	s.retries = 16 // generous: a 1ms budget doubling 16 times crosses any query time

	// 1ms on a scale-9 graph: tight enough to usually expire at least once,
	// small enough that an attempt can also finish — the test asserts the
	// correct outcome of whichever path ran.
	body, _ := json.Marshal(queryRequest{Algo: "bfs", Source: 0, DeadlineMS: 1})
	res, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	switch res.StatusCode {
	case http.StatusOK:
		var qr queryResponse
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if qr.Reached != want.Reached || qr.MaxLevel != want.MaxLevel {
			t.Fatalf("recovered query wrong: reached=%d max=%d, want reached=%d max=%d",
				qr.Reached, qr.MaxLevel, want.Reached, want.MaxLevel)
		}
	case http.StatusGatewayTimeout:
		if res.Header.Get("Retry-After") == "" {
			t.Fatal("504 without Retry-After")
		}
	default:
		t.Fatalf("status %d, want 200 or 504", res.StatusCode)
	}
}

// TestFacadeTimeoutErrAndResume exercises the typed-error ladder directly on
// the facade: a deadline expiry surfaces ErrQueryTimeout (wrapping
// ErrQueryCancelled), Resume carries the checkpoint forward, and the resumed
// chain eventually produces the exact traversal.
func TestFacadeTimeoutErrAndResume(t *testing.T) {
	check.NoLeaks(t)
	g, err := havoqgt.GenerateRMAT(10, 7, havoqgt.Options{Ranks: 4, Topology: "2d", Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.BFS(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.StartEngine(havoqgt.EngineOptions{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	q, err := e.SubmitQuery(havoqgt.QuerySpec{Algo: "bfs", Source: 5, Deadline: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var res *havoqgt.QueryResult
	resumes := 0
	for {
		res, err = q.Wait()
		if err == nil {
			break
		}
		if !errors.Is(err, havoqgt.ErrQueryTimeout) || !errors.Is(err, havoqgt.ErrQueryCancelled) {
			t.Fatalf("deadline expiry surfaced %v, want ErrQueryTimeout wrapping ErrQueryCancelled", err)
		}
		if resumes++; resumes > 32 {
			t.Fatal("resume chain did not converge in 32 attempts")
		}
		if q, err = q.Resume(0); err != nil {
			t.Fatalf("Resume: %v", err)
		}
	}
	if res.BFS == nil {
		t.Fatal("BFS query returned non-BFS result")
	}
	if res.BFS.Reached != want.Reached || res.BFS.MaxLevel != want.MaxLevel {
		t.Fatalf("resumed chain: reached=%d max=%d, want reached=%d max=%d",
			res.BFS.Reached, res.BFS.MaxLevel, want.Reached, want.MaxLevel)
	}
	for v := range want.Levels {
		if res.BFS.Levels[v] != want.Levels[v] {
			t.Fatalf("resumed chain level[%d]: %d != %d", v, res.BFS.Levels[v], want.Levels[v])
		}
	}
	t.Logf("converged after %d resumes", resumes)

	// Explicit cancellation is NOT retryable: plain ErrQueryCancelled, not
	// ErrQueryTimeout, and Resume still works only because the query is
	// cancelled (callers decide; the server's handler only retries timeouts).
	q2, err := e.SubmitBFS(1)
	if err != nil {
		t.Fatal(err)
	}
	q2.Cancel()
	if _, err := q2.Wait(); errors.Is(err, havoqgt.ErrQueryTimeout) || !errors.Is(err, havoqgt.ErrQueryCancelled) {
		t.Fatalf("explicit cancel surfaced %v, want plain ErrQueryCancelled", err)
	}
}

// TestExecuteWithRecovery checks the bundled retry helper end to end.
func TestExecuteWithRecovery(t *testing.T) {
	check.NoLeaks(t)
	g, err := havoqgt.GenerateRMAT(9, 7, havoqgt.Options{Ranks: 4, Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.BFS(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.StartEngine(havoqgt.EngineOptions{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	pol := havoqgt.RecoveryPolicy{Attempts: 24, Backoff: time.Microsecond}
	res, err := e.ExecuteWithRecovery(havoqgt.QuerySpec{Algo: "bfs", Source: 2, Deadline: 100 * time.Microsecond}, pol)
	if err != nil {
		t.Fatalf("ExecuteWithRecovery: %v", err)
	}
	if res.BFS == nil || res.BFS.Reached != want.Reached || res.BFS.MaxLevel != want.MaxLevel {
		t.Fatalf("recovered result wrong: %+v", res.BFS)
	}

	// The whole spec reaches the engine: a PageRank runs the iteration count
	// it was asked for, not the default (the positional signature this
	// replaced had no Iters and silently dropped it).
	wantPR, err := g.PageRank(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.ExecuteWithRecovery(havoqgt.QuerySpec{Algo: "pagerank", Iters: 3}, pol)
	if err != nil {
		t.Fatalf("ExecuteWithRecovery pagerank: %v", err)
	}
	if res.PageRank == nil || res.PageRank.Iters != 3 {
		t.Fatalf("pagerank through recovery ran %+v, want 3 iterations", res.PageRank)
	}
	for v, rk := range wantPR.Ranks {
		if res.PageRank.Ranks[v] != rk {
			t.Fatalf("pagerank through recovery: rank(%d) = %d, Graph.PageRank(3) says %d", v, res.PageRank.Ranks[v], rk)
		}
	}
}
