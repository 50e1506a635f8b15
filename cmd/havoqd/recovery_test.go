package main

// Degradation-path tests: oversized bodies shed with 413, the recovery
// ladder's contract on a scripted mode, deadline-expired queries retried
// server-side from their checkpoints before any 504, and the facade's typed
// retryable error distinguishing timeout from explicit cancel.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
	"havoqgt/internal/engine"
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

// errRetryable is the scripted mode's retryable failure;
// errRetryableSubmit is one its submit raises.
var (
	errRetryable       = errors.New("retryable")
	errRetryableSubmit = fmt.Errorf("at submit: %w", errRetryable)
)

// scriptedAttempt is one attempt of scriptedMode: it fails with err (nil
// succeeds), or with abandon it runs until ctx ends, is cancelled, and then
// fails retryably — a deadline racing the abandonment.
type scriptedAttempt struct {
	id        uint32
	err       error
	abandon   bool
	cancelled bool
}

func (a *scriptedAttempt) ID() uint32 { return a.id }

func (a *scriptedAttempt) WaitCtx(ctx context.Context) (*engine.Result, error) {
	if a.abandon {
		<-ctx.Done()
		a.cancelled = true
		return nil, errRetryable
	}
	if a.err != nil {
		return nil, a.err
	}
	return &engine.Result{Triangles: 7}, nil
}

// scriptedMode is a fake mode for the ladder: attempt i fails with
// script[i] (at submit for errRetryableSubmit), attempts past the script
// succeed, and its retryable set is errRetryable, each retry doubling the
// spec's deadline.
type scriptedMode struct {
	script   []error
	abandon  bool
	attempts []*scriptedAttempt
	specs    []engine.Spec
}

func (m *scriptedMode) submit(spec engine.Spec) (*scriptedAttempt, error) {
	i := len(m.specs)
	m.specs = append(m.specs, spec)
	var err error
	if i < len(m.script) {
		err = m.script[i]
	}
	if err == errRetryableSubmit {
		return nil, err
	}
	a := &scriptedAttempt{id: uint32(i + 1), err: err, abandon: m.abandon}
	m.attempts = append(m.attempts, a)
	return a, nil
}

func (m *scriptedMode) retry(spec engine.Spec, _ *scriptedAttempt, err error) (engine.Spec, bool) {
	spec.Deadline *= 2
	return spec, errors.Is(err, errRetryable)
}

// TestLadder drives the recovery ladder with a scripted mode: the retry
// count, the error a failed execution returns, what each attempt was
// submitted with, and that an abandoned execution is cancelled, not retried.
func TestLadder(t *testing.T) {
	errHard := errors.New("not retryable")
	for _, tc := range []struct {
		name    string
		budget  int
		script  []error
		abandon bool
		retried int   // retries, so attempts submitted = retried + 1
		err     error // nil: the last attempt's answer is served
	}{
		{name: "first try", budget: 2},
		{name: "succeeds on retry 3", budget: 3, script: []error{errRetryable, errRetryableSubmit, errRetryable}, retried: 3},
		{name: "budget spent", budget: 2, script: []error{errRetryable, errRetryable, errRetryable}, retried: 2, err: errRetryable},
		{name: "no budget", budget: 0, script: []error{errRetryable}, err: errRetryable},
		{name: "not retryable", budget: 2, script: []error{errHard}, err: errHard},
		{name: "retryable then not", budget: 2, script: []error{errRetryableSubmit, errHard}, retried: 1, err: errHard},
		{name: "abandoned", budget: 2, abandon: true, err: errRetryable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &scriptedMode{script: tc.script, abandon: tc.abandon}
			f := &frontEnd{retries: tc.budget}
			ctx, cancel := context.WithCancel(context.Background())
			if tc.abandon {
				cancel() // every client waiting on the execution has gone
			}
			defer cancel()
			spec := engine.Spec{Algo: engine.AlgoTriangles, Deadline: time.Millisecond}
			body, err := ladder(f, m.submit, m.retry)(ctx, spec, false)
			if err != tc.err {
				t.Fatalf("error %v, want %v", err, tc.err)
			}
			if got := int(f.retried.Load()); got != tc.retried || len(m.specs) != tc.retried+1 {
				t.Fatalf("%d retries over %d attempts, want %d over %d", got, len(m.specs), tc.retried, tc.retried+1)
			}
			for i, s := range m.specs {
				if want := time.Millisecond << i; s.Deadline != want {
					t.Errorf("attempt %d submitted with deadline %v, want %v", i, s.Deadline, want)
				}
			}
			if tc.abandon && !m.attempts[0].cancelled {
				t.Error("an abandoned execution was not cancelled")
			}
			if tc.err != nil {
				return
			}
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if last := m.attempts[len(m.attempts)-1]; qr.ID != last.id || qr.Triangles != 7 {
				t.Fatalf("served id %d triangles %d, want the last attempt's (%d, 7)", qr.ID, qr.Triangles, last.id)
			}
		})
	}
}

// TestServerRetriesDeadlineExpiredQuery drives a query whose first-attempt
// deadline cannot possibly hold and checks the degradation ladder: the server
// resumes it from checkpoints with doubled budgets, and the client either
// gets the correct answer (some attempt fit its budget) or a 504 with
// Retry-After once the retry allowance is spent — never a hang and never a
// wrong answer.
func TestServerRetriesDeadlineExpiredQuery(t *testing.T) {
	// A generous budget: 1ms doubling 16 times crosses any query time.
	s, ts := testServer(t, "-query-retries", "16")
	want, err := s.g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}

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
