package traffic

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCollapseManyIntoOneExecution(t *testing.T) {
	var g group
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	key := Key{Spec: bfs(7), Version: 1}
	var wg sync.WaitGroup
	vals := make([][]byte, n)
	joins := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var exec func(context.Context) ([]byte, error)
			if i == 0 {
				exec = func(context.Context) ([]byte, error) {
					execs.Add(1)
					close(started)
					<-release
					return []byte("answer"), nil
				}
			} else {
				<-started // guarantee the leader is in flight before joining
				exec = func(context.Context) ([]byte, error) {
					execs.Add(1)
					return []byte("wrong leader"), nil
				}
			}
			val, joined, err := g.do(context.Background(), key, exec)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			vals[i], joins[i] = val, joined
		}()
	}
	go func() {
		<-started
		time.Sleep(10 * time.Millisecond) // let the followers enqueue
		close(release)
	}()
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d identical requests, want 1", got, n)
	}
	joinCount := 0
	for i := 0; i < n; i++ {
		if string(vals[i]) != "answer" {
			t.Fatalf("request %d got %q", i, vals[i])
		}
		if joins[i] {
			joinCount++
		}
	}
	if joinCount != n-1 {
		t.Fatalf("%d joins, want %d", joinCount, n-1)
	}
}

func TestCollapseDifferentKeysDoNotCollapse(t *testing.T) {
	var g group
	var execs atomic.Int64
	exec := func(context.Context) ([]byte, error) {
		execs.Add(1)
		return nil, nil
	}
	if _, _, err := g.do(context.Background(), Key{Spec: bfs(1)}, exec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.do(context.Background(), Key{Spec: bfs(2)}, exec); err != nil {
		t.Fatal(err)
	}
	// Same source, different version: a version bump must miss.
	if _, _, err := g.do(context.Background(), Key{Spec: bfs(1), Version: 1}, exec); err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("%d executions, want 3", got)
	}
}

// TestCollapseFollowerCancelDoesNotCancelLeader is the satellite-mandated
// cancellation test: a collapsed follower abandoning must return promptly
// with its own context error while the leader's execution keeps running and
// completes.
func TestCollapseFollowerCancelDoesNotCancelLeader(t *testing.T) {
	var g group
	key := Key{Spec: bfs(1)}
	started := make(chan struct{})
	release := make(chan struct{})
	execCancelled := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), key, func(ctx context.Context) ([]byte, error) {
			close(started)
			select {
			case <-release:
				return []byte("ok"), nil
			case <-ctx.Done():
				close(execCancelled)
				return nil, ctx.Err()
			}
		})
		leaderDone <- err
	}()
	<-started

	// Follower joins, then abandons.
	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	var fjoined bool
	var ferr error
	go func() {
		defer close(followerDone)
		_, fjoined, ferr = g.do(fctx, key, func(context.Context) ([]byte, error) {
			t.Error("follower executed instead of joining")
			return nil, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the follower join
	fcancel()
	select {
	case <-followerDone:
	case <-time.After(time.Second):
		t.Fatal("cancelled follower did not return")
	}
	if !fjoined {
		t.Fatal("follower did not join the in-flight call")
	}
	if !errors.Is(ferr, context.Canceled) {
		t.Fatalf("follower error = %v, want context.Canceled", ferr)
	}

	// The leader still has a waiter: its execution must not be cancelled.
	select {
	case <-execCancelled:
		t.Fatal("follower cancellation cancelled the leader's execution")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower cancel: %v", err)
	}
}

func TestCollapseLastWaiterGoneCancelsExecution(t *testing.T) {
	var g group
	key := Key{Spec: bfs(2)}
	started := make(chan struct{})
	execCancelled := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx, key, func(execCtx context.Context) ([]byte, error) {
			close(started)
			<-execCtx.Done()
			close(execCancelled)
			return nil, execCtx.Err()
		})
		done <- err
	}()
	<-started
	cancel() // the only waiter leaves
	select {
	case <-execCancelled:
	case <-time.After(time.Second):
		t.Fatal("execution not cancelled after its last waiter left")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
}

func TestCollapseSharedErrorReachesAllWaiters(t *testing.T) {
	var g group
	key := Key{Spec: bfs(3)}
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := func(context.Context) ([]byte, error) {
				close(started)
				<-release
				return nil, boom
			}
			if i > 0 {
				<-started
				exec = func(context.Context) ([]byte, error) {
					t.Errorf("request %d executed", i)
					return nil, nil
				}
			}
			_, _, errs[i] = g.do(context.Background(), key, exec)
		}()
	}
	go func() {
		<-started
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("request %d error = %v, want boom", i, err)
		}
	}
}

func TestCollapseCallUnregisteredAfterCompletion(t *testing.T) {
	var g group
	var execs atomic.Int64
	key := Key{Spec: bfs(4)}
	exec := func(context.Context) ([]byte, error) {
		execs.Add(1)
		return nil, nil
	}
	// Sequential identical requests must each execute: collapsing applies to
	// concurrent requests only, completed calls must not linger in the map.
	for i := 0; i < 3; i++ {
		if _, joined, err := g.do(context.Background(), key, exec); err != nil || joined {
			t.Fatalf("request %d: joined=%v err=%v", i, joined, err)
		}
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("%d executions, want 3", got)
	}
}
