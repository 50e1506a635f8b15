package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
	"havoqgt/internal/engine"
)

// The failover tests need a worker the test can kill -9: a goroutine cannot
// be SIGKILLed, so the test binary re-execs itself as a worker process.
// TestMain intercepts the re-exec before any tests run.
func TestMain(m *testing.M) {
	if os.Getenv("HAVOQD_FAILOVER_WORKER") == "1" {
		os.Exit(failoverWorkerMain())
	}
	os.Exit(m.Run())
}

// failoverCfg is the shared contract of the kill-and-rejoin cluster: 4
// worker processes of one rank each, so slot 0 hosts rank 0, the root of
// every termination detector. The helper process rebuilds it from the same
// constants, so the checksums match without shipping the config through the
// environment.
func failoverCfg() ClusterConfig {
	return ClusterConfig{
		Workers: 4, Ranks: 4, Scale: 11, Seed: 42,
		Heartbeat: 200 * time.Millisecond,
		Liveness:  2 * time.Second,
	}
}

func failoverWorkerMain() int {
	log.SetPrefix("[worker] ")
	slot, err := strconv.Atoi(os.Getenv("HAVOQD_FAILOVER_SLOT"))
	if err != nil {
		log.Printf("bad slot: %v", err)
		return 2
	}
	err = RunWorker(WorkerOptions{
		Coordinator: os.Getenv("HAVOQD_FAILOVER_COORD"),
		Config:      failoverCfg(),
		Slot:        slot,
		JoinRetry:   30 * time.Second,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Printf("worker exit: %v", err)
		return 1
	}
	return 0
}

// spawnFailoverWorker re-execs the test binary as a worker process for the
// given slot.
func spawnFailoverWorker(t *testing.T, addr string, slot int) *check.Child {
	t.Helper()
	return check.StartChild(t, fmt.Sprintf("worker %d", slot), []string{
		"HAVOQD_FAILOVER_WORKER=1",
		"HAVOQD_FAILOVER_COORD=" + addr,
		"HAVOQD_FAILOVER_SLOT=" + strconv.Itoa(slot)}, "-test.run=^$")
}

// TestKillAndRejoin is the end-to-end self-healing check. Two kill/heal
// cycles each SIGKILL one worker process with queries in flight — slot 0,
// which hosts rank 0, then slot 1 — and the cluster must (1) resolve every
// in-flight Wait, with the right answer or a typed *WorkerLostError naming
// the victim, instead of hanging, (2) report the dead slot and shed new
// submits with *DegradedError, (3) admit a replacement process into the dead
// slot under a bumped epoch, and (4) answer BFS, SSSP and CC on the healed
// cluster hash-identically to the in-process engine.
func TestKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	check.NoLeaks(t)
	cfg := failoverCfg()
	specs := []engine.Spec{
		{Algo: engine.AlgoBFS, Source: 3},
		{Algo: engine.AlgoSSSP, Source: 3, WeightSeed: 7},
		{Algo: engine.AlgoCC},
	}

	// In-process reference on the identical deterministic graph.
	g, err := havoqgt.GenerateRMAT(cfg.Scale, cfg.Seed, havoqgt.Options{Ranks: cfg.Ranks})
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.StartEngine(havoqgt.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(specs))
	for i, spec := range specs {
		tk, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = HashResult(spec, g.NumVertices(), tk.Wait())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator("127.0.0.1:0", cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	workers := make([]*check.Child, cfg.Workers)
	for slot := range workers {
		workers[slot] = spawnFailoverWorker(t, c.Addr(), slot)
	}
	if err := c.WaitReady(120 * time.Second); err != nil {
		t.Fatal(err)
	}

	// runAll requires the whole cluster to answer every spec correctly.
	runAll := func(what string) {
		t.Helper()
		for i, spec := range specs {
			q, err := c.Submit(spec)
			if err != nil {
				t.Fatalf("%s: submit %s: %v", what, spec.Algo, err)
			}
			res, err := q.Wait()
			if err != nil {
				t.Fatalf("%s: %s: %v", what, spec.Algo, err)
			}
			if got := HashResult(spec, c.NumVertices(), res); got != want[i] {
				t.Fatalf("%s: %s hash: cluster %016x, in-process %016x", what, spec.Algo, got, want[i])
			}
		}
	}
	runAll("baseline")

	for cycle, victim := range []int{0, 1} {
		epochBefore := c.Epoch()

		// Burst, then SIGKILL the victim mid-flight. Depending on how fast
		// the queries and the failure detector race, each query either
		// completed (hash must match) or died typed — but every Wait MUST
		// resolve.
		var inflight []*Query
		var asked []int // inflight[j] runs specs[asked[j]]
		submit := func(i int) error {
			q, err := c.Submit(specs[i])
			if err == nil {
				inflight, asked = append(inflight, q), append(asked, i)
			}
			return err
		}
		for i := range specs {
			if err := submit(i); err != nil {
				t.Fatalf("cycle %d: burst submit %d: %v", cycle, i, err)
			}
		}
		if err := workers[victim].Cmd.Process.Kill(); err != nil {
			t.Fatalf("cycle %d: kill worker %d: %v", cycle, victim, err)
		}
		// Sneak more submits into the pre-detection window; once the
		// detector fires they shed typed instead.
		for i := range specs {
			if err := submit(i); err != nil {
				if !errors.Is(err, ErrClusterDegraded) {
					t.Fatalf("cycle %d: post-kill submit: got %v, want ErrClusterDegraded", cycle, err)
				}
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		for j, q := range inflight {
			select {
			case <-q.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("cycle %d: query %d hung after worker kill: in-flight Waits must resolve", cycle, j)
			}
			res, err := q.Wait()
			switch {
			case err == nil:
				if got := HashResult(specs[asked[j]], c.NumVertices(), res); got != want[asked[j]] {
					t.Errorf("cycle %d: query %d completed but hash %016x != %016x", cycle, j, got, want[asked[j]])
				}
			case errors.Is(err, ErrWorkerLost):
				var wl *WorkerLostError
				if !errors.As(err, &wl) {
					t.Fatalf("cycle %d: query %d: ErrWorkerLost without WorkerLostError carrier: %v", cycle, j, err)
				}
				if wl.Slot != victim {
					t.Errorf("cycle %d: query %d: lost slot %d, want %d", cycle, j, wl.Slot, victim)
				}
			default:
				t.Errorf("cycle %d: query %d: unexpected error %v", cycle, j, err)
			}
		}

		// The detector must report the dead slot and shed new work typed.
		deadline := time.Now().Add(cfg.Liveness + 10*time.Second)
		for {
			missing := c.Missing()
			if len(missing) == 1 && missing[0] == victim {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: Missing() = %v, want [%d]", cycle, missing, victim)
			}
			time.Sleep(10 * time.Millisecond)
		}
		var de *DegradedError
		if _, err := c.Submit(specs[0]); !errors.As(err, &de) || !errors.Is(err, ErrClusterDegraded) ||
			len(de.Missing) != 1 || de.Missing[0] != victim {
			t.Fatalf("cycle %d: degraded submit: got %v, want a DegradedError missing [%d]", cycle, err, victim)
		}

		// Heal: a fresh process re-joins the dead slot (join-retry outlasts
		// any residual eviction lag), the epoch bumps, and the cluster goes
		// whole.
		workers[victim] = spawnFailoverWorker(t, c.Addr(), victim)
		if err := c.WaitReady(120 * time.Second); err != nil {
			t.Fatalf("cycle %d: heal: %v", cycle, err)
		}
		if got := c.Epoch(); got <= epochBefore {
			t.Errorf("cycle %d: epoch after re-join = %d, want > %d", cycle, got, epochBefore)
		}

		// Retried queries on the healed cluster must be hash-identical.
		runAll(fmt.Sprintf("cycle %d post-heal", cycle))
	}

	// Clean shutdown: every live worker exits 0 on the shutdown broadcast.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for slot, w := range workers {
		if err := w.Wait(t, 30*time.Second); err != nil {
			t.Errorf("worker %d exit: %v", slot, err)
		}
	}
}

// TestHeartbeatDetectsSilentWorker: a worker whose process wedges without
// dropping its control connection (no FIN, no RST, just silence) must still
// be evicted by the heartbeat detector — connection-error detection alone
// cannot see this failure mode.
func TestHeartbeatDetectsSilentWorker(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{
		Workers: 1, Ranks: 1, Scale: 5, Seed: 1,
		Heartbeat: 50 * time.Millisecond,
		Liveness:  300 * time.Millisecond,
	}
	c, err := NewCoordinator("127.0.0.1:0", cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hand-rolled worker: join, take the layout, confirm the epoch — then go
	// silent while keeping the socket open. One decoder for the whole
	// conversation: json.Decoder buffers past the current value, so a second
	// decoder on the same conn would miss messages the first one swallowed.
	conn, err := net.DialTimeout("tcp", c.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := json.NewDecoder(conn)
	err = json.NewEncoder(conn).Encode(&msg{
		Type: "join", Version: Version, ConfigSum: cfg.Checksum(),
		Slot: 0, MeshAddr: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	var reply msg
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("join verdict: %v", err)
	}
	if reply.Type != "joined" {
		t.Fatalf("join refused: %+v", reply)
	}
	var layout msg
	for {
		if err := dec.Decode(&layout); err != nil {
			t.Fatalf("awaiting layout: %v", err)
		}
		if layout.Type == "cluster" {
			break
		}
	}
	if err := json.NewEncoder(conn).Encode(&msg{Type: "ready", Slot: 0, Epoch: layout.Epoch}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Silence. The worker sends nothing; the connection stays open. The
	// detector must evict within the liveness window (plus scheduling slack).
	deadline := time.Now().Add(10 * time.Second)
	for {
		missing := c.Missing()
		if len(missing) == 1 && missing[0] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent worker never evicted: Missing() = %v", missing)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Whole() {
		t.Error("cluster still whole after eviction")
	}
	if _, err := c.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0}); !errors.Is(err, ErrClusterDegraded) {
		t.Errorf("submit on evicted cluster: got %v, want ErrClusterDegraded", err)
	}
}
