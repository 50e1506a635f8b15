package main

// Cluster chaos mode: `havoqd -chaos -cluster` boots a real multi-process
// cluster on localhost and then repeatedly murders workers with SIGKILL while
// queries are in flight, proving the self-healing contract end to end:
//
//  1. every in-flight query resolves promptly with a typed *WorkerLostError
//     (or completes, if it won the race) — never a hang;
//  2. the coordinator reports the dead slot and sheds new submits with a
//     typed *DegradedError while degraded;
//  3. a respawned worker process re-joins the dead slot under a bumped epoch
//     and the cluster goes whole again;
//  4. queries retried on the healed cluster return hashes identical to the
//     in-process engine on the same graph — a kill/heal cycle is invisible
//     in the results.
//
// This is what `make cluster-chaos` runs in CI; worker output lands in
// cluster-worker-N.log (appended across respawns) for post-mortems.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"time"

	"havoqgt/internal/cluster"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
)

// respawn replaces the (dead) worker process in the given slot with a fresh
// one, reaping the corpse and appending to its slot's log file.
func (lc *localCluster) respawn(o *options, slot int) error {
	if old := lc.procs[slot]; old != nil && old.Process != nil {
		old.Process.Kill() // no-op if already dead
		old.Wait()         // reap; the exit error is expected (SIGKILL)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	logPath := fmt.Sprintf("cluster-worker-%d.log", slot)
	logFile, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(logFile, "--- respawn into slot %d ---\n", slot)
	cmd := exec.Command(self, workerArgs(o, lc.c.Addr(), slot)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("respawn worker %d: %w", slot, err)
	}
	logFile.Close()
	lc.procs[slot] = cmd
	return nil
}

// clusterChaos is the `-chaos -cluster` driver.
func clusterChaos(o *options) error {
	watchdog := armWatchdog(o, "cluster chaos")
	defer watchdog.Stop()
	if o.joinRetry <= 0 {
		o.joinRetry = time.Minute // respawned workers must out-wait the detector
	}

	n := uint64(1) << o.scale
	specs := []engine.Spec{
		{Algo: engine.AlgoBFS, Source: graph.Vertex(splitmix64(42) % n)},
		{Algo: engine.AlgoSSSP, Source: graph.Vertex(splitmix64(43) % n), WeightSeed: 7},
		{Algo: engine.AlgoCC},
	}
	fmt.Printf("havoqd: cluster chaos: %d workers x %d ranks, scale-%d rmat, %d kill/heal cycles (heartbeat %v, liveness %v)\n",
		o.workers, o.ranks/o.workers, o.scale, o.chaosKills, o.heartbeat, o.liveness)
	refs, err := refHashes(o, specs)
	if err != nil {
		return err
	}

	lc, err := startLocalCluster(o)
	if err != nil {
		return err
	}
	fail := func(format string, args ...any) error {
		lc.kill()
		return fmt.Errorf("cluster chaos: "+format, args...)
	}

	runAll := func(what string) error {
		for i, spec := range specs {
			q, err := lc.c.Submit(spec)
			if err != nil {
				return fail("%s: submit #%d: %v", what, i, err)
			}
			res, err := q.Wait()
			if err != nil {
				return fail("%s: query #%d: %v", what, i, err)
			}
			if got := cluster.HashResult(res); got != refs[i] {
				return fail("%s: query #%d hash %016x, in-process %016x", what, i, got, refs[i])
			}
		}
		return nil
	}
	if err := runAll("baseline"); err != nil {
		return err
	}
	fmt.Printf("havoqd: cluster chaos: baseline hashes identical to the in-process engine\n")

	for cycle := 0; cycle < o.chaosKills; cycle++ {
		victim := cycle % o.workers
		epochBefore := lc.c.Epoch()

		// In-flight queries at the moment of death.
		var inflight []*cluster.Query
		for _, spec := range specs {
			q, err := lc.c.Submit(spec)
			if err != nil {
				return fail("cycle %d: pre-kill submit: %v", cycle, err)
			}
			inflight = append(inflight, q)
		}
		if err := lc.procs[victim].Process.Kill(); err != nil {
			return fail("cycle %d: kill worker %d: %v", cycle, victim, err)
		}
		fmt.Printf("havoqd: cluster chaos: cycle %d: killed worker %d with %d queries in flight\n",
			cycle, victim, len(inflight))

		// Contract 1: every Wait resolves — completed-with-correct-hash or
		// typed worker-lost — within the liveness window plus slack.
		deadline := time.After(o.liveness + 30*time.Second)
		for i, q := range inflight {
			select {
			case <-q.Done():
			case <-deadline:
				return fail("cycle %d: query #%d HUNG after kill", cycle, i)
			}
			res, err := q.Wait()
			switch {
			case err == nil:
				if got := cluster.HashResult(res); got != refs[i] {
					return fail("cycle %d: pre-kill query #%d hash %016x, want %016x", cycle, i, got, refs[i])
				}
			case errors.Is(err, cluster.ErrWorkerLost):
				var wl *cluster.WorkerLostError
				if !errors.As(err, &wl) || wl.Slot != victim {
					return fail("cycle %d: query #%d wrong carrier: %v", cycle, i, err)
				}
			default:
				return fail("cycle %d: query #%d unexpected error: %v", cycle, i, err)
			}
		}

		// Contract 2: the slot is reported missing and new submits shed typed.
		evictBy := time.Now().Add(o.liveness + 30*time.Second)
		for {
			missing := lc.c.Missing()
			if len(missing) == 1 && missing[0] == victim {
				break
			}
			if time.Now().After(evictBy) {
				return fail("cycle %d: Missing() = %v, want [%d]", cycle, missing, victim)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if _, err := lc.c.Submit(specs[0]); !errors.Is(err, cluster.ErrClusterDegraded) {
			return fail("cycle %d: degraded submit: got %v, want ErrClusterDegraded", cycle, err)
		}
		fmt.Printf("havoqd: cluster chaos: cycle %d: slot %d reported dead, submits shedding typed\n", cycle, victim)

		// Contract 3: respawn, re-join, whole again under a bumped epoch.
		if err := lc.respawn(o, victim); err != nil {
			return fail("cycle %d: %v", cycle, err)
		}
		if err := lc.c.WaitReady(o.clusterTimeout); err != nil {
			return fail("cycle %d: heal: %v", cycle, err)
		}
		if after := lc.c.Epoch(); after <= epochBefore {
			return fail("cycle %d: epoch %d after heal, want > %d", cycle, after, epochBefore)
		}

		// Contract 4: the healed cluster answers hash-identically.
		if err := runAll(fmt.Sprintf("cycle %d post-heal", cycle)); err != nil {
			return err
		}
		fmt.Printf("havoqd: cluster chaos: cycle %d: healed (epoch %d -> %d), hashes identical\n",
			cycle, epochBefore, lc.c.Epoch())
	}

	if err := lc.shutdown(); err != nil {
		return fmt.Errorf("cluster chaos: %w", err)
	}
	fmt.Printf("havoqd: cluster chaos: %d kill/heal cycles survived, all %d hashes identical across %d processes\n",
		o.chaosKills, len(specs)*(o.chaosKills+1), o.workers+1)
	return nil
}
