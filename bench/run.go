package main

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"havoqgt"
)

// env is a set-up graph, ready for the first query.
type env struct {
	g   *havoqgt.Graph
	eng *havoqgt.Engine // nil when the workload attaches none
}

// setUp does everything between "process started" and "first query can be
// submitted": generate, partition, ghost tables, and for the workloads that
// ask for them the memory budget and the engine. setup_s times exactly this.
func setUp(w workload, shape graphShape) (*env, error) {
	g, err := havoqgt.GenerateRMAT(shape.scale, graphSeed, shape.options())
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	e := &env{g: g}
	if w.memory != nil {
		if err := g.SetMemoryBudget(*w.memory); err != nil {
			return nil, fmt.Errorf("set memory budget: %w", err)
		}
	}
	if w.engine != nil {
		if e.eng, err = g.StartEngine(*w.engine); err != nil {
			return nil, fmt.Errorf("start engine: %w", err)
		}
	}
	return e, nil
}

// tearDown closes the engine and restores resident storage, leaving a plain
// graph (the drills reuse it).
func (e *env) tearDown() error {
	if e.eng != nil {
		if err := e.eng.Close(); err != nil {
			return fmt.Errorf("close engine: %w", err)
		}
		e.eng = nil
	}
	return e.g.ResetMemoryBudget()
}

// timedSetUps sets up setupRepeats times, tearing each down but the last, and
// returns the last environment with every set-up's wall time. One build of
// this graph varies by a third between repeats; their median does not.
func timedSetUps(w workload, shape graphShape) (*env, []float64, error) {
	var e *env
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.tearDown(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if e, err = setUp(w, shape); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, times, nil
}

// sample is one query of a phase with the instants the generator saw, as
// offsets from the phase start.
type sample struct {
	idx       int // position in the phase's sequence
	q         query
	traced    bool          // its round ran with spans and the sampler on
	submit    time.Duration // the generator calls Submit* / the facade method
	submitted time.Duration // Submit* returned (= submit on the synchronous path)
	done      time.Duration // <-Done() fired / the facade method returned
	collected time.Duration // Wait() returned the gathered result
	hash      uint64
	err       error
}

func (s sample) latency() time.Duration { return s.collected - s.submit }

// call runs q synchronously through the facade (no engine attached).
func call(g *havoqgt.Graph, q query) (*havoqgt.QueryResult, error) {
	switch q.algo {
	case "bfs":
		r, err := g.BFS(q.source)
		return &havoqgt.QueryResult{BFS: r}, err
	case "bfs_do":
		r, err := g.BFSDirOpt(q.source)
		return &havoqgt.QueryResult{BFS: r}, err
	case "sssp":
		r, err := g.ShortestPaths(q.source, q.weightSeed)
		return &havoqgt.QueryResult{SSSP: r}, err
	case "cc":
		r, err := g.Components()
		return &havoqgt.QueryResult{Components: r}, err
	case "kcore":
		r, err := g.KCore(q.k)
		return &havoqgt.QueryResult{KCore: r}, err
	case "pagerank":
		r, err := g.PageRank(q.iters)
		return &havoqgt.QueryResult{PageRank: r}, err
	}
	return nil, fmt.Errorf("unknown algorithm %q", q.algo)
}

func (q query) spec() havoqgt.QuerySpec {
	return havoqgt.QuerySpec{Algo: q.algo, Source: q.source, WeightSeed: q.weightSeed, K: q.k, Iters: q.iters}
}

// phase is the outcome of one closed-loop walk over the list.
type phase struct {
	samples []sample
	// roundStart[r] is when round r's first query was submitted.
	roundStart []time.Duration
	wall       time.Duration // first submit to last collect
	// maxOutstanding is the most handles the generator ever held at once.
	maxOutstanding int
}

// runRounds is the closed-loop generator: one goroutine walks the list in
// order (cyclically), keeps up to w.outstanding queries outstanding, refills
// a slot as soon as any of them completes, and asks stop before each round
// whether to begin it. Results are hashed as they are collected and dropped,
// so resident memory does not grow with the list. tr may be nil.
func runRounds(e *env, w workload, list []query, tr *tracer, stop func(round int, elapsed time.Duration) bool) phase {
	var (
		ph      phase
		window  []*havoqgt.Query
		pending []sample // pending[i] belongs to window[i]
		cases   []reflect.SelectCase
		next    int
		start   = time.Now()
		more    = true
	)
	finish := func(s sample, res *havoqgt.QueryResult, err error) {
		s.err = err
		if err == nil {
			s.hash = hashResult(res)
		}
		tr.record(s)
		ph.samples = append(ph.samples, s)
	}
	for more || len(window) > 0 {
		for more && len(window) < w.outstanding {
			if next%w.round == 0 {
				if stop(next/w.round, time.Since(start)) {
					more = false
					break
				}
				tr.beginRound(next / w.round)
				ph.roundStart = append(ph.roundStart, time.Since(start))
			}
			s := sample{idx: next, q: list[next%len(list)], traced: tr.on()}
			next++
			s.submit = time.Since(start)
			if e.eng == nil {
				res, err := call(e.g, s.q)
				s.done = time.Since(start)
				s.submitted, s.collected = s.submit, s.done
				finish(s, res, err)
				continue
			}
			h, err := e.eng.SubmitQuery(s.q.spec())
			s.submitted = time.Since(start)
			if err != nil { // rejected at admission: a failed query with no latency worth the name
				s.done, s.collected = s.submitted, s.submitted
				finish(s, nil, err)
				continue
			}
			window = append(window, h)
			pending = append(pending, s)
			ph.maxOutstanding = max(ph.maxOutstanding, len(window))
		}
		if len(window) == 0 {
			continue
		}
		cases = cases[:0]
		for _, h := range window {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(h.Done())})
		}
		i, _, _ := reflect.Select(cases)
		s, h := pending[i], window[i]
		s.done = time.Since(start)
		res, err := h.Wait()
		s.collected = time.Since(start)
		window = append(window[:i], window[i+1:]...)
		pending = append(pending[:i], pending[i+1:]...)
		finish(s, res, err)
	}
	ph.wall = time.Since(start)
	return ph
}

// oneRound and untilSeconds are the two stop rules: the warm-up runs one
// round, the measured phase begins rounds until the time is up (and always
// runs at least one).
func oneRound(round int, _ time.Duration) bool { return round >= 1 }

func untilSeconds(seconds float64) func(int, time.Duration) bool {
	return func(round int, elapsed time.Duration) bool {
		return round >= 1 && elapsed.Seconds() >= seconds
	}
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// latenciesMS returns the phase's latencies in ascending order, in ms.
func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && (keep == nil || keep(s)) {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return sortedCopy(out)
}
