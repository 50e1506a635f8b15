// Command bench is the one benchmark of the whole stack: four workloads over
// one shared RMAT graph, seven end-to-end metrics (six with a relative bound,
// and the error rate, failed ÷ attempted, which must stay 0), and a per-layer
// breakdown measured from outside the program. See README.md in this
// directory.
//
//	bash bench/run.sh                              all workloads, untraced
//	bash bench/run.sh -trace 1                     all workloads, traced, with drills
//	bash bench/run.sh -workload g500_bfs -seed 7   one workload; last line is the result
//	bash bench/run.sh -compare a.jsonl b.jsonl     judge set b against set a
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"havoqgt/internal/obs"
)

// result is the last line a single-workload run prints, with exactly these
// keys. error_rate is Failed ÷ Attempted.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header says what produced a record; -compare refuses two sets whose headers
// differ in anything but the commit. Attempted (in result) is the sample
// count behind every percentile of the record.
type header struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Scale      uint    `json:"scale"`
	Ranks      int     `json:"ranks"`
	Topology   string  `json:"topology"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

// runRecord is one line of a result set and of history.jsonl. Workload is a
// workload's name, or drillsRecord for a traced set's one run of the drills.
type runRecord struct {
	header
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	result
}

// runConfig is one single-workload run.
type runConfig struct {
	workload  workload
	shape     graphShape
	seed      uint64
	seconds   float64
	trace     bool
	drills    bool   // a traced run also runs the drills and reports drillMetrics
	tracePath string // where a traced run writes its spans; "" = nowhere
}

const drillsRecord = "drills"

func (c runConfig) header() header {
	return header{
		Commit: commit(), Seed: c.seed, Scale: c.shape.scale, Ranks: c.shape.ranks, Topology: c.shape.topology,
		Seconds: c.seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// commit names the source being measured; a checkout without git says so.
var commit = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
})

// runWorkload is a whole single-workload run: set-ups, warm-up round,
// measured phase, peak RSS, and only then the reference and verification.
// Progress and failures go to log; the caller prints the result.
func runWorkload(cfg runConfig, log io.Writer) (result, error) {
	w := cfg.workload
	e, setupTimes, err := timedSetUps(w, cfg.shape)
	if err != nil {
		return result{}, err
	}
	list, err := w.list(cfg.seed, e.g)
	if err != nil {
		return result{}, err
	}

	var tr *tracer
	var reg *obs.Registry
	if cfg.trace {
		if reg, err = registryOf(e); err != nil {
			return result{}, err
		}
		tr = &tracer{}
		if e.eng != nil {
			tr.sampler = startGaugeSampler(reg)
		}
	}

	runRounds(e, w, list, nil, oneRound) // warm-up: caches fill, pools and heaps reach size

	var from, to boundary
	if cfg.trace {
		if from, err = takeBoundary(e.g, reg); err != nil {
			return result{}, err
		}
	}
	ph := runRounds(e, w, list, tr, untilSeconds(cfg.seconds))
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var inFlight, waiting float64
	if cfg.trace {
		if to, err = takeBoundary(e.g, reg); err != nil {
			return result{}, err
		}
		if tr.sampler != nil {
			inFlight, waiting = tr.sampler.stop()
		}
	}
	// The graph is fresh, so these totals are this run's own.
	mem, trav, edges := e.g.MemoryStats(), e.g.TraversalCounters(), e.g.NumEdges()
	if err := e.tearDown(); err != nil {
		return result{}, err
	}

	ref := newReference(cfg.shape)
	if edges != 2*ref.edges {
		return result{}, fmt.Errorf("facade stores %d directed edges, reference %d: not the same graph", edges, 2*ref.edges)
	}
	v := ref.check(ph.samples)
	if w.memory == nil {
		if err := residentInvariant(mem, trav); err != nil {
			v.fail("%v", err)
		}
	}
	for _, reason := range v.reasons {
		fmt.Fprintf(log, "bench: %s: FAILED: %s\n", w.name, reason)
	}
	attempted := len(ph.samples)
	failed := min(v.failed, attempted)
	good := float64(attempted - failed)
	fmt.Fprintf(log, "bench: %s: %d queries (%d rounds of %d, at most %d outstanding) in %.2f s; %d samples behind each percentile; %d failed\n",
		w.name, attempted, len(ph.roundStart), w.round, max(ph.maxOutstanding, 1), ph.wall.Seconds(), attempted-failed, failed)

	m := metricSet{}
	defs := endToEnd
	if !cfg.trace {
		lat := latenciesMS(ph.samples, nil)
		m["setup_s"] = median(setupTimes)
		m["qps"] = good / ph.wall.Seconds()
		m["teps"] = float64(v.edges) / ph.wall.Seconds()
		m["latency_p50_ms"] = percentile(lat, 0.50)
		m["latency_p95_ms"] = percentile(lat, 0.95)
		m["peak_rss_mb"] = rss
	} else {
		defs = perLayer
		m = layerMetrics(ph, v, from, to, inFlight, waiting)
		if cfg.tracePath != "" {
			if err := tr.write(cfg.tracePath); err != nil {
				return result{}, fmt.Errorf("write trace: %w", err)
			}
		}
		if cfg.drills {
			drills, err := runDrills(e.g, cfg.shape, cfg.seed)
			if err != nil {
				return result{}, err
			}
			for name, val := range drills {
				m[name] = val
			}
			defs = slices.Concat(perLayer, drillMetrics)
		}
	}
	rendered, missing := m.render(defs)
	if len(missing) > 0 {
		return result{}, fmt.Errorf("metrics declared but not measured: %v", missing)
	}
	return result{Correct: v.failed == 0, Attempted: attempted, Failed: failed, Metrics: rendered}, nil
}

// benchDir finds the benchmark's own directory from the working directory:
// the checkout root (bench/ below it) or bench/ itself.
func benchDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench"
	}
	return "."
}

// options are the command's flags.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	drills     bool
	repeat     int
	out        string
	appendHist bool
	compare    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line (default: all, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 42, "seed of every query list: sources, weight seeds, order of the analytics round (the graph is the same for every seed)")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of the measured phase; it ends with the round in progress")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the drills")
	flag.BoolVar(&o.drills, "drills", true, "one traced workload: also run the drills (the all-workloads run runs them once itself, not in every child)")
	flag.IntVar(&o.repeat, "repeat", 1, "all-workloads mode: runs per workload, all of the same seed, so their spread is the box's")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: result set to write (default <bench>/out/results.jsonl)")
	flag.BoolVar(&o.appendHist, "append", false, "all-workloads mode: also append every record to <bench>/history.jsonl")
	flag.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare a.jsonl b.jsonl; exits 1 if b is worse")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result sets")
		}
		return compareSets(os.Stdout, args[0], args[1])
	}
	outDir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if o.workload != "" {
		return runOne(o, outDir)
	}
	return runAll(o, outDir)
}

// runOne runs one workload in this process; its last line is the result.
func runOne(o options, outDir string) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	cfg := runConfig{workload: w, shape: defaultShape, seed: o.seed, seconds: o.seconds, trace: o.trace == 1, drills: o.drills,
		tracePath: filepath.Join(outDir, w.name+".trace.jsonl")}
	fmt.Printf("bench: %s trace=%v %+v\n", w.name, cfg.trace, cfg.header())
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d queries failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload, one at a time, each in a fresh child process
// so that peak RSS and heap state belong to one workload alone, then (traced)
// the drills once, and prints every metric by name and unit. It fails if any
// child did.
func runAll(o options, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, "results.jsonl")
	}
	trace := o.trace == 1
	var records []runRecord
	var firstErr error
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloads {
			cfg := runConfig{workload: w, shape: defaultShape, seed: o.seed, seconds: o.seconds, trace: trace}
			start := time.Now()
			res, err := runChild(self, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, cfg.seed, err)
				if firstErr == nil {
					firstErr = err
				}
				if res.Metrics == nil {
					continue
				}
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d done in %.1f s\n", w.name, cfg.seed, time.Since(start).Seconds())
			records = append(records, runRecord{header: cfg.header(), Workload: w.name, Trace: trace, result: res})
		}
		if trace {
			cfg := runConfig{shape: defaultShape, seed: o.seed, seconds: o.seconds, trace: true, drills: true}
			res, err := runDrillsAlone(cfg)
			if err != nil {
				return err
			}
			records = append(records, runRecord{header: cfg.header(), Workload: drillsRecord, Trace: true, result: res})
		}
	}
	if err := writeRecords(out, records, false); err != nil {
		return err
	}
	if o.appendHist {
		if err := writeRecords(filepath.Join(benchDir(), "history.jsonl"), records, true); err != nil {
			return err
		}
	}
	printTable(os.Stdout, records, trace)
	fmt.Printf("bench: wrote %d records to %s\n", len(records), out)
	return firstErr
}

// runChild runs one workload in a child process and parses its last line.
// A child that printed a result but exited non-zero (a failed query) returns
// both the result and the error.
func runChild(self string, cfg runConfig) (result, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", cfg.workload.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-drills=false")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("child printed no result: %w", err)
	}
	return res, runErr
}

// writeRecords writes (or appends) records as JSON lines.
func writeRecords(path string, records []runRecord, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printTable prints every metric by name and unit, one column per workload
// (the median over its runs), then the error rate and the sample count; for a
// traced set, the drills follow in a column of their own.
func printTable(w io.Writer, records []runRecord, trace bool) {
	if len(records) == 0 {
		return
	}
	h := records[0].header
	fmt.Fprintf(w, "\ncommit %s  seed %d  scale %d  ranks %d  topology %s  seconds %g  nproc %d  GOMAXPROCS %d  %s  trace=%v  records %d\n",
		h.Commit, h.Seed, h.Scale, h.Ranks, h.Topology, h.Seconds, h.NProc, h.GOMAXPROCS, h.GoVersion, trace, len(records))
	var columns []string
	for _, wl := range workloads {
		columns = append(columns, wl.name)
	}
	metric := func(name string) func(runRecord) float64 {
		return func(r runRecord) float64 { return r.Metrics[name].Value }
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	printHead(w, columns)
	for _, d := range defs {
		printRow(w, records, columns, d.name, d.unit, metric(d.name))
	}
	printRow(w, records, columns, errorRate.name, errorRate.unit, func(r runRecord) float64 {
		return ratio(float64(r.Failed), float64(r.Attempted))
	})
	printRow(w, records, columns, "samples (attempted)", "count", func(r runRecord) float64 { return float64(r.Attempted) })
	if trace {
		fmt.Fprintln(w)
		printHead(w, []string{drillsRecord})
		for _, d := range drillMetrics {
			printRow(w, records, []string{drillsRecord}, d.name, d.unit, metric(d.name))
		}
	}
}

func printHead(w io.Writer, columns []string) {
	fmt.Fprintf(w, "%-36s %-9s", "metric", "unit")
	for _, c := range columns {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
}

// printRow prints, per column, the median of get over that workload's records.
func printRow(w io.Writer, records []runRecord, columns []string, name, unit string, get func(runRecord) float64) {
	fmt.Fprintf(w, "%-36s %-9s", name, unit)
	for _, c := range columns {
		var vals []float64
		for _, r := range records {
			if r.Workload == c {
				vals = append(vals, get(r))
			}
		}
		if len(vals) == 0 {
			fmt.Fprintf(w, " %14s", "-")
		} else {
			fmt.Fprintf(w, " %14.6g", median(vals))
		}
	}
	fmt.Fprintln(w)
}
