// Command experiments regenerates every figure and table of the paper's
// evaluation section (§VII) at laptop scale, printing the same rows/series
// the paper reports. See EXPERIMENTS.md for paper-vs-measured comparisons.
//
// Usage:
//
//	experiments -list
//	experiments fig1 fig2 ... table2
//	experiments all
//	experiments -maxp 16 -verts-log2 13 -sources 8 fig5
//	experiments -obs-json profiles.json -obs-csv profiles.csv ablation-topology
//
// Every timed phase (each BFS source, each k-core k, each triangle count)
// records a communication profile — msgs/bytes/hops per rank and per kind,
// mailbox aggregation, termination waves — sourced from internal/obs.
// -obs-json/-obs-csv control where the profiles land (empty disables).
// Set HAVOQ_TRACE=1 (stderr) or HAVOQ_TRACE=<file> to stream per-phase span
// events as JSON lines while experiments run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"havoqgt/internal/harness"
)

// experiment names in presentation order.
var order = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table2",
	"ablation-topology", "ablation-aggregation",
	"extensions",
}

func runners(s harness.Sizing) map[string]func() *harness.Table {
	return map[string]func() *harness.Table{
		"fig1":                 func() *harness.Table { return harness.Figure1(s) },
		"fig2":                 func() *harness.Table { return harness.Figure2(s) },
		"fig3":                 harness.Figure3,
		"fig4":                 func() *harness.Table { return harness.Figure4(s) },
		"fig5":                 func() *harness.Table { return harness.Figure5(s) },
		"fig6":                 func() *harness.Table { return harness.Figure6(s) },
		"fig7":                 func() *harness.Table { return harness.Figure7(s) },
		"fig8":                 func() *harness.Table { return harness.Figure8(s) },
		"fig9":                 func() *harness.Table { return harness.Figure9(s) },
		"fig10":                func() *harness.Table { return harness.Figure10(s) },
		"fig11":                func() *harness.Table { return harness.Figure11(s) },
		"fig12":                func() *harness.Table { return harness.Figure12(s) },
		"fig13":                func() *harness.Table { return harness.Figure13(s) },
		"table2":               func() *harness.Table { return harness.TableII(s) },
		"ablation-topology":    func() *harness.Table { return harness.AblationTopology(s) },
		"ablation-aggregation": func() *harness.Table { return harness.AblationAggregation(s) },
		"extensions":           func() *harness.Table { return harness.Extensions(s) },
	}
}

func main() {
	def := harness.DefaultSizing()
	list := flag.Bool("list", false, "list available experiments")
	maxP := flag.Int("maxp", def.MaxP, "largest simulated rank count in scaling sweeps")
	vertsLog2 := flag.Uint("verts-log2", def.VertsPerRankLog2, "log2 vertices per rank for weak scaling")
	hubScale := flag.Uint("hub-scale", def.HubScaleMax, "largest RMAT scale in the hub census (fig1)")
	sources := flag.Int("sources", def.Sources, "BFS roots per measurement")
	seed := flag.Uint64("seed", def.Seed, "experiment seed")
	obsJSON := flag.String("obs-json", "obs_profiles.json", "write per-phase obs communication profiles as JSON (empty to disable)")
	obsCSV := flag.String("obs-csv", "", "write per-phase obs communication profiles as CSV (empty to disable)")
	flag.Parse()

	s := harness.Sizing{
		Seed:             *seed,
		MaxP:             *maxP,
		VertsPerRankLog2: *vertsLog2,
		HubScaleMax:      *hubScale,
		Sources:          *sources,
	}
	run := runners(s)

	if *list {
		for _, name := range order {
			fmt.Println(name)
		}
		return
	}

	targets := flag.Args()
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: name one or more experiments, or 'all' (-list to enumerate)")
		os.Exit(2)
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = order
	}
	for _, name := range targets {
		fn, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		tab := fn()
		tab.Notes = append(tab.Notes, fmt.Sprintf("experiment wall time: %v", time.Since(start).Round(time.Millisecond)))
		tab.Fprint(os.Stdout)
	}
	writeProfiles(*obsJSON, harness.WriteProfilesJSON)
	writeProfiles(*obsCSV, harness.WriteProfilesCSV)
}

// writeProfiles dumps the per-phase obs communication profiles with the
// given encoder, skipping silently when the path is empty or no phase ran.
func writeProfiles(path string, write func(io.Writer) error) {
	if path == "" || len(harness.Profiles()) == 0 {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: obs profiles: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: obs profiles: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d per-phase obs profiles to %s\n", len(harness.Profiles()), path)
}
