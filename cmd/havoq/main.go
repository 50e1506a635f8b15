// Command havoq is the command-line front end to the library: generate
// synthetic scale-free graphs, inspect their degree structure, convert edge
// lists between text and binary, and run the distributed asynchronous
// algorithms (BFS, SSSP, connected components, k-core, triangle counting)
// over a simulated distributed machine — optionally with edge storage on
// simulated node-local NVRAM behind a per-rank page cache (-nvram), where a
// visit whose adjacency page is absent parks until the page arrives while
// the rank keeps visiting.
//
// Usage:
//
//	havoq generate -model rmat -scale 16 -seed 1 -out graph.hvqg
//	havoq stats    -in graph.hvqg
//	havoq bfs      -in graph.hvqg -p 8 -ghosts 256 -topo 2d [-nvram]
//	havoq sssp     -in graph.hvqg -p 8 -source 3 -weight-seed 1
//	havoq cc       -in graph.hvqg -p 8
//	havoq kcore    -in graph.hvqg -p 8 -k 4,16,64 [-1d-partition]
//	havoq tc       -in graph.hvqg -p 8
//	havoq convert  -in edges.txt -out graph.hvqg
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/extmem"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/graphio"
	"havoqgt/internal/harness"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// commands maps subcommand names to their implementations. Each takes its
// own argument slice and returns nil, a usageError (bad flags; exit 2), or a
// runtime error (exit 1).
var commands = map[string]func([]string) error{
	"generate": cmdGenerate,
	"stats":    cmdStats,
	"bfs":      cmdBFS,
	"kcore":    cmdKCore,
	"tc":       cmdTriangles,
	"sssp":     cmdSSSP,
	"cc":       cmdCC,
	"convert":  cmdConvert,
}

// run dispatches one invocation and returns the process exit code: 0 on
// success, 1 on a runtime failure, 2 on a usage error (unknown subcommand or
// bad flags, which also print usage).
func run(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "havoq: no command given")
		usage(stderr)
		return 2
	}
	name, rest := args[0], args[1:]
	switch name {
	case "help", "-h", "--help":
		usage(stderr)
		return 0
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "havoq: unknown command %q\n", name)
		usage(stderr)
		return 2
	}
	err := cmd(rest)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	default:
		fmt.Fprintf(stderr, "havoq: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

// usageError marks a flag-parsing failure so run can exit 2 instead of 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// parseArgs parses a subcommand's flags, wrapping parse failures as usage
// errors and passing -h/--help through untouched.
func parseArgs(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError{err}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `havoq — distributed scale-free graph toolkit

commands:
  generate   generate a synthetic graph (rmat | pa | sw) into a file
  stats      print degree statistics and hub census of a graph file
  bfs        run distributed asynchronous BFS
  kcore      run distributed k-core decomposition
  tc         run distributed triangle counting
  sssp       run distributed single-source shortest path
  cc         run distributed connected components
  convert    convert between text (.txt/.tsv) and binary (.hvqg) edge lists

run 'havoq <command> -h' for flags.
`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	model := fs.String("model", "rmat", "graph model: rmat | pa | sw")
	scale := fs.Uint("scale", 14, "log2 of the vertex count")
	edgefactor := fs.Uint64("edgefactor", 16, "edges per vertex (rmat)")
	m := fs.Uint64("m", 8, "edges per new vertex (pa)")
	k := fs.Uint64("k", 16, "ring degree (sw)")
	rewire := fs.Float64("rewire", 0, "rewire probability (pa, sw)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("out", "graph.hvqg", "output file")
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	n := uint64(1) << *scale
	var edges []graph.Edge
	switch *model {
	case "rmat":
		g := generators.NewGraph500(*scale, *seed)
		g.EdgeFactor = *edgefactor
		edges = g.Generate()
	case "pa":
		edges = generators.NewPA(n, *m, *rewire, *seed).Generate()
	case "sw":
		edges = generators.NewSmallWorld(n, *k, *rewire, *seed).Generate()
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err := graphio.WriteFile(*out, n, edges); err != nil {
		return err
	}
	fmt.Printf("wrote %s: model=%s vertices=%d directed-edges=%d\n", *out, *model, n, len(edges))
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "graph.hvqg", "input graph file")
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	h, edges, err := graphio.ReadFile(*in)
	if err != nil {
		return err
	}
	und := graph.Undirect(edges)
	deg := graph.OutDegrees(und, h.NumVertices)
	c := graph.Census(deg)
	fmt.Printf("vertices:            %d\n", c.NumVertices)
	fmt.Printf("undirected edges:    %d\n", c.NumEdges/2)
	fmt.Printf("max degree:          %d\n", c.MaxDegree)
	fmt.Printf("edges on deg>=1k:    %d\n", c.EdgesDeg1K)
	fmt.Printf("edges on deg>=10k:   %d\n", c.EdgesDeg10K)
	return nil
}

// runOpts are the shared distributed-run flags.
type runOpts struct {
	in      string
	p       int
	topo    string
	oneD    bool
	nvram   bool
	cacheMB int
}

func addRunFlags(fs *flag.FlagSet) *runOpts {
	o := &runOpts{}
	fs.StringVar(&o.in, "in", "graph.hvqg", "input graph file")
	fs.IntVar(&o.p, "p", 8, "number of simulated ranks")
	fs.StringVar(&o.topo, "topo", "2d", "mailbox routing topology: 1d | 2d | 3d")
	fs.BoolVar(&o.oneD, "1d-partition", false, "use the 1D baseline partitioning instead of edge list partitioning; kcore and tc simplify the graph (self loops and duplicate edges removed) under either")
	fs.BoolVar(&o.nvram, "nvram", false, "store edges on simulated node-local NVRAM")
	fs.IntVar(&o.cacheMB, "cache-mb", 4, "per-rank page cache budget in MiB (with -nvram)")
	return o
}

// loaded is an input graph partitioned over a fresh machine, ready to be
// queried.
type loaded struct {
	o      *runOpts
	m      *rt.Machine
	parts  []*partition.Part
	stores ooc.Stores // nil without -nvram
}

// load reads every rank's chunk and builds the partitions in one collective
// phase, then (-nvram) moves each rank's targets onto NVRAM behind a cache
// of -cache-mb. Callers must close the result.
func (o *runOpts) load(simplify bool) (*loaded, error) {
	h, err := graphio.ReadHeader(o.in)
	if err != nil {
		return nil, err
	}
	if _, err := mailbox.ByName(o.topo, o.p); err != nil {
		return nil, err
	}
	layout := partition.EdgeList
	if o.oneD {
		layout = partition.OneD
	}
	g := &loaded{o: o, m: rt.NewMachine(o.p)}
	g.parts, err = partition.Build(g.m, h.NumVertices, func(rank, size int) ([]graph.Edge, error) {
		chunk, err := graphio.ReadChunk(o.in, rank, size)
		return graph.Undirect(chunk), err
	}, layout, simplify)
	if err != nil || !o.nvram {
		return g, err
	}
	g.stores, err = ooc.ExternalizeAll(g.parts, g.m.Obs(), func(part *partition.Part) ooc.Config {
		// The budget as a share of this rank's targets, in (0, 1]; a rank
		// without targets divides by zero and caches them all.
		targetBytes := float64(part.CSR.Targets().Len() * extmem.VertexBytes)
		return ooc.Config{ResidentFraction: min(1, float64(max(o.cacheMB<<20, 1))/targetBytes)}
	})
	return g, err
}

func (g *loaded) close() { g.stores.Close() }

// ghostsFlag declares -ghosts for the traversals that filter at the sender
// (bfs, sssp, cc); core.BuildGhostTables gives the value its meaning, the
// same as the library's Options.GhostsPerPartition. kcore reads no ghost
// table.
func ghostsFlag(fs *flag.FlagSet) *int {
	return fs.Int("ghosts", 0, "ghost vertices per partition, the table the sender-side filter works over: 0 takes every remote vertex the rank has two or more edges to, N the N most repeated (a prefix of the numbering the partition build gives them), negative disables")
}

// query times one traversal on a transient engine, with the sender-side
// filter over ghost tables built for the -ghosts setting.
func (g *loaded) query(ghosts int, spec engine.Spec) (*engine.Result, time.Duration, error) {
	cfg := engine.Config{Machine: g.m, Parts: g.parts, Topology: g.o.topo,
		Ghosts: core.BuildGhostTables(g.parts, ghosts), Pagers: engine.RowPagers(g.stores.Pagers())}
	start := time.Now()
	res, _, err := engine.RunOnce(cfg, engine.Options{}, spec)
	return res, time.Since(start), err
}

func cmdBFS(args []string) error {
	fs := flag.NewFlagSet("bfs", flag.ContinueOnError)
	o := addRunFlags(fs)
	source := fs.Uint64("source", 0, "BFS source vertex")
	ghosts := ghostsFlag(fs)
	validate := fs.Bool("validate", false, "run Graph500-style validation after the traversal")
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	g, err := o.load(false)
	if err != nil {
		return err
	}
	defer g.close()
	if n := g.parts[0].NumVertices; *source >= n {
		return fmt.Errorf("source %d out of range (n=%d)", *source, n)
	}
	res, elapsed, err := g.query(*ghosts, engine.Spec{Algo: engine.AlgoBFS, Source: graph.Vertex(*source)})
	if err != nil {
		return err
	}
	if *validate {
		if err := harness.ValidateBFS(g.parts, res.Levels, res.Parents, graph.Vertex(*source)); err != nil {
			return fmt.Errorf("validation failed: %w", err)
		}
	}
	reached, depth := bfs.Summary(res.Levels)
	traversed := harness.TraversedEdges(g.parts, res.Levels)
	fmt.Printf("bfs: source=%d ranks=%d topo=%s\n", *source, o.p, o.topo)
	fmt.Printf("  time:             %v\n", elapsed.Round(time.Microsecond))
	fmt.Printf("  reached vertices: %d\n", reached)
	fmt.Printf("  traversed edges:  %d\n", traversed)
	fmt.Printf("  bfs depth:        %d\n", depth)
	fmt.Printf("  TEPS:             %.3g\n", float64(traversed)/elapsed.Seconds())
	if st := g.stores.Stats().Cache; st.Hits+st.Misses > 0 {
		fmt.Printf("  cache hit rate:   %.1f%%\n", 100*st.HitRate())
	}
	if *validate {
		fmt.Println("  validation:       passed")
	}
	return nil
}

func cmdSSSP(args []string) error {
	fs := flag.NewFlagSet("sssp", flag.ContinueOnError)
	o := addRunFlags(fs)
	source := fs.Uint64("source", 0, "SSSP source vertex")
	ghosts := ghostsFlag(fs)
	weightSeed := fs.Uint64("weight-seed", 1, "seed for the synthesized edge weights")
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	g, err := o.load(false)
	if err != nil {
		return err
	}
	defer g.close()
	res, elapsed, err := g.query(*ghosts, engine.Spec{Algo: engine.AlgoSSSP, Source: graph.Vertex(*source), WeightSeed: *weightSeed})
	if err != nil {
		return err
	}
	var reached, maxDist uint64
	for _, d := range res.Dist {
		if d != sssp.Unreached {
			reached++
			maxDist = max(maxDist, d)
		}
	}
	fmt.Printf("sssp: source=%d ranks=%d topo=%s\n", *source, o.p, o.topo)
	fmt.Printf("  time:             %v\n", elapsed.Round(time.Microsecond))
	fmt.Printf("  reached vertices: %d\n", reached)
	fmt.Printf("  max distance:     %d\n", maxDist)
	return nil
}

func cmdCC(args []string) error {
	fs := flag.NewFlagSet("cc", flag.ContinueOnError)
	o := addRunFlags(fs)
	ghosts := ghostsFlag(fs)
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	g, err := o.load(false)
	if err != nil {
		return err
	}
	defer g.close()
	res, elapsed, err := g.query(*ghosts, engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		return err
	}
	fmt.Printf("cc: ranks=%d topo=%s\n", o.p, o.topo)
	fmt.Printf("  components: %d\n", res.Components)
	fmt.Printf("  time:       %v\n", elapsed.Round(time.Microsecond))
	return nil
}

func cmdKCore(args []string) error {
	fs := flag.NewFlagSet("kcore", flag.ContinueOnError)
	o := addRunFlags(fs)
	ks := fs.String("k", "4,16,64", "comma-separated list of k values")
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	var kvals []uint32
	for _, s := range strings.Split(*ks, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
		if err != nil || v < 1 {
			return fmt.Errorf("bad k value %q", s)
		}
		kvals = append(kvals, uint32(v))
	}
	g, err := o.load(true)
	if err != nil {
		return err
	}
	defer g.close()
	fmt.Printf("kcore: ranks=%d topo=%s\n", o.p, o.topo)
	for _, k := range kvals {
		res, elapsed, err := g.query(0, engine.Spec{Algo: engine.AlgoKCore, K: k})
		if err != nil {
			return err
		}
		fmt.Printf("  k=%-5d core-size=%-10d time=%v\n", k, res.CoreSize, elapsed.Round(time.Microsecond))
	}
	return nil
}

func cmdTriangles(args []string) error {
	fs := flag.NewFlagSet("tc", flag.ContinueOnError)
	o := addRunFlags(fs)
	if err := parseArgs(fs, args); err != nil {
		return err
	}

	g, err := o.load(true)
	if err != nil {
		return err
	}
	defer g.close()
	res, elapsed, err := g.query(0, engine.Spec{Algo: engine.AlgoTriangles})
	if err != nil {
		return err
	}
	fmt.Printf("tc: ranks=%d topo=%s\n", o.p, o.topo)
	fmt.Printf("  triangles: %d\n", res.Triangles)
	fmt.Printf("  time:      %v\n", elapsed.Round(time.Microsecond))
	return nil
}

// cmdConvert translates edge lists between the text and binary formats,
// choosing directions from the file extensions.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list (.txt/.tsv/.csv or .hvqg)")
	out := fs.String("out", "", "output edge list (.txt/.tsv/.csv or .hvqg)")
	n := fs.Uint64("n", 0, "vertex count override (default: max id + 1 for text input)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert needs -in and -out")
	}

	isText := func(path string) bool {
		for _, ext := range []string{".txt", ".tsv", ".csv", ".el"} {
			if strings.HasSuffix(path, ext) {
				return true
			}
		}
		return false
	}

	var edges []graph.Edge
	var numVertices uint64
	if isText(*in) {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		edges, numVertices, err = graphio.ReadText(f)
		if err != nil {
			return err
		}
	} else {
		h, e, err := graphio.ReadFile(*in)
		if err != nil {
			return err
		}
		edges, numVertices = e, h.NumVertices
	}
	if *n > 0 {
		numVertices = *n
	}

	if isText(*out) {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := graphio.WriteText(f, edges); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else {
		if err := graphio.WriteFile(*out, numVertices, edges); err != nil {
			return err
		}
	}
	fmt.Printf("converted %s -> %s: %d vertices, %d edges\n", *in, *out, numVertices, len(edges))
	return nil
}
