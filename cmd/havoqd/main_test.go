package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins havoqd's flags by name, so adding or removing a knob
// is a reviewed line in this list rather than a recount.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "cache-bytes", "cluster-addr", "cluster-timeout", "coordinator",
		"deadline", "heartbeat", "in", "join", "join-retry", "liveness",
		"max-in-flight", "max-queue", "mem-budget", "mem-dir", "mem-latency",
		"mem-page", "mem-queue-depth", "mesh-addr", "query-retries", "quota-tick",
		"ranks", "reliable", "scale", "seed", "sim-latency", "simplify", "slot",
		"tenant-burst", "tenant-rate", "topo", "workers",
	}
	var got []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("havoqd flags changed (%d, want %d):\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestRunRejectsModeConflicts: every flag, set on the command line, is read
// by its mode or refused, naming the flag and the mode, before any graph is
// built — instead of falling through to a server that listens forever with
// part of the request dropped. So are -join with -coordinator, a negative
// -deadline, and -scale or -seed beside -in, which serves its file; and the graph flags havoqd does not have (-edgefactor and
// -model, which it once parsed and ignored) fail to parse.
func TestRunRejectsModeConflicts(t *testing.T) {
	const s, c, w = "single", "coordinator", "join"
	modes := map[string][]string{s: nil, c: {"-coordinator"}, w: {"-join", "127.0.0.1:1"}}
	for _, tc := range []struct {
		flag, value string
		readBy      string // the modes that read it
	}{
		{"addr", "127.0.0.1:0", s + c}, {"cache-bytes", "1", s + c}, {"cluster-addr", "127.0.0.1:0", c},
		{"cluster-timeout", "1s", c}, {"coordinator", "false", s + c + w}, {"deadline", "1s", s + c},
		{"heartbeat", "1s", c}, {"in", "g.hvqg", s}, {"join", "", s + c + w}, {"join-retry", "1s", w},
		{"liveness", "1s", c}, {"max-in-flight", "2", s + c + w}, {"max-queue", "2", s},
		{"mem-budget", "0.5", s}, {"mem-dir", "d", s}, {"mem-latency", "1us", s}, {"mem-page", "512", s},
		{"mem-queue-depth", "2", s}, {"mesh-addr", "127.0.0.1:0", w}, {"query-retries", "1", s + c},
		{"quota-tick", "1s", s + c}, {"ranks", "2", s + c + w}, {"reliable", "true", s + c + w},
		{"scale", "6", s + c + w}, {"seed", "2", s + c + w}, {"sim-latency", "1us", s},
		{"simplify", "false", s + c + w}, {"slot", "0", w}, {"tenant-burst", "1", s + c},
		{"tenant-rate", "1", s + c}, {"topo", "1d", s + c + w}, {"workers", "2", c + w},
	} {
		for _, m := range []string{s, c, w} {
			var o options
			fs := newFlagSet(&o)
			if err := fs.Parse(append(modes[m], "-"+tc.flag+"="+tc.value)); err != nil {
				t.Fatal(err)
			}
			err := checkModes(fs, &o)
			switch read := strings.Contains(tc.readBy, m); {
			case read && err != nil:
				t.Errorf("-%s in %s mode: %v", tc.flag, m, err)
			case !read && (err == nil || !strings.Contains(err.Error(), "-"+tc.flag) || !strings.Contains(err.Error(), o.mode().String())):
				t.Errorf("-%s in %s mode: error %v, want a refusal naming the flag and %q", tc.flag, m, err, o.mode())
			}
		}
	}
	for _, tc := range []struct {
		args []string
		flag string // the flag the refusal names
	}{
		{[]string{"-join", "127.0.0.1:1", "-coordinator"}, "-join"}, {[]string{"-deadline", "-1ms"}, "-deadline"},
		{[]string{"-in", "g.hvqg", "-scale", "20"}, "-scale"}, {[]string{"-in", "g.hvqg", "-seed", "2"}, "-seed"},
	} {
		var o options
		fs := newFlagSet(&o)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := checkModes(fs, &o); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("havoqd %s: error %v, want a refusal naming %s", strings.Join(tc.args, " "), err, tc.flag)
		}
	}
	for _, args := range [][]string{{"-edgefactor", "4"}, {"-model", "rmat"}} {
		if newFlagSet(new(options)).Parse(args) == nil {
			t.Errorf("havoqd %s: parsed", strings.Join(args, " "))
		}
	}
}

// TestMemBanner: the out-of-core banner names the device the -mem-* flags
// select, not a flag's zero value.
func TestMemBanner(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-mem-budget", "0.125"}, "out-of-core: resident fraction 0.125 (simulated device, latency default)"},
		{[]string{"-mem-budget", "0.5", "-mem-latency", "90us"}, "out-of-core: resident fraction 0.5 (simulated device, latency 90µs)"},
		{[]string{"-mem-budget", "0.25", "-mem-dir", "/tmp/adj", "-mem-latency", "1s"}, "out-of-core: resident fraction 0.25 (files under /tmp/adj)"},
	} {
		var o options
		if err := newFlagSet(&o).Parse(tc.flags); err != nil {
			t.Fatal(err)
		}
		if got := memBanner(o.mem); got != tc.want {
			t.Errorf("memBanner = %q, want %q", got, tc.want)
		}
	}
}
