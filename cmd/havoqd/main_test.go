package main

import (
	"flag"
	"strings"
	"testing"
	"time"
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

// TestRunRejectsModeConflicts: -join with -coordinator, a negative
// -deadline, and the graph flags havoqd does not have (-edgefactor and
// -model, which it once parsed and ignored) exit 2 before any graph is
// built, instead of falling through to a server that listens forever with
// half the request dropped.
func TestRunRejectsModeConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-join", "127.0.0.1:1", "-coordinator"},
		{"-deadline", "-1ms"},
		{"-edgefactor", "4"},
		{"-model", "rmat"},
	} {
		done := make(chan int, 1)
		go func() { done <- run(append(args, "-scale", "6", "-ranks", "2", "-addr", "127.0.0.1:0")) }()
		select {
		case code := <-done:
			if code != 2 {
				t.Errorf("havoqd %s: exit %d, want 2", strings.Join(args, " "), code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("havoqd %s: still running after 10s, want exit 2", strings.Join(args, " "))
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
