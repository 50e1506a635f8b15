package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"havoqgt/internal/obs"
	"havoqgt/internal/ooc"
)

// TestRunBFSRecordsPhaseProfiles verifies that every timed BFS source drops a
// communication profile sourced from the machine's obs.Registry: nonzero
// transport and mailbox counters, the right topology label, and phase spans.
// Out of core, every profile also carries the pager's and the parked
// visits' counters, and exports the device-retry plane's.
func TestRunBFSRecordsPhaseProfiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		ooc  *ooc.Config
	}{{"dram", nil}, {"out-of-core", outOfCore()}} {
		t.Run(tc.name, func(t *testing.T) {
			before := len(Profiles())
			sources := 2
			if _, err := RunBFS(BFSOpts{
				CommonOpts: CommonOpts{P: 3, Topology: "2d", OOC: tc.ooc, Seed: 31},
				Graph:      RMATSpec(8, 31),
				Sources:    sources,
			}); err != nil {
				t.Fatal(err)
			}
			mine := profilesSince(before)
			if len(mine) != sources {
				t.Fatalf("recorded %d bfs profiles, want %d (one per source)", len(mine), sources)
			}
			nonzero := []string{obs.RTMsgs, obs.RTBytes, obs.MBRecordsSent, obs.MBHops, obs.TermWaves}
			if tc.ooc != nil {
				nonzero = append(nonzero, obs.CoreParked, obs.CoreUnparked, obs.OOCDemandFetches)
			}
			for _, p := range mine {
				if p.Topology != "2d" || p.P != 3 {
					t.Fatalf("profile header wrong: topology=%q p=%d", p.Topology, p.P)
				}
				if p.WallNS <= 0 {
					t.Fatalf("profile %s has no wall time", p.Phase)
				}
				for _, name := range nonzero {
					if p.Metrics.Counter(name) == 0 {
						t.Fatalf("profile %s: counter %s is zero", p.Phase, name)
					}
				}
				if _, ok := p.Metrics.Counters[obs.PCRetries]; ok != (tc.ooc != nil) {
					t.Fatalf("profile %s: %s exported = %v", p.Phase, obs.PCRetries, ok)
				}
				if ranks := p.Metrics.PerRank[obs.RTMsgs]; len(ranks) != 3 {
					t.Fatalf("profile %s: per-rank %s has %d slots, want 3", p.Phase, obs.RTMsgs, len(ranks))
				}
				var sawSpan bool
				for _, ev := range p.Metrics.Spans {
					if ev.Name == "bfs.run" {
						sawSpan = true
					}
				}
				if !sawSpan {
					t.Fatalf("profile %s: no bfs.run span captured", p.Phase)
				}
			}
		})
	}
}

// TestWriteProfiles checks both profile exporters round-trip the recorded log.
func TestWriteProfiles(t *testing.T) {
	ResetProfiles()
	defer ResetProfiles()
	RecordProfile(PhaseProfile{
		Graph: "g", Algo: "bfs", Phase: "bfs.src0", Topology: "3d", P: 8,
		WallNS:  123,
		Metrics: obs.Snapshot{Counters: map[string]uint64{obs.RTMsgs: 7, obs.MBHops: 9}},
	})

	var jbuf bytes.Buffer
	if err := WriteProfilesJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var back []PhaseProfile
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Topology != "3d" || back[0].Metrics.Counter(obs.MBHops) != 9 {
		t.Fatalf("JSON round-trip mangled the profile: %+v", back)
	}

	var cbuf bytes.Buffer
	if err := WriteProfilesCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	out := cbuf.String()
	for _, want := range []string{
		"graph,algo,phase,topology,p,wall_ns,metric,value",
		"g,bfs,bfs.src0,3d,8,123," + obs.RTMsgs + ",7",
		"g,bfs,bfs.src0,3d,8,123," + obs.MBHops + ",9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}
