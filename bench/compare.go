package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a result set written by an all-workloads run.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []runRecord
	for dec := json.NewDecoder(f); dec.More(); {
		var r runRecord
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		records = append(records, r)
	}
	return records, nil
}

// values returns one metric's values over a set's runs of one workload.
func values(records []runRecord, workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range records {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the median, or
// 0 when there are too few runs to have quartiles.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, median(vals))
}

// judge gives the verdict on one end-to-end metric: how much worse b's median
// is than a's as a share of a's (negative = better), and whether that counts.
func judge(d metricDef, a, b []float64) (worseBy float64, status string) {
	ma, mb := median(a), median(b)
	worseBy = ratio(mb-ma, ma)
	if d.better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case max(spread(a), spread(b)) > d.bound:
		return worseBy, "unresolved" // the runs of one set disagree by more than the bound
	case worseBy > d.bound:
		return worseBy, "worse"
	}
	return worseBy, "ok"
}

// conditions returns the distinct headers of a set with the commit blanked:
// everything two sets must share for their difference to be the commit's.
func conditions(records []runRecord) map[header]bool {
	out := map[header]bool{}
	for _, r := range records {
		h := r.header
		h.Commit = ""
		out[h] = true
	}
	return out
}

// sameConditions refuses two sets measured on different graphs, seeds, run
// lengths, boxes or toolchains.
func sameConditions(a, b []runRecord) error {
	ca, cb := conditions(a), conditions(b)
	for h := range ca {
		if !cb[h] {
			return fmt.Errorf("not comparable: a has runs under %+v and b has none", h)
		}
	}
	for h := range cb {
		if !ca[h] {
			return fmt.Errorf("not comparable: b has runs under %+v and a has none", h)
		}
	}
	return nil
}

// errorRateOf is failed ÷ attempted over all of a set's runs of one workload.
func errorRateOf(records []runRecord, workload string) float64 {
	var failed, attempted int
	for _, r := range records {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// compareSets prints, per workload and end-to-end metric, both medians, the
// difference with its base, the bound and the verdict; then the per-layer
// metrics both sets have, without verdicts. It refuses sets measured under
// different conditions, and fails if anything is worse, which any failed
// query in b is.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	if err := sameConditions(a, b); err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%d records)   b = %s (%d records)   difference = b against a, as a share of a\n", pathA, len(a), pathB, len(b))
	layerRows := func(name string, defs []metricDef) {
		for _, d := range defs {
			va, vb := values(a, name, d.name, true), values(b, name, d.name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-36s %-9s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%\n",
				d.name, d.unit, ma, mb, 100*ratio(mb-ma, ma), 100*spread(va), 100*spread(vb))
		}
	}
	var worse, unresolved int
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n%-36s %-9s %14s %14s %9s %8s %8s %7s  %s\n", wl.name, "metric", "unit", "a (median)", "b (median)", "worse by", "spread a", "spread b", "bound", "verdict")
		for _, d := range endToEnd {
			va, vb := values(a, wl.name, d.name, false), values(b, wl.name, d.name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worseBy, status := judge(d, va, vb)
			switch status {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-36s %-9s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				d.name, d.unit, median(va), median(vb), 100*worseBy, 100*spread(va), 100*spread(vb), 100*d.bound, status)
		}
		// The bound is absolute: b may have no failed query at all.
		ea, eb, status := errorRateOf(a, wl.name), errorRateOf(b, wl.name), "ok"
		if eb > 0 {
			status = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-36s %-9s %14.6g %14.6g %9s %8s %8s %7s  %s\n", errorRate.name, errorRate.unit, ea, eb, "", "", "", "0 abs", status)
		layerRows(wl.name, perLayer)
	}
	fmt.Fprintf(w, "\n%s\n", drillsRecord)
	layerRows(drillsRecord, drillMetrics)
	fmt.Fprintf(w, "\n%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("set %s is worse than %s", pathB, pathA)
	}
	return nil
}
