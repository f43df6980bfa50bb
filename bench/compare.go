package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// gated are the metrics -compare judges: the end-to-end ones, plus the
// simulator's own throughput where a workload reports it. error_rate is
// judged apart: any increase is a regression.
var gated = append(append([]metricDef(nil), endToEnd...), metricDef{"sim_mcycles_per_s", "Mcycle/s", true, 0.25})

// verdict judges one metric: "regressed" when it moved the wrong way by
// more than bound × old, "improved" when it moved the right way by more
// than that, "ok" in between. ratio is new ÷ old.
func verdict(d metricDef, old, new float64) (ratio float64, v string) {
	if old == 0 {
		if new == 0 {
			return 1, "ok"
		}
		return 0, "ok" // nothing to take a share of
	}
	ratio = new / old
	change := ratio - 1 // positive is worse for lower-is-better
	if d.higher {
		change = -change
	}
	switch {
	case change > d.bound:
		return ratio, "regressed"
	case change < -d.bound:
		return ratio, "improved"
	}
	return ratio, "ok"
}

func readReport(path string) (*reportFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep reportFile
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in it; is it a bench report?", path)
	}
	return &rep, nil
}

// compareReports prints old, new, their ratio (new ÷ old) and a verdict for
// every workload × gated metric, and reports whether anything regressed: a
// metric beyond its bound, a higher error_rate, or a workload gone missing.
func compareReports(w io.Writer, old, new *reportFile) (regressed bool) {
	fmt.Fprintf(w, "old: commit %s seed %d window %ds cpus %d   new: commit %s seed %d window %ds cpus %d\n",
		old.Env.Commit, old.Env.Seed, old.Env.WindowS, old.Env.CPUs, new.Env.Commit, new.Env.Seed, new.Env.WindowS, new.Env.CPUs)
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %10s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, name := range workloadNames {
		o, n := old.Workloads[name], new.Workloads[name]
		if o == nil {
			continue // a workload the old report predates has no base
		}
		if n == nil {
			fmt.Fprintf(w, "%-15s missing from the new report: regressed\n", name)
			regressed = true
			continue
		}
		for _, d := range gated {
			ov, hasOld := o.EndToEnd[d.name]
			nv, hasNew := n.EndToEnd[d.name]
			if !hasOld {
				continue
			}
			ratio, v := verdict(d, ov, nv)
			if !hasNew {
				ratio, v = 0, "regressed"
			}
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-15s %-18s %12.4f %12.4f %10.4f %6.0f%%  %s\n", name, d.name, ov, nv, ratio, d.bound*100, v)
		}
		oe, ne := o.EndToEnd["error_rate"], n.EndToEnd["error_rate"]
		v := "ok"
		if ne > oe {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-15s %-18s %12.6f %12.6f %10s %7s  %s\n", name, "error_rate", oe, ne, "-", "any", v)
	}
	return regressed
}

func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	return compareReports(w, old, new), nil
}
