// Command sambench regenerates the tables and figures of the paper's
// evaluation (Section 6) and prints the same rows and series the paper
// reports.
//
// Usage:
//
//	sambench                 # run everything
//	sambench -exp fig12      # one experiment
//	sambench -exp table1,fig13a -scale 0.5
//	sambench -exp fig12 -json                  # machine-readable results
//	sambench -engine naive   # re-run the evaluation on the tick-all loop
//
// Experiments: table1, table2, fig11, fig12, fig13a, fig13b, fig13c, fig14,
// fig15, pointlevel. Performance is measured by bench/ (BENCHMARK.json), not
// here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"sam/internal/experiments"
	"sam/internal/sim"
)

var all = []string{"table1", "table2", "fig11", "fig12", "fig13a", "fig13b", "fig13c", "fig14", "fig15", "pointlevel"}

// jsonResult is the machine-readable record emitted per experiment with
// -json. CPUs and GoMaxProcs pin the host parallelism of every row:
// wall-clock numbers are not comparable across rows measured under different
// core budgets.
type jsonResult struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Engine     string  `json:"engine"`
	CPUs       int     `json:"cpus"`
	GoMaxProcs int     `json:"gomaxprocs"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Data       any     `json:"data"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the tool against explicit argument and output streams so the
// smoke tests can drive it in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiments to run (see usage)")
	seed := fs.Int64("seed", 1, "random seed for synthetic data")
	scale := fs.Float64("scale", 1.0, "problem-size scale for fig11/fig12 (1.0 = paper size)")
	engine := fs.String("engine", "", "simulation engine: event (default) or naive")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *engine != "" {
		// Experiments need cycle counts and stream statistics, which only
		// the cycle-accurate engines produce; validate against the full
		// registry so a typo prints every engine that exists.
		kind := sim.EngineKind(*engine)
		if err := sim.CheckEngineKind(kind, sim.Engines()); err != nil {
			fmt.Fprintf(stderr, "sambench: %v\n", err)
			return 1
		}
		if kind != sim.EngineEvent && kind != sim.EngineNaive {
			fmt.Fprintf(stderr, "sambench: engine %q has no cycle model; experiments need a cycle engine (%q or %q)\n", *engine, sim.EngineEvent, sim.EngineNaive)
			return 1
		}
		experiments.SimOptions.Engine = kind
	}
	// Validate every name up front: a typo in the list is better reported
	// now than after the experiments before it have run for seconds.
	names, err := parseExperiments(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "sambench: %v\n", err)
		return 1
	}
	var records []jsonResult
	for _, name := range names {
		start := time.Now()
		text, data, err := run(name, *seed, *scale)
		if err != nil {
			fmt.Fprintf(stderr, "sambench: %s: %v\n", name, err)
			return 1
		}
		elapsed := time.Since(start)
		if *asJSON {
			eng := string(experiments.SimOptions.Engine)
			if eng == "" {
				eng = string(sim.EngineEvent)
			}
			records = append(records, jsonResult{
				Experiment: name, Seed: *seed, Scale: *scale, Engine: eng,
				CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
				ElapsedMS: float64(elapsed.Microseconds()) / 1000, Data: data,
			})
			continue
		}
		fmt.Fprintln(stdout, text)
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(stderr, "sambench: %v\n", err)
			return 1
		}
	}
	return 0
}

// parseExperiments resolves the -exp list, rejecting unknown and repeated
// names.
func parseExperiments(spec string) ([]string, error) {
	if spec == "all" {
		return all, nil
	}
	names := strings.Split(spec, ",")
	for i, name := range names {
		if !slices.Contains(all, name) {
			return nil, fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(all, ", "))
		}
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("experiment %q listed twice", name)
		}
	}
	return names, nil
}

// run executes one of the experiments in all, returning both the rendered
// table and the structured rows for -json.
func run(name string, seed int64, scale float64) (string, any, error) {
	switch name {
	case "table1":
		rows, err := experiments.Table1()
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderTable1(rows), rows, nil
	case "table2":
		rows, unique, total, err := experiments.Table2()
		if err != nil {
			return "", nil, err
		}
		data := map[string]any{"rows": rows, "unique": unique, "total": total}
		return experiments.RenderTable2(rows, unique, total), data, nil
	case "fig11":
		pts, err := experiments.Figure11(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure11(pts), pts, nil
	case "fig12":
		pts, err := experiments.Figure12(seed, scale)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure12(pts), pts, nil
	case "fig13a":
		pts, err := experiments.Figure13a(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure13("Figure 13a: elementwise mul vs sparsity (urandom, dim 2000)", "nnz", pts), pts, nil
	case "fig13b":
		pts, err := experiments.Figure13b(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure13("Figure 13b: elementwise mul vs run length (runs, nnz 400)", "run", pts), pts, nil
	case "fig13c":
		pts, err := experiments.Figure13c(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure13("Figure 13c: elementwise mul vs block size (blocks, nnz 400)", "block", pts), pts, nil
	case "fig14":
		rows, err := experiments.Figure14(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFigure14(rows), rows, nil
	case "fig15":
		pts := experiments.Figure15(seed)
		return experiments.RenderFigure15(pts), pts, nil
	case "pointlevel":
		rows, err := experiments.PointVsLevel(seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderPointVsLevel(rows), rows, nil
	}
	panic("sambench: experiment " + name + " is listed in all but has no case in run")
}
