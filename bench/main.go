// Command bench is the repository's benchmark: five closed-loop workloads
// against real samserve processes for the end-to-end metrics, and an
// in-process replay of the same seeded request streams down the layer
// ladder, one span per call, for the per-layer metrics. See README.md.
//
//	bash bench/run.sh                          # every workload, both passes, a table and bench/out/report.json
//	bash bench/run.sh -workload warm-ref -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metrics maps a metric's name to its value.
type metrics map[string]float64

// metricDef is one row of BENCHMARK.json: a name, its unit and direction
// and, for end-to-end metrics, the share of the old value by which it may
// worsen before -compare calls it a regression.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEnd are the metrics a caller of the service sees, measured against
// real processes with tracing off.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"cpu_ms_per_req", "ms", false, 0.25},
	{"peak_rss_mb", "MiB", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// perLayer are the single-layer metrics: the traced replay's rungs, then
// the diagnostics read off the processes during a real-process window.
var perLayer = []metricDef{
	{"serve.handler_us", "us", false, 0}, {"serve.handler_allocs", "allocs", false, 0}, {"serve.self_us", "us", false, 0},
	{"serve.wire_decode_us", "us", false, 0}, {"serve.wire_decode_allocs", "allocs", false, 0}, {"serve.request_bytes", "bytes", false, 0},
	{"serve.wire_encode_us", "us", false, 0}, {"serve.response_bytes", "bytes", false, 0},
	{"lang.parse_us", "us", false, 0}, {"lang.key_us", "us", false, 0},
	{"custard.compile_us", "us", false, 0}, {"custard.blocks", "count", false, 0},
	{"opt.optimize_us", "us", false, 0}, {"opt.blocks_removed", "count", true, 0},
	{"sim.newprogram_us", "us", false, 0}, {"comp.compile_us", "us", false, 0},
	{"prog.encode_us", "us", false, 0}, {"prog.decode_us", "us", false, 0}, {"prog.artifact_bytes", "bytes", false, 0}, {"prog.run_us", "us", false, 0},
	{"bind.operands_us", "us", false, 0}, {"bind.operands_allocs", "allocs", false, 0},
	{"comp.run_us", "us", false, 0}, {"comp.run_allocs", "allocs", false, 0},
	{"sim.event_run_us", "us", false, 0}, {"sim.event_cycles", "count", false, 0}, {"sim.event_ns_per_cycle", "ns", false, 0},
	{"share.engine", "ratio", true, 0}, {"share.wire", "ratio", false, 0}, {"share.compile", "ratio", false, 0}, {"share.bind", "ratio", false, 0},
	{"bench.trace_overhead_pct", "%", false, 0},
	{"http.loopback_us", "us", false, 0},
	{"router.hop_us", "us", false, 0}, {"router.cpu_ms_per_req", "ms", false, 0}, {"router.shard_share_max", "ratio", false, 0},
	{"serve.cache_hit_ratio", "ratio", true, 0}, {"serve.bind_hit_ratio", "ratio", true, 0}, {"serve.rejected", "count", false, 0}, {"serve.queue_wait_us", "us", false, 0},
	{"client.latency_p90_ms", "ms", false, 0}, {"client.latency_p99_ms", "ms", false, 0}, {"client.latency_max_ms", "ms", false, 0},
	{"proc.shard_cpu_ms_per_req", "ms", false, 0}, {"proc.gen_cpu_share", "ratio", false, 0},
	{"sim_mcycles_per_s", "Mcycle/s", true, 0}, {"error_rate", "ratio", false, 0},
}

const (
	setupRounds = 5 // fresh fleets per run; setup_s is their median
	warmUp      = 2 * time.Second
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	basePort int
	clients  int
	binDir   string
	outDir   string
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	compare := flag.Bool("compare", false, "compare two reports: bench -compare old.json new.json")
	flag.StringVar(&cfg.workload, "workload", "", "run one workload and print one JSON result line (the driver's protocol); empty runs all five and writes a report")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: same seed, same request streams")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured window per workload, in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&cfg.basePort, "baseport", 18470, "first of three fixed loopback ports: shard, shard, router")
	flag.IntVar(&cfg.clients, "clients", min(runtime.NumCPU(), 2), "closed-loop clients, one keep-alive connection each")
	flag.StringVar(&cfg.binDir, "bindir", "", "where to build samserve (default: a fresh temporary directory)")
	flag.StringVar(&cfg.outDir, "out", "", "where results and span dumps go (default: bench/out)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if cfg.seconds < 1 || cfg.clients < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -clients must be positive, and there are no positional arguments")
		return 2
	}

	// Children die with the benchmark: on return, on a signal, and (through
	// guard) on a panic in any goroutine.
	defer killChildren()
	defer guard()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(130)
	}()

	if err := cfg.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "samserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/samserve above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// environment is the block that says where and how numbers were taken.
type environment struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WindowS    int     `json:"window_s"`
	Clients    int     `json:"clients"`
	BuildS     float64 `json:"build_s"`
}

// harness is what every workload run shares.
type harness struct {
	cfg    config
	bin    string
	logDir string
	env    environment
}

func (cfg config) execute() error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "sam-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if cfg.binDir == "" {
		cfg.binDir = tmp
	}
	h := &harness{cfg: cfg, logDir: tmp}
	var built time.Duration
	if h.bin, built, err = buildServer(root, cfg.binDir); err != nil {
		return err
	}
	h.env = environment{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(root), Seed: cfg.seed, WindowS: cfg.seconds, Clients: cfg.clients, BuildS: built.Seconds()}

	if cfg.workload != "" {
		return h.driverRun()
	}
	return h.report()
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is one workload's numbers.
type result struct {
	Attempted int                `json:"attempted"`
	OK        int                `json:"ok"`
	Failed    int                `json:"failed"`
	N         int                `json:"n"` // latency samples behind the percentiles
	EndToEnd  metrics            `json:"end_to_end"`
	PerLayer  metrics            `json:"per_layer,omitempty"`
	Rungs     map[string]summary `json:"rungs,omitempty"` // µs per call
	firstErr  error
}

// measure runs one workload: set-up several times over (the last fleet is
// kept), a real-process window of length e2e, and — when traced > 0 — the
// direct side-run a routed workload needs and the in-process traced pass.
func (h *harness) measure(name string, e2e, traced time.Duration) (*result, error) {
	w, err := newWorkload(name, h.cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := w.solve(); err != nil {
		return nil, err
	}
	var f *fleet
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if f != nil {
			f.stop()
		}
		var took time.Duration
		if f, took, err = setUp(h.bin, h.logDir, h.cfg.basePort, w); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer f.stop()

	win, err := runLoad(f, f.target, w, h.cfg.clients, warmUp, e2e)
	if err != nil {
		return nil, err
	}
	if win.ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded in the window: %v", name, win.firstErr)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d slices: %.1f req/s over the whole window, p50 %.3f ms\n", name, len(win.slices),
		float64(win.ok)/win.length.Seconds(), percentile(win.latencies, 50))
	res := &result{Attempted: win.attempted, OK: win.ok, Failed: win.failed, N: len(win.latencies), firstErr: win.firstErr}
	res.EndToEnd = win.endToEnd(median(setups))
	if traced <= 0 {
		return res, nil
	}

	res.PerLayer = metrics{}
	for _, d := range perLayer {
		res.PerLayer[d.name] = 0 // a rung the workload never reaches reads 0
	}
	for k, v := range win.diagnostics(f) {
		res.PerLayer[k] = v
	}
	// The layer arithmetic below uses whole-window medians on both sides.
	windowP50 := percentile(win.latencies, 50)
	directP50 := windowP50
	if w.routed {
		// The same stream straight at one shard: the routed median minus
		// this one is what the hop costs.
		c := newClient()
		err := prime(over(c, f.shards[0].url), w)
		c.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("%s: direct side-run: %w", name, err)
		}
		direct, err := runLoad(f, f.shards[0].url, w, h.cfg.clients, warmUp/2, traced/3)
		if err != nil {
			return nil, err
		}
		if direct.failed > 0 || direct.ok == 0 {
			return nil, fmt.Errorf("%s: direct side-run: %d of %d failed: %v", name, direct.failed, direct.attempted, direct.firstErr)
		}
		directP50 = percentile(direct.latencies, 50)
		res.PerLayer["router.hop_us"] = (windowP50 - directP50) * 1e3
		traced -= traced / 3
	}
	// The replay gets the processors and the memory to itself.
	f.stop()
	lad, err := runLadder(w, traced, filepath.Join(h.cfg.outDir, name+".spans.json"))
	if err != nil {
		return nil, err
	}
	for k, v := range lad.metrics {
		res.PerLayer[k] = v
	}
	res.PerLayer["http.loopback_us"] = directP50*1e3 - lad.metrics[rungHandler+"_us"]
	res.Rungs = lad.rungs
	res.Rungs["serve.self"] = lad.self
	return res, nil
}

// endToEnd derives the end-to-end metrics of a window: rates and timings
// are taken per slice and the steady slice is reported.
func (win *window) endToEnd(setup float64) metrics {
	var rps, p50, cpu []float64
	for _, sl := range win.slices {
		if sl.ok == 0 {
			continue
		}
		rps = append(rps, float64(sl.ok)/sl.length.Seconds())
		p50 = append(p50, percentile(sl.latencies, 50))
		cpu = append(cpu, float64(sl.cpu)/float64(time.Millisecond)/float64(sl.ok))
	}
	return metrics{
		"throughput_rps": steady(rps, true),
		"latency_p50_ms": steady(p50, false),
		"cpu_ms_per_req": steady(cpu, false),
		"peak_rss_mb":    win.peakRSS,
		"setup_s":        setup,
	}
}

// diagnostics derives the per-layer metrics that only real processes can
// give: client tail latency, CPU by process, and the servers' own counters
// over the window.
func (win *window) diagnostics(f *fleet) metrics {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ok := float64(win.ok)
	m := metrics{
		"client.latency_p90_ms": percentile(win.latencies, 90),
		"client.latency_p99_ms": percentile(win.latencies, 99),
		"client.latency_max_ms": percentile(win.latencies, 100),
		"sim_mcycles_per_s":     float64(win.cycles) / win.length.Seconds() / 1e6,
		"error_rate":            float64(win.attempted-win.ok) / float64(win.attempted),
	}
	var shardCPU, allCPU time.Duration
	for i := range win.after.cpu {
		d := win.after.cpu[i] - win.before.cpu[i]
		allCPU += d
		if f.router != nil && i == 0 {
			m["router.cpu_ms_per_req"] = ms(d) / ok
			continue
		}
		shardCPU += d
	}
	m["proc.shard_cpu_ms_per_req"] = ms(shardCPU) / ok
	self := win.after.self - win.before.self
	m["proc.gen_cpu_share"] = float64(self) / float64(self+allCPU)

	var hits, misses, bindHits, bindBuilds, rejected int64
	for i, a := range win.after.stats {
		b := win.before.stats[i]
		hits += a.CacheHits - b.CacheHits
		misses += a.CacheMisses - b.CacheMisses
		bindHits += a.TensorsBindHits - b.TensorsBindHits
		bindBuilds += a.TensorsBindBuilds - b.TensorsBindBuilds
		rejected += a.Rejected - b.Rejected
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	m["serve.cache_hit_ratio"] = ratio(hits, misses)
	m["serve.bind_hit_ratio"] = ratio(bindHits, bindBuilds)
	m["serve.rejected"] = float64(rejected)
	if n := win.after.queueN - win.before.queueN; n > 0 {
		m["serve.queue_wait_us"] = (win.after.queueSum - win.before.queueSum) / n * 1e6
	}
	var routed, busiest float64
	for i := range win.after.routed {
		d := win.after.routed[i] - win.before.routed[i]
		routed += d
		busiest = max(busiest, d)
	}
	if routed > 0 {
		m["router.shard_share_max"] = busiest / routed
	}
	return m
}

// driverRun is the driver's protocol: one workload, one pass, and as the
// last line of standard output one JSON object with the metrics of that
// pass. Everything else goes to standard error.
func (h *harness) driverRun() error {
	window := time.Duration(h.cfg.seconds) * time.Second
	e2e, traced := window, time.Duration(0)
	if h.cfg.trace != 0 {
		// The same --seconds split between a real-process window (for the
		// diagnostics) and the traced replay.
		e2e, traced = window*2/5, window*3/5
	}
	res, err := h.measure(h.cfg.workload, e2e, traced)
	if err != nil {
		return err
	}
	defs, values := endToEnd, res.EndToEnd
	if h.cfg.trace != 0 {
		defs, values = perLayer, res.PerLayer
	}
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]reading{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", h.cfg.workload, d.name)
		}
		out.Metrics[d.name] = reading{v, d.unit}
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d requests failed, the first: %v\n", h.cfg.workload, res.Failed, res.Attempted, res.firstErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reportFile is what the all-workloads run writes and -compare reads.
type reportFile struct {
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

// report runs all five workloads with both passes, prints every metric by
// name with its unit, and writes the JSON that -compare reads.
func (h *harness) report() error {
	window := time.Duration(h.cfg.seconds) * time.Second
	rep := reportFile{Env: h.env, Workloads: map[string]*result{}}
	fmt.Printf("env: cpus=%d gomaxprocs=%d %s commit=%s seed=%d window=%ds clients=%d build_s=%.2f\n",
		h.env.CPUs, h.env.GOMAXPROCS, h.env.Go, h.env.Commit, h.env.Seed, h.env.WindowS, h.env.Clients, h.env.BuildS)
	failed := false
	for _, name := range workloadNames {
		res, err := h.measure(name, window, window)
		if err != nil {
			return err
		}
		// In the report the gated extras sit with the end-to-end metrics.
		res.EndToEnd["error_rate"] = res.PerLayer["error_rate"]
		if mc := res.PerLayer["sim_mcycles_per_s"]; mc > 0 {
			res.EndToEnd["sim_mcycles_per_s"] = mc
		}
		rep.Workloads[name] = res
		printResult(name, res)
		if res.Failed > 0 {
			failed = true
			fmt.Printf("  FAILED: %d of %d requests, the first: %v\n", res.Failed, res.Attempted, res.firstErr)
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(h.cfg.outDir, "report.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and one <workload>.spans.json per workload beside it\n", path)
	if failed {
		return errors.New("some requests failed or returned wrong outputs")
	}
	return nil
}

func printResult(name string, res *result) {
	fmt.Printf("\n== %s  attempted=%d ok=%d failed=%d n=%d\n", name, res.Attempted, res.OK, res.Failed, res.N)
	fmt.Println("  end to end (real processes, tracing off)")
	for _, d := range append(gated, metricDef{name: "error_rate", unit: "ratio"}) {
		if v, ok := res.EndToEnd[d.name]; ok {
			fmt.Printf("    %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	fmt.Println("  per layer (traced in-process replay, then process diagnostics)")
	for _, d := range perLayer {
		v, ok := res.PerLayer[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("    %-28s %14.4f %s", d.name, v, d.unit)
		if s, ok := res.Rungs[strings.TrimSuffix(d.name, "_us")]; ok && strings.HasSuffix(d.name, "_us") && s.N > 0 {
			line += fmt.Sprintf("   n=%d", s.N)
			if s.HighP > 0 {
				line += fmt.Sprintf(" p%g=%.1f", s.HighP, s.High)
			}
		}
		fmt.Println(line)
	}
}
