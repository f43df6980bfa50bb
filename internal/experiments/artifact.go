package experiments

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/serve"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// ArtifactRow is one kernel × optimization measurement of the program-
// artifact pipeline (internal/prog): the encoded size, the encode and decode
// costs, and the compiled engine's wall-clock against the event engine on
// the same inputs — with the decoded artifact's output proven bit-identical
// to both.
type ArtifactRow struct {
	Kernel    string  `json:"kernel"`
	Opt       int     `json:"opt"`
	Bytes     int     `json:"artifact_bytes"`
	EncodeUS  float64 `json:"encode_us"` // lower + encode, per call
	DecodeUS  float64 `json:"decode_us"` // decode + materialize, per call
	WallMSEv  float64 `json:"wall_ms_event"`
	WallMSCmp float64 `json:"wall_ms_comp"`
	Identical bool    `json:"outputs_identical"`
}

// ArtifactServePoint is one kernel's cold-compile vs warm-disk serving
// measurement: the setup time of a genuine cache miss (parse + custard +
// optimizer + lowering + program build, artifact written behind) on one
// server against the setup time of a fresh server sharing the same artifact
// directory, whose first request decodes the persisted artifact instead of
// compiling.
type ArtifactServePoint struct {
	Kernel      string  `json:"kernel"`
	ColdSetupNS int64   `json:"cold_setup_ns"` // fresh server, empty disk: compile
	DiskSetupNS int64   `json:"disk_setup_ns"` // fresh server, warm disk: decode
	Speedup     float64 `json:"setup_speedup"`
	Cycles      int     `json:"cycles"` // 0: the comp engine has no cycle model
}

// ArtifactResult bundles both halves of the artifact study for
// BENCH_PR7.json.
type ArtifactResult struct {
	CPUs  int                  `json:"cpus"`
	Rows  []ArtifactRow        `json:"rows"`
	Serve []ArtifactServePoint `json:"serve"`
}

// ArtifactStudy measures the portable-artifact pipeline end to end. Phase 1
// covers every Table 1 kernel at Opt ∈ {0, 1}: artifact size, encode/decode
// cost, and event vs comp wall-clock with bit-identity enforced across
// event, comp and the decoded artifact. Phase 2 drives two serve instances sharing one artifact
// directory over real HTTP: the first compiles each kernel cold (writing
// artifacts behind), the second starts with an empty in-memory cache and a
// warm disk, so its first comp request per kernel must be served by
// decoding — the cold-start path the artifact format exists to shorten.
func ArtifactStudy(seed int64, scale float64) (*ArtifactResult, error) {
	dims := map[string]int{
		"i": int(40 * scale), "j": int(36 * scale),
		"k": int(24 * scale), "l": int(12 * scale),
	}
	for v, d := range dims {
		if d < 6 {
			dims[v] = 6
		}
	}
	const reps = 3
	rng := rand.New(rand.NewSource(seed))
	out := &ArtifactResult{CPUs: runtime.NumCPU()}
	for _, tc := range Table1Cases {
		e, err := lang.Parse(tc.Expr)
		if err != nil {
			return nil, err
		}
		inputs := map[string]*tensor.COO{}
		for _, a := range e.Accesses() {
			if _, ok := inputs[a.Tensor]; ok {
				continue
			}
			if len(a.Idx) == 0 {
				s := tensor.NewCOO(a.Tensor)
				s.Append(float64(rng.Intn(5) + 1))
				inputs[a.Tensor] = s
				continue
			}
			ds := make([]int, len(a.Idx))
			total := 1
			for i, v := range a.Idx {
				ds[i] = dims[v]
				total *= ds[i]
			}
			t := tensor.UniformRandom(a.Tensor, rng, total/6+1, ds...)
			tensor.QuantizeInts(rng, 7, t)
			inputs[a.Tensor] = t
		}
		for _, optLevel := range []int{0, 1} {
			sched := lang.Schedule{LoopOrder: tc.Order, Opt: optLevel}
			g, err := custard.Compile(e, nil, sched)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: compile: %w", tc.Name, optLevel, err)
			}
			enc, err := prog.Encode(g)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: encode: %w", tc.Name, optLevel, err)
			}
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := prog.Encode(g); err != nil {
					return nil, fmt.Errorf("artifact %s O%d: encode: %w", tc.Name, optLevel, err)
				}
			}
			encUS := float64(time.Since(t0).Nanoseconds()) / 1000 / reps
			var loaded *prog.Program
			t0 = time.Now()
			for r := 0; r < reps; r++ {
				if loaded, err = prog.Decode(enc); err != nil {
					return nil, fmt.Errorf("artifact %s O%d: decode: %w", tc.Name, optLevel, err)
				}
			}
			decUS := float64(time.Since(t0).Nanoseconds()) / 1000 / reps

			p, err := sim.NewProgram(g)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: program: %w", tc.Name, optLevel, err)
			}
			run := func(eng sim.EngineKind) (*sim.Result, float64, error) {
				opt := SimOptions
				opt.Engine = eng
				res, err := p.Run(inputs, opt) // warmup; absorbs lowering
				if err != nil {
					return nil, 0, err
				}
				t0 := time.Now()
				for r := 0; r < reps; r++ {
					if res, err = p.Run(inputs, opt); err != nil {
						return nil, 0, err
					}
				}
				return res, float64(time.Since(t0).Microseconds()) / 1000 / reps, nil
			}
			rEv, wEv, err := run(sim.EngineEvent)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: event run: %w", tc.Name, optLevel, err)
			}
			rCmp, wCmp, err := run(sim.EngineComp)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: comp run: %w", tc.Name, optLevel, err)
			}
			if rCmp.Engine != sim.EngineComp {
				return nil, fmt.Errorf("artifact %s O%d: fell back to %q", tc.Name, optLevel, rCmp.Engine)
			}
			if err := tensor.IdenticalBits(rEv.Output, rCmp.Output); err != nil {
				return nil, fmt.Errorf("artifact %s O%d: comp output is not bit-identical to event: %w", tc.Name, optLevel, err)
			}
			art, err := loaded.Run(inputs)
			if err != nil {
				return nil, fmt.Errorf("artifact %s O%d: artifact run: %w", tc.Name, optLevel, err)
			}
			if err := tensor.IdenticalBits(rEv.Output, art); err != nil {
				return nil, fmt.Errorf("artifact %s O%d: decoded artifact output is not bit-identical to event: %w", tc.Name, optLevel, err)
			}
			if err := checkGold(tc.Expr, inputs, rCmp); err != nil {
				return nil, fmt.Errorf("artifact %s O%d: gold: %w", tc.Name, optLevel, err)
			}
			out.Rows = append(out.Rows, ArtifactRow{
				Kernel: tc.Name, Opt: optLevel, Bytes: len(enc),
				EncodeUS: encUS, DecodeUS: decUS,
				WallMSEv: wEv, WallMSCmp: wCmp,
				Identical: true,
			})
		}
	}

	pts, err := artifactServePhase(seed, scale)
	if err != nil {
		return nil, err
	}
	out.Serve = pts
	return out, nil
}

// artifactServePhase measures serve's persistent disk cache: cold compile on
// server A (which persists artifacts), then first-request setup on a fresh
// server B sharing the directory, whose misses must resolve from disk.
func artifactServePhase(seed int64, scale float64) ([]ArtifactServePoint, error) {
	dir, err := os.MkdirTemp("", "sam-artifacts-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	workload := serveWorkload(seed, scale)
	for _, w := range workload {
		// The disk cache serves the compiled engine only.
		w.req.Options = &serve.WireOptions{Engine: "comp"}
	}
	client := &http.Client{}

	var points []ArtifactServePoint
	cold := map[string]int64{}
	// Server A: empty disk, every first request is a genuine compile; the
	// server writes each artifact behind the miss.
	tsA, stopA := startServer(serve.Config{Workers: 2, ArtifactDir: dir})
	for _, w := range workload {
		er, err := post(client, tsA.URL, w.req)
		if err != nil {
			stopA()
			return nil, fmt.Errorf("artifact serve %s (cold): %w", w.name, err)
		}
		if er.Cache != "miss" {
			stopA()
			return nil, fmt.Errorf("artifact serve %s: first request was a cache %s, want miss", w.name, er.Cache)
		}
		cold[w.name] = er.SetupNS
	}
	stopA()

	// Server B: fresh in-memory cache, warm disk. Every first request must
	// decode the persisted artifact instead of compiling.
	tsB, stopB := startServer(serve.Config{Workers: 2, ArtifactDir: dir})
	defer stopB()
	for _, w := range workload {
		er, err := post(client, tsB.URL, w.req)
		if err != nil {
			return nil, fmt.Errorf("artifact serve %s (disk): %w", w.name, err)
		}
		if er.Cache != "disk" {
			return nil, fmt.Errorf("artifact serve %s: fresh-server request was a cache %s, want disk", w.name, er.Cache)
		}
		pt := ArtifactServePoint{
			Kernel: w.name, ColdSetupNS: cold[w.name],
			DiskSetupNS: er.SetupNS, Cycles: er.Cycles,
		}
		if pt.DiskSetupNS > 0 {
			pt.Speedup = float64(pt.ColdSetupNS) / float64(pt.DiskSetupNS)
		}
		points = append(points, pt)
	}
	return points, nil
}

// RenderArtifact prints the artifact study.
func RenderArtifact(r *ArtifactResult) string {
	header := []string{"Kernel", "Opt", "Bytes", "Encode", "Decode", "Wall event (ms)", "Wall comp (ms)", "Bit-identical"}
	var body [][]string
	for _, row := range r.Rows {
		body = append(body, []string{
			row.Kernel, fmt.Sprint(row.Opt), fmt.Sprint(row.Bytes),
			fmt.Sprintf("%.1fus", row.EncodeUS), fmt.Sprintf("%.1fus", row.DecodeUS),
			fmt.Sprintf("%.3f", row.WallMSEv), fmt.Sprintf("%.3f", row.WallMSCmp),
			fmt.Sprint(row.Identical),
		})
	}
	out := "Artifacts: Table 1 kernels, encode/decode cost and event vs comp wall-clock (internal/prog)\n" + table(header, body)
	header = []string{"Kernel", "Cold setup (compile)", "Disk setup (decode)", "Setup speedup"}
	body = nil
	for _, p := range r.Serve {
		body = append(body, []string{
			p.Kernel,
			fmt.Sprintf("%.1fus", float64(p.ColdSetupNS)/1000),
			fmt.Sprintf("%.1fus", float64(p.DiskSetupNS)/1000),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	out += fmt.Sprintf("\nArtifacts: serve cold compile vs warm-disk decode, fresh server per column (%d CPUs)\n", r.CPUs) + table(header, body)
	return out
}
