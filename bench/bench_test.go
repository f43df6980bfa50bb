package main

// Fast self-tests of the benchmark itself: no processes, no sockets.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"sam/internal/lang"
	"sam/internal/sim"
)

func stream(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	for _, r := range w.requests {
		all.WriteString(r.kernel)
		all.Write(r.body)
	}
	// Stored operands are part of what the servers are sent. (Maps encode
	// with sorted keys.)
	stored := map[string]any{}
	for name, t := range w.stored {
		stored[name] = wireTensor(t)
	}
	enc, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	all.Write(enc)
	return all.Bytes()
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, again, b := stream(t, name, 7), stream(t, name, 7), stream(t, name, 8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
	if _, err := newWorkload("no-such", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestColdCompileKeysAreDistinctAndOutnumberTheCache(t *testing.T) {
	const cacheSize = 128 // samserve's default -cache
	w, err := newWorkload("cold-compile", 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, r := range w.requests {
		e, err := langParse(r.expr)
		if err != nil {
			t.Fatalf("%s: %v", r.kernel, err)
		}
		key := langKey(e, r.sched)
		if other, dup := keys[key]; dup {
			t.Errorf("%s and %s share program key %q", r.kernel, other, key)
		}
		keys[key] = r.kernel
		if len(r.body) > 2048 {
			t.Errorf("%s: body is %d bytes, over the 2 KB envelope", r.kernel, len(r.body))
		}
	}
	if len(keys) < 512 || len(keys) <= 2*cacheSize {
		t.Errorf("%d distinct keys: want ≥ 512 so a %d-entry LRU never hits", len(keys), cacheSize)
	}
}

func TestRenamedKeepsIndexVariables(t *testing.T) {
	e := lang.MustParse(exprMatTransMul)
	expr, ops := renamed(e, exprMatTransMul, "1", map[string]int{"i": 4, "j": 5})
	if want := "x1(i) = alpha1 * B1^T(i,j) * c1(j) + beta1 * d1(i)"; expr != want {
		t.Errorf("renamed to %q, want %q", expr, want)
	}
	if len(ops) != 5 || ops[1].name != "B1" || ops[1].dims[0] != 5 || ops[1].dims[1] != 4 {
		t.Errorf("operands %+v: want 5 of them, B1 sized j×i", ops)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9}, 50); got != 3 {
		t.Errorf("nearest-rank median of {3,9} = %g, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if s := summarize(xs); s.N != 100 || s.Median != 50 || s.HighP != 90 || s.High != 90 || s.Sum != 5050 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	// The slice a run reports: the decile at the good end, order ignored.
	descending := make([]float64, len(xs))
	for i, x := range xs {
		descending[len(xs)-1-i] = x
	}
	if lo, hi := steady(descending, false), steady(descending, true); lo != 10 || hi != 90 {
		t.Errorf("steady(1..100) = %g when lower is better and %g when higher is, want 10 and 90", lo, hi)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"latency_p50_ms", "ms", false, 0.10}
	higher := metricDef{"throughput_rps", "req/s", true, 0.10}
	for _, c := range []struct {
		d        metricDef
		old, new float64
		want     string
	}{
		{lower, 1, 1.05, "ok"}, {lower, 1, 1.11, "regressed"}, {lower, 1, 0.85, "improved"},
		{higher, 100, 95, "ok"}, {higher, 100, 89, "regressed"}, {higher, 100, 115, "improved"},
		{lower, 0, 0, "ok"},
	} {
		if _, got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %g → %g: %s, want %s", c.d.name, c.old, c.new, got, c.want)
		}
	}

	report := func(rps, errs float64) *reportFile {
		return &reportFile{Workloads: map[string]*result{"warm-ref": {EndToEnd: metrics{
			"throughput_rps": rps, "latency_p50_ms": 1, "cpu_ms_per_req": 1,
			"peak_rss_mb": 50, "setup_s": 0.1, "error_rate": errs}}}}
	}
	var out bytes.Buffer
	if compareReports(&out, report(1000, 0), report(960, 0)) {
		t.Errorf("a 4 %% dip counted as a regression:\n%s", out.String())
	}
	if !compareReports(&out, report(1000, 0), report(700, 0)) {
		t.Error("a 30 % throughput loss passed")
	}
	if !compareReports(&out, report(1000, 0), report(1000, 0.001)) {
		t.Error("a higher error_rate passed")
	}
	if !compareReports(&out, report(1000, 0), &reportFile{Workloads: map[string]*result{}}) {
		t.Error("a missing workload passed")
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no verdict printed:\n%s", out.String())
	}
}

// TestNamesAndManifest holds the name rules and, when the repository's
// BENCHMARK.json is there, that it and the code list the same workloads and
// metrics with the same units and bounds.
func TestNamesAndManifest(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("metric %q (%q): bad or repeated name, or bad unit", d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloadNames {
		if !name.MatchString(w) || seen[w] {
			t.Errorf("workload %q: bad or repeated name", w)
		}
		seen[w] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	if len(manifest.Workloads) != len(workloadNames) || len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d and %d",
			len(manifest.Workloads), len(manifest.EndToEnd), len(manifest.PerLayer), len(workloadNames), len(endToEnd), len(perLayer))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code (or a missing or over-long why)", i, w.Name, workloadNames[i])
		}
	}
	for i, m := range manifest.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
	for i, m := range manifest.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the code", i, m, d)
		}
	}
}

func TestSplitResponse(t *testing.T) {
	reply := []byte(`{"cycles":17,"output":{"dims":[2],"coords":[[0],[1]],"values":[19,21]},"fingerprint":"ab","cache":"hit",` +
		`"tensors":{"B":{"version":1,"fingerprint":"cd"}}}`)
	cycles, output, err := splitResponse(reply)
	if err != nil || cycles != 17 || string(output) != `{"dims":[2],"coords":[[0],[1]],"values":[19,21]}` {
		t.Errorf("splitResponse = %d, %s, %v", cycles, output, err)
	}
	if _, _, err := splitResponse([]byte(`{"error":"no"}`)); err == nil {
		t.Error("an error body split as a response")
	}
}

// TestLadderSmoke sends one request of each engine down every rung in
// layers.go, in process, and checks each left its span and the outputs
// matched gold.
func TestLadderSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := storedKernels("smoke", rng, warmRefKernels[:1])
	w.requests = append(w.requests,
		&request{kernel: "SpMV/opt1", expr: exprSpMV, engine: sim.EngineComp, sched: lang.Schedule{Opt: 1},
			inputs: kernel{ops: []operand{{"B", 12, []int{6, 5}}, {"c", 3, []int{5}}}}.generate(rng)},
		&request{kernel: "SpM*SpM-ikj", expr: exprSpMSpM, sched: lang.Schedule{LoopOrder: []string{"i", "k", "j"}},
			inputs: kernel{ops: []operand{{"B", 10, []int{6, 4}}, {"C", 10, []int{4, 6}}}}.generate(rng)})
	for _, r := range w.requests {
		var err error
		if r.body, err = evaluateBody(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.solve(); err != nil {
		t.Fatal(err)
	}
	l, err := newLadder(w)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	tr := newTracer()
	for i, r := range w.requests {
		if err := l.replay(tr, i, r); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int{}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS || (s.Name == spanRequest) != (s.Parent == -1) {
			t.Errorf("malformed span %+v", s)
		}
		got[s.Name]++
	}
	want := map[string]int{spanRequest: 3, rungHandler: 3, rungDecode: 3, rungParse: 3, rungKey: 3, rungCustard: 3,
		rungOpt: 3, rungNewProg: 3, rungBind: 3, rungEncode: 3,
		rungCompile: 2, rungProgEnc: 2, rungProgDec: 2, rungProgRun: 2, rungCompRun: 2, rungEventRun: 1}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%d %s spans, want %d", got[name], name, n)
		}
	}
	if l.counts["custard.blocks"] == 0 || l.counts["sim.event_cycles"] == 0 || l.counts["serve.response_bytes"] == 0 {
		t.Errorf("counts not taken: %v", l.counts)
	}
	if _, err := l.allocs(); err != nil {
		t.Error(err)
	}
}
