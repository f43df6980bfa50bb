package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// operand sizes one input tensor of a kernel: no dims is a scalar, nnz < 0
// is a fully populated ("dense") tensor in the sparse wire format.
type operand struct {
	name string
	nnz  int
	dims []int
}

// kernel is one program of a workload and the shape of its operands. The
// sizes below are frozen: changing one changes what every recorded number
// means, so it is a benchmark issue of its own.
type kernel struct {
	name  string
	expr  string
	order []string
	ops   []operand
}

// request is one distinct request of a workload's stream.
type request struct {
	kernel string
	expr   string
	sched  lang.Schedule
	engine sim.EngineKind // "" is the server's default, the event engine
	inputs map[string]*tensor.COO
	refs   map[string]string // input name → stored tensor name; nil sends operands inline
	body   []byte
	gold   *tensor.COO

	// Filled by the first verified response: later responses are checked
	// by comparing bytes (and cycles) against it.
	want   atomic.Pointer[expected]
	seen   atomic.Int64
	goldMu sync.Mutex // tensor.Equal sorts its arguments in place
}

type expected struct {
	output []byte
	cycles int64
}

// workload is a seeded request stream and the fleet it runs against. The
// stream is cyclic over requests: request i of the stream is
// requests[i % len(requests)].
type workload struct {
	name     string
	routed   bool                   // router + 2 shards instead of one shard
	warm     bool                   // set-up evaluates every distinct request once
	stored   map[string]*tensor.COO // operands PUT once during set-up
	requests []*request
}

// workloadNames is the fixed run order; BENCHMARK.json carries the recorded
// reason for each.
var workloadNames = []string{"warm-ref", "warm-kernel", "inline-routed", "cold-compile", "simulate-event"}

func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "warm-ref":
		w = storedKernels(name, rng, warmRefKernels)
	case "warm-kernel":
		w = storedKernels(name, rng, warmKernelKernels)
	case "inline-routed":
		w = inlineRouted(rng)
	case "cold-compile":
		w = coldCompile(rng)
	case "simulate-event":
		w = simulateEvent(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	for _, r := range w.requests {
		var err error
		if r.body, err = evaluateBody(r); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, r.kernel, err)
		}
	}
	return w, nil
}

// solve computes every request's expected output with the dense gold
// evaluator. Requests that differ only in schedule share operands and so
// share one result.
func (w *workload) solve() error {
	golds := map[string]*tensor.COO{}
	for _, r := range w.requests {
		gk := fmt.Sprintf("%s|%p", r.expr, r.inputs)
		if r.gold = golds[gk]; r.gold != nil {
			continue
		}
		e, err := langParse(r.expr)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", w.name, r.kernel, err)
		}
		if r.gold, err = langGold(e, r.inputs); err != nil {
			return fmt.Errorf("%s: %s: gold: %w", w.name, r.kernel, err)
		}
		golds[gk] = r.gold
	}
	return nil
}

// generate draws a kernel's operands: exactly nnz nonzeros each, placed
// uniformly, with small integer values so every engine and the dense gold
// evaluator agree bit for bit whatever the summation order. A fixed nnz
// (not a density) keeps the work per request the same across seeds.
func (k kernel) generate(rng *rand.Rand) map[string]*tensor.COO {
	inputs := make(map[string]*tensor.COO, len(k.ops))
	for _, op := range k.ops {
		var t *tensor.COO
		if len(op.dims) == 0 {
			t = tensor.NewCOO(op.name)
			t.Append(1)
		} else {
			nnz := op.nnz
			if nnz < 0 {
				nnz = 1
				for _, d := range op.dims {
					nnz *= d
				}
			}
			t = tensor.UniformRandom(op.name, rng, nnz, op.dims...)
		}
		tensor.QuantizeInts(rng, 9, t)
		inputs[op.name] = t
	}
	return inputs
}

// The seven small-output Table 1 kernels of the two warm workloads.
const (
	exprSpMV        = "x(i) = B(i,j) * c(j)"
	exprSDDMM       = "X(i,j) = B(i,j) * C(i,k) * D(j,k)"
	exprInnerProd   = "x = B(i,j,k) * C(i,j,k)"
	exprTTV         = "X(i,j) = B(i,j,k) * c(k)"
	exprMTTKRP      = "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)"
	exprResidual    = "x(i) = b(i) - C(i,j) * d(j)"
	exprMatTransMul = "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)"
	exprSpMSpM      = "X(i,j) = B(i,k) * C(k,j)"
	exprMMAdd       = "X(i,j) = B(i,j) + C(i,j)"
	exprPlus3       = "X(i,j) = B(i,j) + C(i,j) + D(i,j)"
	exprTTM         = "X(i,j,k) = B(i,j,l) * C(k,l)"
	exprPlus2       = "X(i,j,k) = B(i,j,k) + C(i,j,k)"
)

// warmRefKernels: matrices at BENCH_PR9 scale (240×160 at 5 %) against
// vectors and factors sparse or narrow enough that a comp run is a few tens
// of microseconds and outputs are a few hundred values at most — so the
// serve path around the engine, not the engine, is what gets measured.
var warmRefKernels = []kernel{
	{"SpMV", exprSpMV, nil, []operand{{"B", 120, []int{60, 40}}, {"c", 4, []int{40}}}},
	{"SDDMM", exprSDDMM, nil, []operand{{"B", 8, []int{30, 20}}, {"C", -1, []int{30, 4}}, {"D", -1, []int{20, 4}}}},
	{"InnerProd", exprInnerProd, nil, []operand{{"B", 64, []int{24, 20, 16}}, {"C", 64, []int{24, 20, 16}}}},
	{"TTV", exprTTV, nil, []operand{{"B", 32, []int{24, 20, 16}}, {"c", 4, []int{16}}}},
	{"MTTKRP", exprMTTKRP, nil, []operand{{"B", 8, []int{12, 10, 8}}, {"C", -1, []int{2, 10}}, {"D", -1, []int{2, 8}}}},
	{"Residual", exprResidual, nil, []operand{{"b", 30, []int{60}}, {"C", 120, []int{60, 40}}, {"d", 4, []int{40}}}},
	{"MatTransMul", exprMatTransMul, nil, []operand{{"alpha", 0, nil}, {"B", 120, []int{40, 60}}, {"c", 4, []int{40}}, {"beta", 0, nil}, {"d", 30, []int{60}}}},
}

// warmKernelKernels: the same programs with operands scaled until one
// request is 5–6 ms of comp co-iteration behind a response under 16 KB.
// comp materializes whole streams into pooled buffers, so memory grows with
// run time; these sizes keep the shard's peak RSS near 400 MB.
var warmKernelKernels = []kernel{
	{"SpMV", exprSpMV, nil, []operand{{"B", 16000, []int{1000, 1000}}, {"c", 250, []int{1000}}}},
	{"SDDMM", exprSDDMM, nil, []operand{{"B", 900, []int{300, 300}}, {"C", -1, []int{300, 48}}, {"D", -1, []int{300, 48}}}},
	{"InnerProd", exprInnerProd, nil, []operand{{"B", 56000, []int{100, 100, 40}}, {"C", 56000, []int{100, 100, 40}}}},
	{"TTV", exprTTV, nil, []operand{{"B", 20000, []int{30, 30, 1000}}, {"c", 250, []int{1000}}}},
	{"MTTKRP", exprMTTKRP, nil, []operand{{"B", 600, []int{50, 40, 40}}, {"C", -1, []int{10, 40}}, {"D", -1, []int{10, 40}}}},
	{"Residual", exprResidual, nil, []operand{{"b", 500, []int{1000}}, {"C", 20000, []int{1000, 1000}}, {"d", 250, []int{1000}}}},
	{"MatTransMul", exprMatTransMul, nil, []operand{{"alpha", 0, nil}, {"B", 20000, []int{1000, 1000}}, {"c", 250, []int{1000}}, {"beta", 0, nil}, {"d", 500, []int{1000}}}},
}

// storedKernels builds a warm workload: every operand is PUT once under
// "<kernel>_<operand>" and every request is a ~100-byte body of refs run on
// the comp engine.
func storedKernels(name string, rng *rand.Rand, kernels []kernel) *workload {
	w := &workload{name: name, warm: true, stored: map[string]*tensor.COO{}}
	for _, k := range kernels {
		r := &request{kernel: k.name, expr: k.expr, engine: sim.EngineComp,
			sched: lang.Schedule{LoopOrder: k.order}, inputs: k.generate(rng), refs: map[string]string{}}
		for in, t := range r.inputs {
			ref := k.name + "_" + in
			r.refs[in] = ref
			w.stored[ref] = t
		}
		w.requests = append(w.requests, r)
	}
	return w
}

// inlineRoutedKernels: 30–80 KB bodies (≈12 bytes per nonzero on the wire)
// against vectors and factors small enough that decoding, validating and
// binding the operands outweighs running them; the SpM*SpM rows return about
// 60 % of a 90×90 result, ≥ 50 KB.
var inlineRoutedKernels = []kernel{
	{"SpMV", exprSpMV, nil, []operand{{"B", 6000, []int{400, 300}}, {"c", 6, []int{300}}}},
	{"MMAdd", exprMMAdd, nil, []operand{{"B", 2500, []int{200, 200}}, {"C", 2500, []int{200, 200}}}},
	{"Plus3", exprPlus3, nil, []operand{{"B", 1800, []int{200, 200}}, {"C", 1800, []int{200, 200}}, {"D", 1800, []int{200, 200}}}},
	{"Residual", exprResidual, nil, []operand{{"b", 100, []int{400}}, {"C", 6000, []int{400, 300}}, {"d", 6, []int{300}}}},
	{"SDDMM", exprSDDMM, nil, []operand{{"B", 200, []int{200, 200}}, {"C", -1, []int{200, 12}}, {"D", -1, []int{200, 12}}}},
	{"SpM*SpM-ikj", exprSpMSpM, []string{"i", "k", "j"}, []operand{{"B", 1700, []int{90, 400}}, {"C", 1700, []int{400, 90}}}},
}

// inlineRouted: each kernel at opt 0 and 1 is twelve program keys spread
// over two shards by the router's ring, operands inline in every request.
func inlineRouted(rng *rand.Rand) *workload {
	w := &workload{name: "inline-routed", routed: true, warm: true}
	for _, k := range inlineRoutedKernels {
		inputs := k.generate(rng)
		for level := 0; level <= 1; level++ {
			w.requests = append(w.requests, &request{
				kernel: fmt.Sprintf("%s/opt%d", k.name, level), expr: k.expr, engine: sim.EngineComp,
				sched: lang.Schedule{LoopOrder: k.order, Opt: level}, inputs: inputs})
		}
	}
	return w
}

// coldCompileExprs are the statements cold-compile schedules every legal
// way: all loop orders, except that a statement which reduces j over only
// part of itself (Residual, MatTransMul) cannot have j outermost — custard
// refuses the order at par 2 and comp fails on it at par 1.
var coldCompileExprs = []struct {
	name, expr string
	orders     [][]string // nil is every permutation
}{
	{"SpMV", exprSpMV, nil}, {"SpM*SpM", exprSpMSpM, nil}, {"SDDMM", exprSDDMM, nil}, {"InnerProd", exprInnerProd, nil},
	{"TTV", exprTTV, nil}, {"TTM", exprTTM, nil}, {"MTTKRP", exprMTTKRP, nil}, {"Residual", exprResidual, [][]string{{"i", "j"}}},
	{"MatTransMul", exprMatTransMul, [][]string{{"i", "j"}}}, {"MMAdd", exprMMAdd, nil}, {"Plus3", exprPlus3, nil}, {"Plus2", exprPlus2, nil},
}

// coldCompileRenames multiplies the key space: lang.CanonicalKey embeds
// tensor names, so the same statement over renamed tensors is a new program.
const coldCompileRenames = 2

// coldCompile: every (statement, loop order, opt, par, renaming) once per
// cycle — several times the default 128-entry program cache, so the LRU only
// ever inserts and evicts. Operands are tiny (≤ 3 per mode, dense) and inline.
func coldCompile(rng *rand.Rand) *workload {
	w := &workload{name: "cold-compile"}
	for _, ce := range coldCompileExprs {
		e, err := langParse(ce.expr)
		if err != nil {
			panic(err) // the statements are constants of this file
		}
		vars := e.AllVars()
		sort.Strings(vars)
		dim := map[string]int{}
		for i, v := range vars {
			dim[v] = 2 + i%2 // 2 or 3: tiny, and unequal so a swapped mode shows
		}
		for rename := 0; rename < coldCompileRenames; rename++ {
			suffix := ""
			if rename > 0 {
				suffix = fmt.Sprint(rename)
			}
			expr, ops := renamed(e, ce.expr, suffix, dim)
			inputs := kernel{ops: ops}.generate(rng)
			orders := ce.orders
			if orders == nil {
				orders = permutations(vars)
			}
			for _, order := range orders {
				for level := 0; level <= 1; level++ {
					for par := 1; par <= 2; par++ {
						w.requests = append(w.requests, &request{
							kernel: fmt.Sprintf("%s%s/%s/opt%d/par%d", ce.name, suffix, strings.Join(order, ""), level, par),
							expr:   expr, engine: sim.EngineComp,
							sched: lang.Schedule{LoopOrder: order, Opt: level, Par: par}, inputs: inputs})
					}
				}
			}
		}
	}
	// Interleave the statements so neighbouring requests share nothing a
	// compiler cache could exploit; the order is part of the seeded stream.
	rng.Shuffle(len(w.requests), func(i, j int) { w.requests[i], w.requests[j] = w.requests[j], w.requests[i] })
	return w
}

// renamed rewrites a statement with a suffix on every tensor name and sizes
// its operands from the per-variable dimensions, fully populated: comp
// fails to assemble some TTM loop orders' outputs when an operand has empty
// fibers ("level 2 has 8 fibers, want 7"), and no request here may fail.
// Tensor names never collide with index variables in coldCompileExprs, so a
// whole-identifier match is enough.
func renamed(e *lang.Einsum, expr, suffix string, dim map[string]int) (string, []operand) {
	names := []string{e.LHS.Tensor}
	var ops []operand
	seen := map[string]bool{}
	for _, a := range e.Accesses() {
		if seen[a.Tensor] {
			continue
		}
		seen[a.Tensor] = true
		names = append(names, a.Tensor)
		op := operand{name: a.Tensor + suffix}
		for _, v := range a.Idx {
			op.dims = append(op.dims, dim[v])
		}
		op.nnz = -1
		ops = append(ops, op)
	}
	if suffix != "" {
		expr = regexp.MustCompile(`\b(`+strings.Join(names, "|")+`)\b`).ReplaceAllString(expr, "${1}"+suffix)
	}
	return expr, ops
}

func permutations(vars []string) [][]string {
	if len(vars) <= 1 {
		return [][]string{append([]string(nil), vars...)}
	}
	var out [][]string
	for i := range vars {
		rest := append(append([]string(nil), vars[:i]...), vars[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{vars[i]}, p...))
		}
	}
	return out
}

// simulateEvent: Figure 12's three SpM*SpM dataflow classes over one operand
// pair (I=J=250, K=100, 95 % sparse) and SpMV at par 1 and 4, as refs on the
// server's default engine, the cycle-approximate event simulator.
func simulateEvent(rng *rand.Rand) *workload {
	w := &workload{name: "simulate-event", warm: true, stored: map[string]*tensor.COO{}}
	type variant struct {
		label string
		sched lang.Schedule
	}
	add := func(k kernel, variants ...variant) {
		inputs := k.generate(rng)
		refs := map[string]string{}
		for in, t := range inputs {
			refs[in] = k.name + "_" + in
			w.stored[refs[in]] = t
		}
		for _, v := range variants {
			w.requests = append(w.requests, &request{kernel: k.name + "-" + v.label,
				expr: k.expr, sched: v.sched, inputs: inputs, refs: refs})
		}
	}
	add(kernel{"SpM*SpM", exprSpMSpM, nil, []operand{{"B", 1250, []int{250, 100}}, {"C", 1250, []int{100, 250}}}},
		variant{"ikj", lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		variant{"ijk", lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
		variant{"kij", lang.Schedule{LoopOrder: []string{"k", "i", "j"}}})
	add(kernel{"SpMV", exprSpMV, nil, []operand{{"B", 5000, []int{500, 500}}, {"c", 250, []int{500}}}},
		variant{"par1", lang.Schedule{}}, variant{"par4", lang.Schedule{Par: 4}})
	return w
}
