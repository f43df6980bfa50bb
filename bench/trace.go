package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"sam/internal/sim"
)

// span is one timed call into a layer. Spans of one replayed request share
// a trace number; parent is the id of the span that caused this one, -1 for
// a request's root.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing: the untraced replay that prices the tracing itself uses one.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(trace, parent int, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = int64(time.Since(t.epoch))
	}
}

func (t *tracer) write(path string) error {
	out, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// The rungs, in ladder order. Each is a span name and, with a suffix, a
// per-layer metric.
const (
	spanRequest  = "request"
	rungHandler  = "serve.handler"
	rungDecode   = "serve.wire_decode"
	rungParse    = "lang.parse"
	rungKey      = "lang.key"
	rungCustard  = "custard.compile"
	rungOpt      = "opt.optimize"
	rungNewProg  = "sim.newprogram"
	rungCompile  = "comp.compile"
	rungProgEnc  = "prog.encode"
	rungProgDec  = "prog.decode"
	rungProgRun  = "prog.run"
	rungBind     = "bind.operands"
	rungCompRun  = "comp.run"
	rungEventRun = "sim.event_run"
	rungEncode   = "serve.wire_encode"
)

const (
	maxReplays   = 1000 // requests per traced pass: ≥ 200 calls of every rung that applies
	allocSamples = 3    // calls behind each *_allocs reading, per distinct request
	allocKernels = 16   // distinct requests sampled for the *_allocs metrics
)

// ladder replays a workload's stream in process, one rung at a time.
type ladder struct {
	w   *workload
	srv *shard
	// counts sums work per rung — blocks, bytes, cycles — over the first
	// cycle of the stream only, so each is an exact, repeatable count
	// however many replays the time budget allowed.
	counts map[string]float64
	cycles float64      // simulated cycles over every replay, for ns per cycle
	missed map[int]bool // traces whose handler call compiled (a program-cache miss)
	// compiled mirrors the server's program cache for the run rungs: a
	// request the handler served from cache runs on the program an earlier
	// replay compiled, run contexts warm; one the handler compiled for runs
	// on the fresh program, as the server's did.
	compiled map[*request]programs
}

type programs struct {
	comp *compProgram
	byte *byteProgram
}

// newLadder starts the in-process shard the handler rung drives and brings
// it to the same warm state as the real fleet.
func newLadder(w *workload) (*ladder, error) {
	l := &ladder{w: w, srv: newShard(), counts: map[string]float64{}, missed: map[int]bool{}, compiled: map[*request]programs{}}
	err := prime(func(method, path string, body []byte) (int, []byte, error) {
		status, out := handle(l.srv, method, path, body)
		return status, out, nil
	}, w)
	if err != nil {
		l.close()
		return nil, fmt.Errorf("in-process set-up: %w", err)
	}
	return l, nil
}

func (l *ladder) close() { l.srv.Close() }

// replay runs one request down the ladder: the whole handler first, then
// each layer's function on its own, every call inside a span under the
// request's root. Rungs the request's engine never reaches are skipped, so
// their rows stay empty instead of timing code the workload does not run.
func (l *ladder) replay(t *tracer, trace int, r *request) (err error) {
	root := t.start(trace, -1, spanRequest)
	defer t.end(root)
	rung := ""
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %s: %w", r.kernel, rung, err)
		}
	}()
	begin := func(name string) int { rung = name; return t.start(trace, root, name) }
	count := func(name string, v int) {
		if trace < len(l.w.requests) {
			l.counts[name] += float64(v)
		}
	}

	id := begin(rungHandler)
	status, reply := handle(l.srv, http.MethodPost, evaluatePath, r.body)
	t.end(id)
	if err = r.verify(status, reply, false); err != nil {
		return err
	}
	if bytes.Contains(reply, []byte(`"cache":"miss"`)) {
		l.missed[trace] = true
	}

	id = begin(rungDecode)
	_, err = wireDecode(r.body)
	t.end(id)
	if err != nil {
		return err
	}
	count("serve.request_bytes", len(r.body))

	id = begin(rungParse)
	e, err := langParse(r.expr)
	t.end(id)
	if err != nil {
		return err
	}
	id = begin(rungKey)
	langKey(e, r.sched)
	t.end(id)

	id = begin(rungCustard)
	g, err := custardCompile(e, r.sched)
	t.end(id)
	if err != nil {
		return err
	}
	count("custard.blocks", len(g.Nodes))

	id = begin(rungOpt)
	optimized, removed, err := optOptimize(g)
	t.end(id)
	if err != nil {
		return err
	}
	count("opt.blocks_removed", removed)
	if r.sched.Opt > 0 {
		g = optimized
	}

	id = begin(rungNewProg)
	p, err := simNewProgram(g)
	t.end(id)
	if err != nil {
		return err
	}

	out := r.gold
	if r.engine == sim.EngineComp {
		id = begin(rungCompile)
		cp, err := compCompile(g)
		t.end(id)
		if err != nil {
			return err
		}
		id = begin(rungProgEnc)
		enc, err := progEncode(g)
		t.end(id)
		if err != nil {
			return err
		}
		count("prog.artifact_bytes", len(enc))
		id = begin(rungProgDec)
		bp, err := progDecode(enc)
		t.end(id)
		if err != nil {
			return err
		}
		if warm, ok := l.compiled[r]; ok && !l.missed[trace] {
			cp, bp = warm.comp, warm.byte
		} else {
			l.compiled[r] = programs{cp, bp}
		}
		id = begin(rungProgRun)
		_, err = progRun(bp, r.inputs)
		t.end(id)
		if err != nil {
			return err
		}
		id = begin(rungBind)
		bound, err := bindOperands(g, r.inputs)
		t.end(id)
		if err != nil {
			return err
		}
		dims, err := outputDims(g, r.inputs)
		if err != nil {
			return err
		}
		id = begin(rungCompRun)
		out, err = compRun(cp, bound, dims)
		t.end(id)
		if err != nil {
			return err
		}
	} else {
		id = begin(rungBind)
		_, err = bindOperands(g, r.inputs)
		t.end(id)
		if err != nil {
			return err
		}
		id = begin(rungEventRun)
		res, err := eventRun(p, r.inputs)
		t.end(id)
		if err != nil {
			return err
		}
		out = res.Output
		count("sim.event_cycles", res.Cycles)
		l.cycles += float64(res.Cycles)
		if want := r.want.Load(); want != nil && int64(res.Cycles) != want.cycles {
			return fmt.Errorf("simulated %d cycles in process but %d behind HTTP", res.Cycles, want.cycles)
		}
	}

	resp, err := decodeResponse(reply)
	if err != nil {
		return err
	}
	resp.Output = wireTensor(out)
	id = begin(rungEncode)
	encoded, err := wireEncode(resp)
	t.end(id)
	if err != nil {
		return err
	}
	count("serve.response_bytes", len(encoded))
	return nil
}

// pass replays the stream from its start: at least atLeast requests, then
// on until budget is spent, and never more than limit.
func (l *ladder) pass(t *tracer, atLeast int, budget time.Duration, limit int) (int, error) {
	t0 := time.Now()
	n := 0
	for ; n < limit && (n < atLeast || time.Since(t0) < budget); n++ {
		if err := l.replay(t, n, l.w.requests[n%len(l.w.requests)]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// mallocs is the mean number of heap allocations of one call of f.
func mallocs(f func()) float64 {
	f() // pools and lazily built state fill on the first call
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocSamples; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocSamples
}

// allocs measures the *_allocs metrics: mallocs per call, averaged over the
// first distinct requests of the stream.
func (l *ladder) allocs() (map[string]float64, error) {
	sums := map[string]float64{}
	n := min(len(l.w.requests), allocKernels)
	for _, r := range l.w.requests[:n] {
		e, err := langParse(r.expr)
		if err != nil {
			return nil, err
		}
		g, err := custardCompile(e, r.sched)
		if err != nil {
			return nil, err
		}
		if r.sched.Opt > 0 {
			if g, _, err = optOptimize(g); err != nil {
				return nil, err
			}
		}
		sums["serve.handler_allocs"] += mallocs(func() { handle(l.srv, http.MethodPost, evaluatePath, r.body) })
		sums["serve.wire_decode_allocs"] += mallocs(func() { wireDecode(r.body) })
		sums["bind.operands_allocs"] += mallocs(func() { bindOperands(g, r.inputs) })
		if r.engine != sim.EngineComp {
			continue
		}
		cp, err := compCompile(g)
		if err != nil {
			return nil, err
		}
		bound, err := bindOperands(g, r.inputs)
		if err != nil {
			return nil, err
		}
		dims, err := outputDims(g, r.inputs)
		if err != nil {
			return nil, err
		}
		sums["comp.run_allocs"] += mallocs(func() { compRun(cp, bound, dims) })
	}
	for k := range sums {
		sums[k] /= float64(n)
	}
	return sums, nil
}

// ladderResult is what the traced pass measured.
type ladderResult struct {
	rungs   map[string]summary // µs per call, by rung
	self    summary            // serve.self_us
	metrics metrics            // the per-layer metrics this pass owns
}

// runLadder is the traced pass: the *_allocs readings, a short paired
// replay that prices the tracer, then the traced replay proper, whose spans
// go to spansPath. A rung the workload never reaches leaves no metric.
func runLadder(w *workload, budget time.Duration, spansPath string) (*ladderResult, error) {
	l, err := newLadder(w)
	if err != nil {
		return nil, err
	}
	defer l.close()
	allocs, err := l.allocs()
	if err != nil {
		return nil, fmt.Errorf("%s: allocs: %w", w.name, err)
	}

	// Price the tracer on identical work: each of the first requests is
	// replayed twice back to back, spans off and spans on, the order
	// alternating so neither side always runs on the warmer caches.
	var plain, traced time.Duration
	probe := newTracer()
	for i, t0 := 0, time.Now(); i < min(len(w.requests), 8) || time.Since(t0) < budget/4; i++ {
		r := w.requests[i%len(w.requests)]
		order := [2]*tracer{nil, probe}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, t := range order {
			t1 := time.Now()
			if err := l.replay(t, i, r); err != nil {
				return nil, err
			}
			if t == nil {
				plain += time.Since(t1)
			} else {
				traced += time.Since(t1)
			}
		}
	}
	l.counts, l.cycles, l.missed = map[string]float64{}, 0, map[int]bool{}

	// One full cycle of the stream at least, so the counts cover every
	// distinct request exactly once.
	t := newTracer()
	replays, err := l.pass(t, len(w.requests), budget*3/4, max(maxReplays, len(w.requests)))
	if err != nil {
		return nil, err
	}
	if err := t.write(spansPath); err != nil {
		return nil, err
	}

	res := &ladderResult{rungs: map[string]summary{}, metrics: metrics{}}
	us := func(s span) float64 { return float64(s.EndNS-s.StartNS) / 1e3 }
	byRung := map[string][]float64{}
	perTrace := make([]map[string]float64, replays)
	for _, s := range t.spans {
		if s.Name == spanRequest {
			perTrace[s.Trace] = map[string]float64{}
			continue
		}
		byRung[s.Name] = append(byRung[s.Name], us(s))
		perTrace[s.Trace][s.Name] = us(s)
	}
	for name, xs := range byRung {
		res.rungs[name] = summarize(xs)
	}

	// What the handler must itself have paid of each rung: compile rungs
	// only on a program-cache miss, binding only for inline operands (a
	// stored ref hits the bind memo).
	var handler, engine, wire, compile, bindSum float64
	var selfs []float64
	for i, tr := range perTrace {
		r := w.requests[i%len(w.requests)]
		e := tr[rungCompRun] + tr[rungEventRun]
		wi := tr[rungDecode] + tr[rungEncode]
		var c, b float64
		if l.missed[i] {
			c = tr[rungCustard] + tr[rungNewProg] + tr[rungCompile]
			if r.sched.Opt > 0 {
				c += tr[rungOpt]
			}
		}
		if r.refs == nil {
			b = tr[rungBind]
		}
		if r.engine != sim.EngineComp {
			b = 0 // the event rung binds inside the engine call
		}
		handler += tr[rungHandler]
		engine, wire, compile, bindSum = engine+e, wire+wi, compile+c, bindSum+b
		selfs = append(selfs, tr[rungHandler]-(e+wi+c+b+tr[rungParse]+tr[rungKey]))
	}
	res.self = summarize(selfs)

	m := res.metrics
	for name := range byRung {
		m[name+"_us"] = res.rungs[name].Median
	}
	m["serve.self_us"] = res.self.Median
	for name, v := range allocs {
		m[name] = v
	}
	// Means per request and totals over one cycle of the stream.
	for _, name := range []string{"serve.request_bytes", "serve.response_bytes", "prog.artifact_bytes"} {
		m[name] = l.counts[name] / float64(len(w.requests))
	}
	for _, name := range []string{"custard.blocks", "opt.blocks_removed", "sim.event_cycles"} {
		m[name] = l.counts[name]
	}
	if l.cycles > 0 {
		m["sim.event_ns_per_cycle"] = res.rungs[rungEventRun].Sum * 1e3 / l.cycles
	}
	m["share.engine"] = engine / handler
	m["share.wire"] = wire / handler
	m["share.compile"] = compile / handler
	m["share.bind"] = bindSum / handler
	m["bench.trace_overhead_pct"] = 100 * (float64(traced) - float64(plain)) / float64(plain)
	return res, nil
}
