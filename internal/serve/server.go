// Package serve is the SAM program service: a compiled-program LRU cache, an
// admission-controlled asynchronous job queue over a fixed worker pool, and
// an HTTP/JSON API. It inverts the one-shot sam.Simulate flow into the
// paper's intended usage — a SAM graph is a hardware program: compile once,
// stream many tensors through it — so repeated requests pay input binding
// and net construction only, never re-parsing or re-compilation.
//
// Endpoints:
//
//	POST /v1/evaluate   synchronous evaluation (admitted through the queue)
//	POST /v1/jobs       asynchronous submission; returns a job id
//	GET  /v1/jobs/{id}  job status and result
//	GET  /v1/stats      cache, queue, cycle, and latency counters
//	GET  /metrics       the same counters as Prometheus text exposition
//
// Observability: every request is counted and timed per endpoint and status
// in a labeled metrics registry (internal/obs) that both /metrics and
// /v1/stats render; `?trace=1` on the evaluation endpoints records a
// phase-span breakdown (decode, admission, queue wait, bind, run, assemble)
// returned in the response, and Config.EnablePprof mounts net/http/pprof
// under /debug/pprof/.
//
// Backpressure is explicit: when the bounded queue is full, both entry
// points reject immediately with 429 rather than queueing unboundedly.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/obs"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// Config sizes the service.
type Config struct {
	// Workers is the job-queue worker pool size; each worker runs one job at
	// a time, so it is the number of jobs in flight. Default 4.
	Workers int
	// QueueDepth bounds the number of admitted-but-not-running jobs;
	// submissions beyond it are rejected with 429. Default 64.
	QueueDepth int
	// CacheSize bounds the compiled-program LRU. Default 128.
	CacheSize int
	// MaxBodyBytes bounds the request body; oversized payloads are rejected
	// with 413 before decoding. Default 8 MiB.
	MaxBodyBytes int64
	// TensorBudgetBytes bounds the named tensor store's estimated resident
	// bytes (PUT /v1/tensors/{name}): least-recently-used tensors not
	// pinned by queued or running jobs are evicted beyond it, and a single
	// tensor larger than the whole budget is rejected with 413. Default
	// 256 MiB.
	TensorBudgetBytes int64
	// ArtifactDir, when non-empty, enables the persistent on-disk program
	// cache: compiled programs are written as portable artifacts
	// (internal/prog) keyed by canonical request key and format version, and
	// comp-engine requests that miss the in-memory LRU are served by
	// decoding the artifact instead of recompiling — a cold process with a
	// warm disk skips parsing (beyond keying), custard and lowering. Empty disables the disk cache (the default).
	ArtifactDir string
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose internals and belong
	// behind an explicit flag (samserve -pprof).
	EnablePprof bool
	// AccessLog, when non-nil, receives one structured line per HTTP
	// request: method, path, status, canonical program key, engine, cache
	// tier, duration, and trace ID (samserve -logrequests wires stderr).
	AccessLog io.Writer
	// WarmupExprs are statements pre-compiled into the program cache before
	// the server reports ready: GET /readyz answers 503 until every listed
	// expression is compiled (default schedule), so a router
	// or load balancer only sends traffic once the cache is hot. Expressions
	// that fail to compile are skipped (reported via AccessLog) — a typo'd
	// warm list must not wedge the shard unready forever.
	WarmupExprs []string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.TensorBudgetBytes <= 0 {
		c.TensorBudgetBytes = 256 << 20
	}
	return c
}

// finishedCap bounds how many completed job records the server retains for
// GET /v1/jobs/{id}; the oldest are dropped beyond it. A variable, not a
// constant, so the archive test can shrink the window to an exercisable
// size.
var finishedCap = 4096

// Server is one SAM program service instance. Create it with NewServer,
// mount it as an http.Handler, and Close it to drain gracefully.
type Server struct {
	cfg     Config
	cache   *programCache
	disk    *diskCache // nil unless Config.ArtifactDir is set
	tensors *tensorStore
	queue   *queue
	metrics *metrics
	mux     *http.ServeMux

	nextID atomic.Int64

	// ready flips once warm-up completes; draining flips when Close begins.
	// GET /readyz reports 200 only in the window between the two — the
	// shard's traffic-eligible lifetime as probes see it.
	ready    atomic.Bool
	draining atomic.Bool

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string
}

// job is one admitted evaluation travelling through the queue.
type job struct {
	id    string
	prep  *prepared
	start time.Time
	done  chan struct{} // closed after resp/errMsg and status are final
	// qw is the queue-wait span of a traced job (inert otherwise), started
	// at admission and ended when a worker picks the job up.
	qw obs.Span
	// sync marks a synchronous /v1/evaluate job: its id is never returned
	// to the caller, so it is never registered for polling and its record
	// (and output tensor) is dropped on completion instead of being
	// archived for GET /v1/jobs/{id}.
	sync bool
	// fx is set by the fixpoint runner before finish, for the response.
	fx *FixpointInfo

	// status, resp and errMsg are guarded by Server.mu.
	status string
	resp   *EvaluateResponse
	errMsg string
}

// prepared is a validated, program-resolved request ready to simulate.
type prepared struct {
	prog   *sim.Program
	inputs map[string]*tensor.COO
	opt    sim.Options
	engine string
	// key is the canonical program-cache key, surfaced in access logs.
	key string
	// cache records where the program came from: "hit" (in-memory LRU),
	// "disk" (decoded from the artifact store), or "miss" (compiled).
	cache string
	// begin anchors the request's total latency (ElapsedNS): the moment the
	// handler started on the body, so traced phase spans — decode and
	// admission included — sum to within it.
	begin time.Time
	setup time.Duration
	// refs maps each {"ref": name} input to the stored entry that resolved
	// it. Entries are pinned from resolution until finish (or admission
	// failure), keeping them safe from eviction while the job is queued or
	// running; their version and fingerprint stamp the response.
	refs map[string]*storedTensor
	// fix is the validated fixpoint spec; nil for one-shot evaluation.
	fix *sim.Fixpoint
}

// request is one evaluation body after the decode phase: the wire request
// and every inline operand already converted, so that all per-nonzero work
// on a request's bytes sits in one place (and under one trace span).
type request struct {
	wire EvaluateRequest
	// operands holds, per inline input, its COO form or the validation
	// error decodeInputs reports if the statement references that input.
	operands map[string]operand
	begin    time.Time
}

type operand struct {
	coo *tensor.COO
	err error
}

// convertOperands runs toCOO over every inline input.
func (req *request) convertOperands() {
	req.operands = make(map[string]operand, len(req.wire.Inputs))
	for name, wt := range req.wire.Inputs {
		if wt.Ref == "" {
			coo, err := wt.toCOO(name)
			req.operands[name] = operand{coo, err}
		}
	}
}

// NewServer builds a service with the given sizing; zero fields take
// defaults.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		jobs:    map[string]*job{},
	}
	s.cache = newProgramCache(cfg.CacheSize, s.metrics)
	if cfg.ArtifactDir != "" {
		s.disk = newDiskCache(cfg.ArtifactDir, s.metrics)
	}
	s.tensors = newTensorStore(cfg.TensorBudgetBytes, s.metrics)
	s.queue = newQueue(cfg.Workers, cfg.QueueDepth, s.runJob)
	// Live gauges read their sources at scrape time, no update plumbing.
	s.metrics.reg.GaugeFunc("sam_queue_depth", "Admitted jobs waiting or running in the queue.",
		func() float64 { return float64(s.queue.depth()) })
	s.metrics.reg.GaugeFunc("sam_queue_running", "Admitted jobs currently executing on a worker.",
		func() float64 { return float64(s.queue.running()) })
	s.metrics.reg.GaugeFunc("sam_cache_programs", "Compiled programs resident in the in-memory LRU.",
		func() float64 { _, _, _, size := s.cache.stats(); return float64(size) })
	s.metrics.reg.GaugeFunc("sam_tensor_store_tensors", "Named tensors resident in the store.",
		func() float64 { n, _ := s.tensors.size(); return float64(n) })
	s.metrics.reg.GaugeFunc("sam_tensor_store_bytes", "Estimated resident bytes of stored tensors, as charged to the budget.",
		func() float64 { _, b := s.tensors.size(); return float64(b) })
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.instrument("/v1/evaluate", s.handleEvaluate))
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJob))
	mux.HandleFunc("PUT /v1/tensors/{name}", s.instrument("/v1/tensors/{name}", s.handleTensorPut))
	mux.HandleFunc("GET /v1/tensors/{name}", s.instrument("/v1/tensors/{name}", s.handleTensorGet))
	mux.HandleFunc("DELETE /v1/tensors/{name}", s.instrument("/v1/tensors/{name}", s.handleTensorDelete))
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	if len(cfg.WarmupExprs) == 0 {
		s.ready.Store(true)
	} else {
		// Warm up off the constructor: NewServer returns immediately and the
		// readiness probe holds traffic back until the cache is hot.
		go s.warmup(cfg.WarmupExprs)
	}
	return s
}

// warmup resolves each expression's program (default schedule)
// exactly as a request for it would, then marks the server ready. Failures
// are skipped after logging: readiness gates on the work finishing, not on
// every expression being valid.
func (s *Server) warmup(exprs []string) {
	for _, src := range exprs {
		p, err := (&EvaluateRequest{Expr: src}).plan()
		if err == nil {
			_, _, err = s.resolve(p, obs.Span{})
		}
		if err != nil && s.cfg.AccessLog != nil {
			fmt.Fprintf(s.cfg.AccessLog, "warmup expr=%q error=%q\n", src, err)
		}
	}
	s.ready.Store(true)
}

// handleHealthz is the liveness probe: the process is up and serving HTTP.
// Distinct from readiness — a draining shard is still alive (it must finish
// its queue) but must not receive new traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ProbeResponse{Status: "ok"})
}

// handleReadyz is the readiness probe: 200 only after warm-up hooks finish
// and before drain begins. Routers and load balancers key shard liveness on
// this endpoint, so flipping it is how a shard takes itself out of rotation
// without dropping in-flight work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, ProbeResponse{Status: "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, ProbeResponse{Status: "warming"})
	default:
		writeJSON(w, http.StatusOK, ProbeResponse{Status: "ready"})
	}
}

// reqInfo wraps a ResponseWriter to capture the status code and per-request
// details (canonical key, engine, cache tier, trace ID) that handlers fill
// in for the access log.
type reqInfo struct {
	http.ResponseWriter
	status  int
	key     string
	engine  string
	cache   string
	traceID string
}

func (ri *reqInfo) WriteHeader(code int) {
	if ri.status == 0 {
		ri.status = code
	}
	ri.ResponseWriter.WriteHeader(code)
}

// note records the evaluation details on the wrapped writer, if the handler
// is running under instrument (tests may call handlers bare).
func note(w http.ResponseWriter, prep *prepared) {
	ri, ok := w.(*reqInfo)
	if !ok {
		return
	}
	ri.key, ri.engine, ri.cache = prep.key, prep.engine, prep.cache
	ri.traceID = prep.opt.Trace.ID()
}

// instrument wraps a handler with per-endpoint observability: request count
// by status, latency histogram, and the optional access log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		ri := &reqInfo{ResponseWriter: w}
		h(ri, r)
		if ri.status == 0 {
			ri.status = http.StatusOK
		}
		d := time.Since(begin)
		s.metrics.httpRequests.With(endpoint, strconv.Itoa(ri.status)).Inc()
		s.metrics.reqDur.With(endpoint).Observe(d.Seconds())
		if s.cfg.AccessLog != nil {
			fmt.Fprintf(s.cfg.AccessLog,
				"method=%s path=%s status=%d key=%q engine=%s cache=%s dur_ms=%.3f trace=%s\n",
				r.Method, r.URL.Path, ri.status, ri.key, ri.engine, ri.cache,
				float64(d)/float64(time.Millisecond), ri.traceID)
		}
	}
}

// handleMetrics serves the registry as Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the job queue: the readiness probe flips to 503 first (so
// routers stop sending traffic), then admission stops (new submissions get
// 503) and every queued and running job finishes before Close returns.
func (s *Server) Close() {
	s.draining.Store(true)
	s.queue.drain()
}

// compile builds a plan's program from source.
func (p *plan) compile() (*sim.Program, error) {
	g, err := custard.Compile(p.e, p.formats, p.sched)
	if err != nil {
		return nil, err
	}
	return sim.NewProgram(g)
}

// resolve finds a plan's program and reports where: "hit" (the in-memory
// LRU), "disk" (a decoded artifact), or "miss" (compiled now, and written
// behind to the artifact store). The cache dedups concurrent cold requests
// per key: the build below runs at most once however many requests miss
// together; waiters spend their cache_lookup span blocked on the leader's
// build. adm, when active, gets the lookup, disk_load and compile children.
func (s *Server) resolve(p *plan, adm obs.Span) (*sim.Program, string, error) {
	lookup := adm.Child("cache_lookup")
	defer lookup.End()
	return s.cache.resolve(p.key, func() (*sim.Program, string, error) {
		// Comp-engine requests can be served straight off a persisted
		// artifact: decoding replaces custard and lowering.
		// The cycle engines need the source graph, so they skip the disk.
		if s.disk != nil && p.opt.Engine == sim.EngineComp {
			dl := adm.Child("disk_load")
			prog, ok := s.disk.load(p.key)
			dl.End()
			if ok {
				return prog, "disk", nil
			}
		}
		cs := adm.Child("compile")
		prog, err := p.compile()
		cs.End()
		if err != nil {
			return nil, "", err
		}
		if s.disk != nil {
			// Write-behind the artifact so a later cold process (or this
			// one after eviction) can skip the compile we just paid.
			// Best-effort: a failed write counts in disk_errors. Every
			// graph a request can build lowers to comp, so each one has an
			// artifact form.
			s.disk.store(p.key, prog)
		}
		return prog, "miss", nil
	})
}

// prepare validates a request and resolves its compiled program through the
// cache. The returned setup duration covers the plan (parse and
// canonicalization) and — on a miss — compilation and program construction:
// the cost the cache amortizes. tr, when non-nil, gets an "admission" span
// with children for the cache lookup and the compile or artifact decode; the
// same trace rides Options.Trace into the engine for its phase spans.
func (s *Server) prepare(decoded *request, tr *obs.Trace) (*prepared, error) {
	req := &decoded.wire
	begin := time.Now()
	adm := tr.Start("admission")
	defer adm.End()
	p, err := req.plan()
	if err != nil {
		return nil, err
	}
	opt := p.opt
	prog, source, err := s.resolve(p, adm)
	if err != nil {
		return nil, err
	}

	if err := prog.CheckEngine(opt.Engine); err != nil {
		// Self-heal: an artifact-backed program (loaded from disk by an
		// earlier comp request) cannot serve the cycle engines — but the
		// request carries the source, so recompile and replace the cached
		// entry instead of bouncing the caller.
		if prog.Graph() != nil {
			return nil, err
		}
		cs := adm.Child("compile")
		var cerr error
		prog, cerr = p.compile()
		cs.End()
		if cerr != nil {
			return nil, cerr
		}
		s.cache.put(p.key, prog)
		source = "miss"
		if err := prog.CheckEngine(opt.Engine); err != nil {
			return nil, err
		}
	}
	fix, err := req.Fixpoint.toFixpoint()
	if err != nil {
		return nil, err
	}
	setup := time.Since(begin)
	inputs, refs, err := s.decodeInputs(p.e, decoded)
	if err != nil {
		return nil, err
	}
	// decodeInputs pinned every resolved ref; from here until the prepared
	// request is handed off, any rejection must release them.
	if fix != nil {
		t, ok := inputs[fix.Var]
		if !ok {
			s.unpinRefs(refs)
			return nil, fmt.Errorf("fixpoint var %q is not an input of %s", fix.Var, p.e)
		}
		if t.Order() != 1 {
			s.unpinRefs(refs)
			return nil, fmt.Errorf("fixpoint var %q has order %d, want an order-1 vector", fix.Var, t.Order())
		}
	}
	engine := string(opt.Engine)
	if engine == "" {
		engine = string(sim.EngineEvent)
	}
	opt.Trace = tr
	if len(refs) > 0 {
		// Stored operands are immutable, so their built fibertrees are
		// memoizable: warm references skip binding entirely.
		opt.BindCache = s.tensors
	}
	return &prepared{
		prog: prog, inputs: inputs, opt: opt, engine: engine,
		key: p.key, cache: source, begin: decoded.begin, setup: setup,
		refs: refs, fix: fix,
	}, nil
}

// unpinRefs releases every stored-tensor pin a prepared request holds.
func (s *Server) unpinRefs(refs map[string]*storedTensor) {
	for _, e := range refs {
		s.tensors.unpin(e)
	}
}

// decodeInputs validates a request's inputs against the statement: every
// access needs an input of matching order, dimensions must agree across
// shared index variables, and unused inputs are rejected. Inline inputs were
// converted in the decode phase; a conversion error surfaces here, in the
// access order it always has. An input carrying {"ref": name} resolves
// against the tensor store — its stored COO is shared read-only with the
// job, the entry is pinned against eviction until the job finishes, and the
// returned refs map records the resolved entries for unpinning and response
// stamping. On error every pin already taken is released.
func (s *Server) decodeInputs(e *lang.Einsum, req *request) (map[string]*tensor.COO, map[string]*storedTensor, error) {
	wire := req.wire.Inputs
	inputs := make(map[string]*tensor.COO, len(wire))
	var refs map[string]*storedTensor
	fail := func(err error) (map[string]*tensor.COO, map[string]*storedTensor, error) {
		s.unpinRefs(refs)
		return nil, nil, err
	}
	used := map[string]bool{}
	varDim := map[string]int{}
	for _, a := range e.Accesses() {
		wt, ok := wire[a.Tensor]
		if !ok {
			return fail(fmt.Errorf("no input for tensor %q", a.Tensor))
		}
		dims := wt.Dims
		if wt.Ref != "" {
			if wt.inline() {
				return fail(fmt.Errorf("input %q carries both a ref and inline data", a.Tensor))
			}
			ent := refs[a.Tensor]
			if ent == nil {
				ent, ok = s.tensors.resolve(wt.Ref)
				if !ok {
					return fail(fmt.Errorf("input %q: no stored tensor %q (upload it with PUT /v1/tensors/%s)", a.Tensor, wt.Ref, wt.Ref))
				}
				if refs == nil {
					refs = map[string]*storedTensor{}
				}
				refs[a.Tensor] = ent
			}
			dims = ent.coo.Dims
		}
		if len(dims) != len(a.Idx) {
			return fail(fmt.Errorf("input %q has order %d, access %s wants order %d", a.Tensor, len(dims), a, len(a.Idx)))
		}
		for m, v := range a.Idx {
			if d, seen := varDim[v]; seen && d != dims[m] {
				return fail(fmt.Errorf("index %q is dimension %d in one access but %d in %s", v, d, dims[m], a))
			}
			varDim[v] = dims[m]
		}
		used[a.Tensor] = true
		if _, done := inputs[a.Tensor]; done {
			continue
		}
		if wt.Ref != "" {
			inputs[a.Tensor] = refs[a.Tensor].coo
			continue
		}
		op := req.operands[a.Tensor]
		if op.err != nil {
			return fail(op.err)
		}
		inputs[a.Tensor] = op.coo
	}
	for name := range wire {
		if !used[name] {
			return fail(fmt.Errorf("input %q is not referenced by %s", name, e))
		}
	}
	return inputs, refs, nil
}

// admit enqueues a prepared request and, for async jobs, registers it for
// polling — only after the queue accepted it. Registering first opened a
// race: a fast GET /v1/jobs/{id} could observe a job whose submission was
// then rejected, a ghost that 404s moments later even though its id was
// never returned to any client. Registration and submission share one
// critical section, so a worker cannot observe (or finish) a job before it
// is registered; sync jobs are never registered at all — their id never
// leaves the server.
func (s *Server) admit(prep *prepared, sync bool) (*job, error) {
	j := &job{
		id:     "j" + strconv.FormatInt(s.nextID.Add(1), 10),
		prep:   prep,
		start:  time.Now(),
		done:   make(chan struct{}),
		status: "queued",
		sync:   sync,
	}
	j.qw = prep.opt.Trace.Start("queue_wait")
	s.mu.Lock()
	err := s.queue.submit(j)
	if err == nil && !sync {
		s.jobs[j.id] = j
	}
	s.mu.Unlock()
	if err != nil {
		j.qw.End()
		s.metrics.rejected.Inc()
		s.unpinRefs(prep.refs)
		return nil, err
	}
	s.metrics.admitted.Inc()
	s.metrics.phase("setup", prep.setup)
	return j, nil
}

// runJob executes one admitted job on the calling worker's goroutine.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.status = "running"
	s.mu.Unlock()
	j.qw.End()
	s.metrics.phase("queue_wait", time.Since(j.start))

	if j.prep.fix != nil {
		s.runFixpointJob(j)
		return
	}
	res, err := j.prep.prog.Run(j.prep.inputs, j.prep.opt)
	if err != nil {
		s.finish(j, nil, j.id+": "+err.Error())
		return
	}
	s.finish(j, res, "")
}

// runFixpointJob drives one fixpoint request through sim.RunFixpoint. The
// per-iteration cost is exactly what the store amortizes: no re-upload, no
// re-compile, and — for stored refs — no re-bind of the static operands.
func (s *Server) runFixpointJob(j *job) {
	fr, err := sim.RunFixpoint(j.prep.prog, j.prep.inputs, *j.prep.fix, j.prep.opt)
	if err != nil {
		s.finish(j, nil, err.Error())
		return
	}
	j.fx = &FixpointInfo{Iterations: fr.Iterations, Converged: fr.Converged, Deltas: fr.Deltas}
	s.finish(j, &sim.Result{Cycles: fr.Cycles, Output: fr.Output}, "")
}

// refStamps renders a prepared request's resolved stored tensors for the
// response.
func refStamps(refs map[string]*storedTensor) map[string]TensorRef {
	if len(refs) == 0 {
		return nil
	}
	out := make(map[string]TensorRef, len(refs))
	for name, e := range refs {
		out[name] = TensorRef{Version: e.version, Fingerprint: e.fp}
	}
	return out
}

// finish publishes a job's outcome and records metrics.
func (s *Server) finish(j *job, res *sim.Result, errMsg string) {
	// Total latency is anchored at prepare, not admission, so a traced
	// request's spans (admission included) sum to within it.
	elapsed := time.Since(j.prep.begin)
	tr := j.prep.opt.Trace
	var out WireTensor
	if res != nil {
		s.metrics.phases(res.Phases)
		out = ToWire(res.Output)
		if err := checkFinite(&out); err != nil {
			errMsg = err.Error()
		}
	}
	s.mu.Lock()
	if errMsg != "" {
		j.status = "failed"
		j.errMsg = errMsg
	} else {
		s.metrics.engineRuns.With(j.prep.engine).Inc()
		j.status = "done"
		j.resp = &EvaluateResponse{
			Cycles:      res.Cycles,
			Output:      out,
			Fingerprint: j.prep.prog.Fingerprint(),
			Cache:       j.prep.cache,
			Engine:      j.prep.engine,
			SetupNS:     j.prep.setup.Nanoseconds(),
			ElapsedNS:   elapsed.Nanoseconds(),
			TraceID:     tr.ID(),
			Trace:       tr.Spans(),
			Tensors:     refStamps(j.prep.refs),
			Fixpoint:    j.fx,
		}
	}
	if j.sync {
		// The waiting handler holds the job pointer; nobody can poll a
		// sync job by id, so don't pin its output in the registry.
		delete(s.jobs, j.id)
	} else {
		s.finished = append(s.finished, j.id)
		for len(s.finished) > finishedCap {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
	}
	s.mu.Unlock()
	// The job is done either way: release its stored-tensor pins so the
	// entries become evictable again.
	s.unpinRefs(j.prep.refs)
	if errMsg != "" {
		s.metrics.failures.Inc()
		s.metrics.observe(elapsed, 0)
	} else {
		s.metrics.observe(elapsed, res.Cycles)
	}
	close(j.done)
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Requests       int64 `json:"requests"`
	Rejected       int64 `json:"rejected"`
	Failures       int64 `json:"failures"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CachePrograms  int   `json:"cache_programs"`
	// Disk* report the persistent artifact store (Config.ArtifactDir): hits
	// are programs decoded from disk instead of compiled, misses are lookups
	// that fell through to the compiler, writes are artifacts persisted, and
	// errors count corrupt/unwritable files (corrupt artifacts are deleted
	// and recount as misses). All zero when the disk cache is disabled.
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	DiskWrites int64 `json:"disk_writes"`
	DiskErrors int64 `json:"disk_errors"`
	// Tensors* report the named operand store (PUT /v1/tensors/{name}):
	// resident entries and estimated bytes, uploads, deletes, {"ref": name}
	// resolutions by outcome, budget evictions, and the memoized-binding
	// split — bind hits reuse a fibertree built by an earlier run, bind
	// builds paid construction and cached the result.
	TensorsStored     int   `json:"tensors_stored"`
	TensorsBytes      int64 `json:"tensors_bytes"`
	TensorsPuts       int64 `json:"tensors_puts"`
	TensorsDeletes    int64 `json:"tensors_deletes"`
	TensorsRefHits    int64 `json:"tensors_ref_hits"`
	TensorsRefMisses  int64 `json:"tensors_ref_misses"`
	TensorsEvictions  int64 `json:"tensors_evictions"`
	TensorsBindHits   int64 `json:"tensors_bind_hits"`
	TensorsBindBuilds int64 `json:"tensors_bind_builds"`
	// QueueDepth counts admitted jobs still waiting or running;
	// QueueRunning is its executing-on-a-worker component.
	QueueDepth      int     `json:"queue_depth"`
	QueueRunning    int     `json:"queue_running"`
	Workers         int     `json:"workers"`
	CyclesSimulated int64   `json:"cycles_simulated"`
	LatencyP50MS    float64 `json:"latency_p50_ms"`
	LatencyP99MS    float64 `json:"latency_p99_ms"`
	// EngineRuns counts completed requests by the engine that executed
	// them.
	EngineRuns map[string]int64 `json:"engine_runs"`
	// LatencyHist is the completed-job latency histogram in mergeable form:
	// a router aggregating shards sums the bucket counts element-wise and
	// derives fleet-wide percentiles from the merged buckets, the only
	// correct way to combine percentiles across nodes.
	LatencyHist *HistogramSnapshot `json:"latency_hist,omitempty"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() StatsResponse {
	m := s.metrics
	hits, misses, evictions, size := s.cache.stats()
	resp := StatsResponse{
		Requests: m.admitted.Value(), Rejected: m.rejected.Value(), Failures: m.failures.Value(),
		CacheHits: hits, CacheMisses: misses, CacheEvictions: evictions,
		CachePrograms: size, QueueDepth: s.queue.depth(), QueueRunning: s.queue.running(),
		Workers:         s.cfg.Workers,
		CyclesSimulated: m.cycles.Value(),
		// Cumulative since start and accurate to bucket resolution: the
		// estimator the router applies to the merged buckets of its fleet.
		LatencyP50MS: m.jobLat.Quantile(0.50) * 1000, LatencyP99MS: m.jobLat.Quantile(0.99) * 1000,
		EngineRuns: m.engines(), LatencyHist: m.latencyHist(),
	}
	s.tensors.stats(&resp)
	if s.disk != nil {
		resp.DiskHits, resp.DiskMisses, resp.DiskWrites, resp.DiskErrors = s.disk.stats()
	}
	return resp
}

// traceRequested reports whether the request opted into phase tracing with
// ?trace=1 (any non-empty value except "0" counts).
func traceRequested(r *http.Request) *obs.Trace {
	if v := r.URL.Query().Get("trace"); v != "" && v != "0" {
		return obs.NewTrace()
	}
	return nil
}

// accept is the front half of both evaluation endpoints: decode, prepare,
// admit. A nil job means it has already answered the request.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, sync bool) *job {
	tr := traceRequested(r)
	req, ok := s.decodeRequest(w, r, tr)
	if !ok {
		return nil
	}
	prep, err := s.prepare(req, tr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil
	}
	note(w, prep)
	j, err := s.admit(prep, sync)
	if err != nil {
		writeAdmissionError(w, err)
		return nil
	}
	return j
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	j := s.accept(w, r, true)
	if j == nil {
		return
	}
	<-j.done
	s.mu.Lock()
	resp, errMsg := j.resp, j.errMsg
	s.mu.Unlock()
	if errMsg != "" {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: errMsg})
		return
	}
	writeEvaluateResponse(w, resp)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if j := s.accept(w, r, false); j != nil {
		writeJSON(w, http.StatusAccepted, JobResponse{ID: j.id, Status: "queued", TraceID: j.prep.opt.Trace.ID()})
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var resp JobResponse
	if ok {
		resp = JobResponse{ID: j.id, Status: j.status, Result: j.resp, Error: j.errMsg}
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no job %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleTensorPut stores (or replaces) a named tensor. The body is the COO
// wire format — inline data only; a ref makes no sense on upload.
func (s *Server) handleTensorPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	wt, ok := readWire(w, r, s.cfg.MaxBodyBytes, decodeTensor)
	if !ok {
		return
	}
	if wt.Ref != "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("tensor upload must carry inline data, not a ref"))
		return
	}
	coo, err := wt.toCOO(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ent, err := s.tensors.put(name, coo)
	if err != nil {
		// Over-budget uploads can never be admitted; same class as an
		// oversized request body.
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeJSON(w, http.StatusOK, ent.info())
}

// handleTensorGet reports a stored tensor's metadata; ?data=1 includes the
// tensor itself.
func (s *Server) handleTensorGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ent, ok := s.tensors.get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no stored tensor %q", name)})
		return
	}
	info := ent.info()
	if v := r.URL.Query().Get("data"); v != "" && v != "0" {
		wt := ToWire(ent.coo)
		info.Data = &wt
	}
	writeJSON(w, http.StatusOK, info)
}

// handleTensorDelete removes a stored tensor. Queued and running jobs that
// already resolved it keep their (pinned, immutable) entry; only the name
// is freed.
func (s *Server) handleTensorDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.tensors.delete(name) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no stored tensor %q", name)})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// decodeRequest is the decode phase of an evaluation: it reads the body,
// decodes it — strictly: unknown fields are rejected so client typos fail
// loudly — and converts the inline operands, under one "decode" span.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (*request, bool) {
	req := &request{begin: time.Now()}
	sp := tr.Start("decode")
	defer sp.End()
	wire, ok := readWire(w, r, s.cfg.MaxBodyBytes, DecodeEvaluate)
	if !ok {
		return nil, false
	}
	req.wire = *wire
	req.convertOperands()
	return req, true
}

// readWire reads a request body into a pooled buffer — nothing decode
// returns points into it — and decodes it, answering a failure itself.
func readWire[T any](w http.ResponseWriter, r *http.Request, limit int64, decode func([]byte) (*T, error)) (*T, bool) {
	body := bufPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bufPool.Put(body)
	if !readBody(w, r, limit, body) {
		return nil, false
	}
	v, err := decode(body.Bytes())
	if err != nil {
		writeBodyError(w, err)
	}
	return v, err == nil
}

// decodeStrict decodes one JSON value and rejects fields the target does not
// declare. Every request body, on the shard and at the router, is held to it
// (DecodeEvaluate, decodeTensor), so the two cannot disagree about what one is.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bufPool recycles request-body and response buffers, so that an inline
// request's transient memory is its operands, not copies of its wire form.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a request body of at most limit bytes into buf, answering
// an oversized one 413 itself. A declared length sizes the buffer once.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf *bytes.Buffer) bool {
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeBodyError(w, err)
	}
	return err == nil
}

// writeBodyError answers a request body that could not be read or decoded,
// on the shard and at the router alike: 413 when it ran past the size bound,
// 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
}

// writeAdmissionError maps queue rejection onto HTTP backpressure codes.
func writeAdmissionError(w http.ResponseWriter, err error) {
	code := http.StatusTooManyRequests
	if err == ErrDraining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// writeEvaluateResponse answers an evaluation in one write. The reply is
// built whole first, so one that cannot be encoded is a 500 that says why.
func writeEvaluateResponse(w http.ResponseWriter, resp *EvaluateResponse) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	out, err := AppendEvaluateResponse(buf.AvailableBuffer(), resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	buf.Write(out) // in place if it fit; if not, the pooled buffer grows to fit the next
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	writeRaw(w, http.StatusOK, buf.Bytes())
}

// writeJSON answers with v encoded whole before the status goes out, so a
// value JSON cannot carry — a non-finite float, such as a fixpoint delta
// that overflowed — is a 500 in the error shape that says why, never a 200
// with a truncated body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorResponse{Error: "cannot encode reply: " + err.Error()})
	}
	writeRaw(w, code, append(body, '\n'))
}
