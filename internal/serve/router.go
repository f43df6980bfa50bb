package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/obs"
)

// RouterConfig sizes the front router (samserve -route).
type RouterConfig struct {
	// Shards are the shard base URLs (e.g. http://127.0.0.1:8346). The
	// consistent-hash ring is built over these identities, so the key→shard
	// mapping is stable across router restarts as long as the set is.
	Shards []string
	// ProbeInterval is how often the health loop probes each shard's
	// /readyz. Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 2s.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures eject a shard from
	// the ring. A mid-request transport error ejects immediately — the
	// failure is already proven. Default 2.
	FailAfter int
	// RetryAfter is the client backoff hint on 503s and the initial
	// re-probe backoff for an ejected shard (doubling per failed re-probe,
	// capped at 16x). Default 1s.
	RetryAfter time.Duration
	// TileThresholdBytes, when positive, splits inline PUT /v1/tensors
	// uploads of order-2 tensors whose estimated resident size exceeds it
	// into per-shard row-block tiles (internal/tiling.RowBlocks); evaluate
	// and fixpoint requests referencing the tiled name fan out per tile and
	// merge partials. Zero disables splitting.
	TileThresholdBytes int64
	// MaxBodyBytes bounds request bodies at the router, mirroring the
	// shard limit. Default 8 MiB.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one line per routed request.
	AccessLog io.Writer
	// Client overrides the proxy HTTP client (tests); nil uses a default
	// with no overall timeout — evaluations may legitimately run long.
	Client *http.Client
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// shardState is one shard as the router sees it: its stable identity plus
// the probe loop's liveness bookkeeping.
type shardState struct {
	name string // s0, s1, ... by position in RouterConfig.Shards
	url  string

	// down is the ring-visible liveness bit; reads are lock-free on the
	// routing hot path.
	down atomic.Bool

	// Probe bookkeeping, guarded by mu: consecutive failures, and the
	// backoff window before an ejected shard is re-probed.
	mu        sync.Mutex
	fails     int
	backoff   time.Duration
	nextProbe time.Time
}

// Router is the scale-out front of the serving layer: it consistent-hash
// routes the single-node HTTP API across a fleet of shards by canonical
// program key (tensor routes by name), so each shard's compiled-program
// cache, disk artifact cache, and named tensor store stay hot for a stable
// slice of the keyspace. Shards failing readiness probes are ejected from
// the ring (their arcs remap minimally to ring successors) and rejoin on
// recovery. Responses for routed requests are the shard's bytes verbatim —
// the router adds behavior (job-ID shard prefixes, stats aggregation,
// tiled-operand fan-out) without rewriting results.
type Router struct {
	cfg    RouterConfig
	ring   *ring
	shards []*shardState
	client *http.Client
	probe  *http.Client
	mux    *http.ServeMux

	reg         *obs.Registry
	mRequests   *obs.CounterVec
	mProxyErrs  *obs.CounterVec
	mEjections  *obs.CounterVec
	mRejoins    *obs.CounterVec
	mProbeFails *obs.CounterVec
	mTiledPuts  *obs.Counter
	mTileFans   *obs.Counter

	tilesMu     sync.Mutex
	tiles       map[string]*tiledTensor
	tileVersion int64

	stop     chan struct{}
	probeWG  sync.WaitGroup
	stopOnce sync.Once
}

// NewRouter builds a router over the given shards and starts its probe
// loop; Close stops probing.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one shard")
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		reg:    obs.NewRegistry(),
		tiles:  map[string]*tiledTensor{},
		stop:   make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	rt.probe = &http.Client{Timeout: cfg.ProbeTimeout}
	seen := map[string]bool{}
	ids := make([]string, len(cfg.Shards))
	for i, u := range cfg.Shards {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, fmt.Errorf("serve: router shard %d has an empty URL", i)
		}
		if seen[u] {
			return nil, fmt.Errorf("serve: router shard URL %q listed twice", u)
		}
		seen[u] = true
		ids[i] = u
		rt.shards = append(rt.shards, &shardState{name: "s" + strconv.Itoa(i), url: u})
	}
	rt.ring = newRing(ids)

	rt.mRequests = rt.reg.CounterVec("sam_router_requests_total",
		"Requests sent to a shard — routed, fanned out, tile and scrape traffic — by target shard.", "shard")
	rt.mProxyErrs = rt.reg.CounterVec("sam_router_proxy_errors_total",
		"Transport failures proxying to a shard (each also ejects it).", "shard")
	rt.mEjections = rt.reg.CounterVec("sam_router_ejections_total",
		"Shard ejections from the ring (probe failures or proxy errors); each ejection remaps the shard's keyspace arcs to ring successors.", "shard")
	rt.mRejoins = rt.reg.CounterVec("sam_router_rejoins_total",
		"Ejected shards re-admitted after a passing readiness probe.", "shard")
	rt.mProbeFails = rt.reg.CounterVec("sam_router_probe_failures_total",
		"Failed readiness probes, by shard.", "shard")
	rt.mTiledPuts = rt.reg.Counter("sam_router_tiled_puts_total",
		"Large tensor uploads split into per-shard row-block tiles.")
	rt.mTileFans = rt.reg.Counter("sam_router_tile_fanouts_total",
		"Evaluate/fixpoint fan-outs over a tiled tensor (one per merge of per-tile partials).")
	rt.reg.GaugeFunc("sam_router_shards_live", "Shards currently in the ring.",
		func() float64 { return float64(len(rt.live())) })
	for _, sh := range rt.shards {
		rt.mRequests.With(sh.name)
		rt.mProxyErrs.With(sh.name)
		rt.mEjections.With(sh.name)
		rt.mRejoins.With(sh.name)
		rt.mProbeFails.With(sh.name)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) { rt.handleEval(w, r, false) })
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { rt.handleEval(w, r, true) })
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("PUT /v1/tensors/{name}", rt.handleTensorPut)
	mux.HandleFunc("GET /v1/tensors/{name}", rt.handleTensor)
	mux.HandleFunc("DELETE /v1/tensors/{name}", rt.handleTensor)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ProbeResponse{Status: "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(rt.live()) == 0 {
			writeJSON(w, http.StatusServiceUnavailable, ProbeResponse{Status: "no live shards"})
			return
		}
		writeJSON(w, http.StatusOK, ProbeResponse{Status: "ready"})
	})
	rt.mux = mux

	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the probe loop. Shards are not touched — draining them is
// their own operation (the router only stops watching).
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probeWG.Wait()
}

// live lists the shards currently in the ring.
func (rt *Router) live() []*shardState {
	var live []*shardState
	for _, sh := range rt.shards {
		if !sh.down.Load() {
			live = append(live, sh)
		}
	}
	return live
}

// alive is the ring's liveness filter.
func (rt *Router) alive(i int) bool { return !rt.shards[i].down.Load() }

// route maps a key to its live owner shard, or nil when the whole fleet is
// down.
func (rt *Router) route(key string) *shardState {
	i := rt.ring.lookup(key, rt.alive)
	if i < 0 {
		return nil
	}
	return rt.shards[i]
}

// probeLoop watches every shard's /readyz: FailAfter consecutive failures
// eject a shard from the ring; an ejected shard is re-probed on a doubling
// backoff and rejoins on the first passing probe.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, sh := range rt.shards {
			if sh.down.Load() {
				sh.mu.Lock()
				wait := now.Before(sh.nextProbe)
				sh.mu.Unlock()
				if wait {
					continue
				}
			}
			if rt.probeOne(sh) {
				rt.recover(sh)
			} else {
				rt.mProbeFails.With(sh.name).Inc()
				rt.fail(sh, true)
			}
		}
	}
}

// probeOne runs one readiness probe.
func (rt *Router) probeOne(sh *shardState) bool {
	resp, err := rt.probe.Get(sh.url + "/readyz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// fail records one failure against a shard. Probe failures eject after
// FailAfter in a row; proxy failures (probed=false) eject immediately —
// the transport error already proved the shard unreachable. Ejected shards
// get a doubling re-probe backoff, capped at 16x RetryAfter.
func (rt *Router) fail(sh *shardState, probed bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fails++
	if !sh.down.Load() && (!probed || sh.fails >= rt.cfg.FailAfter) {
		sh.down.Store(true)
		sh.backoff = rt.cfg.RetryAfter
		sh.nextProbe = time.Now().Add(sh.backoff)
		rt.mEjections.With(sh.name).Inc()
		rt.logf("shard=%s event=ejected fails=%d", sh.name, sh.fails)
		return
	}
	if sh.down.Load() {
		if sh.backoff < 16*rt.cfg.RetryAfter {
			sh.backoff *= 2
		}
		sh.nextProbe = time.Now().Add(sh.backoff)
	}
}

// recover re-admits a shard after a passing probe.
func (rt *Router) recover(sh *shardState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fails = 0
	sh.backoff = 0
	if sh.down.Load() {
		sh.down.Store(false)
		rt.mRejoins.With(sh.name).Inc()
		rt.logf("shard=%s event=rejoined", sh.name)
	}
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.AccessLog != nil {
		fmt.Fprintf(rt.cfg.AccessLog, format+"\n", args...)
	}
}

// writeUnavailable answers 503 with the configured Retry-After hint: the
// backpressure shape of a degraded ring (a remap is coming, try again).
func (rt *Router) writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((rt.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg})
}

// shardBody remembers a failed read of a shard's response, so a relay that
// broke off can tell a dead shard from a client that hung up.
type shardBody struct {
	io.Reader
	err error
}

func (b *shardBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// unavailableErr is a failure the client should retry: writeErr answers it
// 503 with the Retry-After hint.
type unavailableErr string

func (e unavailableErr) Error() string { return string(e) }

// shardReply is a shard's own non-200 answer, which the router relays status
// and body verbatim rather than rephrase.
type shardReply struct {
	status int
	body   []byte
}

func (e *shardReply) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, bytes.TrimSpace(e.body))
}

// writeErr answers a failed request: a shard's reply is relayed, an
// unreachable shard is a 503, and anything else is the router's own error
// under code. The error may be wrapped (sim.Fixpoint.Iterate names the
// iteration); what it wraps decides.
func (rt *Router) writeErr(w http.ResponseWriter, code int, err error) {
	var reply *shardReply
	var down unavailableErr
	switch {
	case errors.As(err, &reply):
		writeRaw(w, reply.status, reply.body)
	case errors.As(err, &down):
		rt.writeUnavailable(w, string(down))
	default:
		writeError(w, code, err)
	}
}

// writeRaw relays an already-encoded JSON body.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// send is the one place a request to a shard is built, counted and
// classified (probes aside: they are the liveness question itself); the
// response comes back with its body still to read. A transport failure —
// here, or later while that body is read — goes to failed, which ejects the
// shard. An HTTP status, whatever it is, is the shard's answer and never does.
func (rt *Router) send(ctx context.Context, sh *shardState, method, pathAndQuery string, body []byte) (*http.Response, error) {
	rt.mRequests.With(sh.name).Inc()
	// A URL that does not parse (a tensor name can carry anything) says
	// nothing about the shard: the caller's plain error, no ejection.
	req, err := http.NewRequestWithContext(ctx, method, sh.url+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, rt.failed(sh, method, pathAndQuery, err)
	}
	return resp, nil
}

// failed records a transport failure against a shard, ejecting it, and
// returns the error that answers the request it broke.
func (rt *Router) failed(sh *shardState, method, pathAndQuery string, err error) error {
	rt.mProxyErrs.With(sh.name).Inc()
	rt.fail(sh, false)
	rt.logf("shard=%s event=proxy_error method=%s path=%s err=%q", sh.name, method, pathAndQuery, err)
	return unavailableErr(fmt.Sprintf("shard %s unavailable (%v); retry once its keyspace has remapped or it has rejoined", sh.name, err))
}

// call sends one request to a shard and reads the whole answer: every
// router-composed exchange (tile stores and deletes, operand fetches, fan-out
// sub-requests, stats and metrics scrapes, job submissions) is one call.
func (rt *Router) call(ctx context.Context, sh *shardState, method, pathAndQuery string, body []byte) (int, []byte, error) {
	resp, err := rt.send(ctx, sh, method, pathAndQuery, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, rt.failed(sh, method, pathAndQuery, err)
	}
	return resp.StatusCode, out, nil
}

// ask is call for the callers that can only use a 200: any other status
// comes back as the shardReply to relay.
func (rt *Router) ask(ctx context.Context, sh *shardState, method, pathAndQuery string, body []byte) ([]byte, error) {
	status, out, err := rt.call(ctx, sh, method, pathAndQuery, body)
	if err == nil && status != http.StatusOK {
		err = &shardReply{status, out}
	}
	return out, err
}

// scrape is ask for the router's own reads of a shard's /v1/stats and
// /metrics, bounded by ProbeTimeout the way a probe is: a shard that holds
// the connection open and never answers fails in transport, and is ejected,
// rather than hang the router's own endpoint behind it.
func (rt *Router) scrape(sh *shardState, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	return rt.ask(ctx, sh, http.MethodGet, path, nil)
}

// proxy forwards one request to a shard and streams the response through as
// it arrives. A transport failure ejects the shard and answers 503 with
// Retry-After: the next attempt lands on the remapped owner. If the shard
// dies with the response already under way, the client's connection is cut
// instead, so what it holds cannot pass for a whole reply.
func (rt *Router) proxy(w http.ResponseWriter, sh *shardState, method, pathAndQuery string, body []byte) {
	resp, err := rt.send(context.Background(), sh, method, pathAndQuery, body)
	if err != nil {
		rt.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.ContentLength > 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	from := &shardBody{Reader: resp.Body}
	io.Copy(w, from)
	if from.err != nil {
		rt.failed(sh, method, pathAndQuery, from.err)
		panic(http.ErrAbortHandler)
	}
}

// proxyJob is proxy for the two job endpoints. A job the shard answers with
// (202 on submission, 200 on a poll) gets the shard's name in front of its
// ID, so that GET /v1/jobs/{id} finds its way back without fan-out; the rest
// of the shard's encoding, and any error, goes through untouched.
func (rt *Router) proxyJob(w http.ResponseWriter, sh *shardState, method, pathAndQuery string, body []byte) {
	status, out, err := rt.call(context.Background(), sh, method, pathAndQuery, body)
	if err != nil {
		rt.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	var jr JobResponse
	if status >= 300 || json.Unmarshal(out, &jr) != nil || jr.ID == "" {
		writeRaw(w, status, out)
		return
	}
	jr.ID = sh.name + "-" + jr.ID
	writeJSON(w, status, jr)
}

// routingKey computes the shard-routing key of an evaluation request from
// its envelope: the key of its plan, the same lang.CanonicalKey the shard's
// program cache uses (at opt level 0 where the schedule names none), so every
// request for one compiled program lands on one shard and its cache stays
// hot. A request with no plan (no envelope, parse or validation errors) still
// routes — deterministically, by raw body — so the owning shard produces the
// canonical error response.
func routingKey(env *EvaluateRequest, body []byte) string {
	if env != nil {
		if p, err := env.plan(0); err == nil {
			return p.key
		}
	}
	return "body:" + strconv.FormatUint(ringHash(string(body)), 16)
}

// handleEval routes POST /v1/evaluate and POST /v1/jobs by canonical
// program key, reading only the body's envelope: the operands go through to
// the shard as bytes and are parsed there, once. Async job submissions get
// their job ID prefixed with the owning shard's name so GET /v1/jobs/{id}
// routes back without fan-out.
func (rt *Router) handleEval(w http.ResponseWriter, r *http.Request, async bool) {
	var buf bytes.Buffer // the request's own: a relayed body may outlive the handler in the transport
	if !readBody(w, r, rt.cfg.MaxBodyBytes, &buf) {
		return
	}
	body := buf.Bytes()
	env := readEnvelope(body)
	if tiled, name := rt.tiledRef(env); tiled != nil {
		if async {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("input ref %q is tiled across shards; tiled operands support synchronous POST /v1/evaluate only", name))
			return
		}
		rt.handleTiledEvaluate(w, body, tiled, name)
		return
	}
	sh := rt.route(routingKey(env, body))
	if sh == nil {
		rt.writeUnavailable(w, "no live shards")
		return
	}
	if async {
		rt.proxyJob(w, sh, http.MethodPost, r.URL.RequestURI(), body)
	} else {
		rt.proxy(w, sh, http.MethodPost, r.URL.RequestURI(), body)
	}
}

// handleJob routes GET /v1/jobs/{id} back to the shard named by the ID
// prefix. IDs without a valid prefix 404 exactly like an unknown job —
// they are unknown, to every router with this shard list.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	prefix, local, ok := strings.Cut(id, "-")
	sh := rt.shardByName(prefix)
	if !ok || sh == nil || local == "" {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no job %q", id)})
		return
	}
	if sh.down.Load() {
		rt.writeUnavailable(w, fmt.Sprintf("shard %s holding job %q is unavailable", sh.name, id))
		return
	}
	rt.proxyJob(w, sh, http.MethodGet, "/v1/jobs/"+local, nil)
}

// shardByName resolves s0/s1/... back to shard state; nil when unknown.
func (rt *Router) shardByName(name string) *shardState {
	for _, sh := range rt.shards {
		if sh.name == name {
			return sh
		}
	}
	return nil
}

// handleStats fans GET /v1/stats out to every live shard and aggregates:
// counters sum, per-engine maps merge, and latency percentiles come from
// element-wise merged histogram buckets (obs.QuantileFromBuckets) — never
// from averaging per-shard percentiles.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

// RouterShardStats is one shard's row in the aggregated stats response.
type RouterShardStats struct {
	Shard string `json:"shard"`
	URL   string `json:"url"`
	Live  bool   `json:"live"`
	// Stats is the shard's own /v1/stats snapshot; nil when the shard was
	// ejected or unreachable at aggregation time.
	Stats *StatsResponse `json:"stats,omitempty"`
}

// RouterStatsResponse is the body of GET /v1/stats in router mode: the
// fleet-wide aggregate, the per-shard snapshots it was derived from, and
// the router's own ring counters.
type RouterStatsResponse struct {
	// Aggregate sums every shard counter; its latency percentiles are
	// derived from the shards' merged histogram buckets.
	Aggregate StatsResponse      `json:"aggregate"`
	Shards    []RouterShardStats `json:"shards"`

	ShardsLive  int `json:"shards_live"`
	ShardsTotal int `json:"shards_total"`

	RouterRequests     int64 `json:"router_requests"`
	RouterProxyErrors  int64 `json:"router_proxy_errors"`
	RouterEjections    int64 `json:"router_ejections"`
	RouterRejoins      int64 `json:"router_rejoins"`
	RouterTiledTensors int   `json:"router_tiled_tensors"`
	RouterTileFanouts  int64 `json:"router_tile_fanouts"`
}

// Stats aggregates the fleet's counters.
func (rt *Router) Stats() RouterStatsResponse {
	out := RouterStatsResponse{ShardsTotal: len(rt.shards)}
	var merged *HistogramSnapshot
	for _, sh := range rt.shards {
		row := RouterShardStats{Shard: sh.name, URL: sh.url}
		if !sh.down.Load() {
			var st StatsResponse
			if body, err := rt.scrape(sh, "/v1/stats"); err == nil && json.Unmarshal(body, &st) == nil {
				row.Stats = &st
				addStats(&out.Aggregate, &st)
				merged = mergeHist(merged, st.LatencyHist)
			}
		}
		// Liveness is read after the scrape: failing in transport, it ejects.
		if row.Live = !sh.down.Load(); row.Live {
			out.ShardsLive++
		}
		out.Shards = append(out.Shards, row)
	}
	if merged != nil {
		out.Aggregate.LatencyHist = merged
		out.Aggregate.LatencyP50MS = obs.QuantileFromBuckets(merged.Buckets, merged.Counts, 0.50) * 1000
		out.Aggregate.LatencyP99MS = obs.QuantileFromBuckets(merged.Buckets, merged.Counts, 0.99) * 1000
	}
	out.RouterRequests = rt.sum(rt.mRequests)
	out.RouterProxyErrors = rt.sum(rt.mProxyErrs)
	out.RouterEjections = rt.sum(rt.mEjections)
	out.RouterRejoins = rt.sum(rt.mRejoins)
	rt.tilesMu.Lock()
	out.RouterTiledTensors = len(rt.tiles)
	rt.tilesMu.Unlock()
	out.RouterTileFanouts = rt.mTileFans.Value()
	return out
}

// addStats accumulates one shard's counters into the aggregate. Percentiles
// are intentionally not added here — they come from the merged histogram.
func addStats(agg, st *StatsResponse) {
	agg.Requests += st.Requests
	agg.Rejected += st.Rejected
	agg.Failures += st.Failures
	agg.CacheHits += st.CacheHits
	agg.CacheMisses += st.CacheMisses
	agg.CacheEvictions += st.CacheEvictions
	agg.CachePrograms += st.CachePrograms
	agg.DiskHits += st.DiskHits
	agg.DiskMisses += st.DiskMisses
	agg.DiskWrites += st.DiskWrites
	agg.DiskErrors += st.DiskErrors
	agg.TensorsStored += st.TensorsStored
	agg.TensorsBytes += st.TensorsBytes
	agg.TensorsPuts += st.TensorsPuts
	agg.TensorsDeletes += st.TensorsDeletes
	agg.TensorsRefHits += st.TensorsRefHits
	agg.TensorsRefMisses += st.TensorsRefMisses
	agg.TensorsEvictions += st.TensorsEvictions
	agg.TensorsBindHits += st.TensorsBindHits
	agg.TensorsBindBuilds += st.TensorsBindBuilds
	agg.QueueDepth += st.QueueDepth
	agg.QueueRunning += st.QueueRunning
	agg.Workers += st.Workers
	agg.CyclesSimulated += st.CyclesSimulated
	for k, v := range st.EngineRuns {
		if agg.EngineRuns == nil {
			agg.EngineRuns = map[string]int64{}
		}
		agg.EngineRuns[k] += v
	}
}

// mergeHist merges two latency histograms by summing bucket counts
// element-wise; snapshots with mismatched layouts are skipped (they cannot
// merge exactly, and a wrong percentile is worse than a missing one).
func mergeHist(acc, h *HistogramSnapshot) *HistogramSnapshot {
	if h == nil || len(h.Counts) != len(h.Buckets)+1 {
		return acc
	}
	if acc == nil {
		return &HistogramSnapshot{
			Buckets: append([]float64(nil), h.Buckets...),
			Counts:  append([]int64(nil), h.Counts...),
			Sum:     h.Sum, Count: h.Count,
		}
	}
	if !slices.Equal(acc.Buckets, h.Buckets) {
		return acc
	}
	for i, c := range h.Counts {
		acc.Counts[i] += c
	}
	acc.Sum += h.Sum
	acc.Count += h.Count
	return acc
}

// sum totals a per-shard counter family across the fleet.
func (rt *Router) sum(v *obs.CounterVec) (n int64) {
	for _, sh := range rt.shards {
		n += v.With(sh.name).Value()
	}
	return n
}

// handleMetrics serves the fleet's Prometheus exposition: the router's own
// sam_router_* families plus every live shard's scrape with a shard="sN"
// label injected into each sample, families merged and deduplicated so
// each HELP/TYPE header appears once.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	blocks := map[string]*metricBlock{}
	var own bytes.Buffer
	_ = rt.reg.WritePrometheus(&own)
	mergeExposition(blocks, own.Bytes(), "")
	for _, sh := range rt.live() {
		if body, err := rt.scrape(sh, "/metrics"); err == nil {
			mergeExposition(blocks, body, sh.name)
		}
	}
	names := make([]string, 0, len(blocks))
	for n := range blocks {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, n := range names {
		b := blocks[n]
		fmt.Fprint(w, b.header)
		for _, line := range b.samples {
			fmt.Fprintln(w, line)
		}
	}
}

// metricBlock is one family's merged exposition: its HELP/TYPE header
// (kept from the first source that declared it) and every relabeled sample.
type metricBlock struct {
	header  string
	samples []string
}

// helpRe pulls the family name out of a HELP or TYPE comment line.
var helpRe = regexp.MustCompile(`^# (?:HELP|TYPE) (\S+)`)

// mergeExposition folds one Prometheus text scrape into the block map,
// injecting a shard label into every sample line when shard is non-empty.
func mergeExposition(blocks map[string]*metricBlock, text []byte, shard string) {
	var fam *metricBlock
	var famName string
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if m[1] != famName {
				famName = m[1]
				if blocks[famName] == nil {
					blocks[famName] = &metricBlock{}
				}
				fam = blocks[famName]
			}
			if !strings.Contains(fam.header, line+"\n") {
				// Keep the first HELP and TYPE line per family; later shards
				// repeat them identically.
				if strings.Count(fam.header, "\n") < 2 {
					fam.header += line + "\n"
				}
			}
			continue
		}
		// Sample line: name{labels} value or name value. Group by the
		// sample name's family (strip histogram suffixes back to the
		// header's family when one is open).
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		key := famName
		if key == "" || !strings.HasPrefix(name, famName) {
			key = name
		}
		if blocks[key] == nil {
			blocks[key] = &metricBlock{}
		}
		blocks[key].samples = append(blocks[key].samples, injectLabel(line, shard))
	}
}

// injectLabel adds shard="name" as the first label of one sample line.
func injectLabel(line, shard string) string {
	if shard == "" {
		return line
	}
	if i := strings.Index(line, "{"); i >= 0 {
		return line[:i+1] + `shard="` + shard + `",` + line[i+1:]
	}
	if i := strings.Index(line, " "); i >= 0 {
		return line[:i] + `{shard="` + shard + `"}` + line[i:]
	}
	return line
}
