package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/sim"
	"sam/internal/tensor"
	"sam/internal/tiling"
)

// tileInfix is the reserved naming convention for router-managed tiles:
// tile k of tensor T is stored on its shard as "T@tile{k}". Client tensor
// names containing it are rejected at the router so a direct upload can
// never alias a managed tile.
const tileInfix = "@tile"

// tiledTensor is the router's record of one large tensor it split into
// per-shard row-block tiles (internal/tiling.RowBlocks). The registry is
// router memory: tiles survive a router restart on their shards, but the
// mapping does not — re-PUT the tensor to re-establish it. Tiles are not
// replicated; while a tile's shard is ejected the tensor is unavailable.
type tiledTensor struct {
	name    string
	dims    []int
	nnz     int
	bytes   int64
	version int64
	fp      string
	tiles   []tileRef
}

// tileRef is one stored tile and the shard that holds it. Placement is
// pinned at PUT time — the data lives where it was written, so fan-out must
// go there (unlike stateless request routing, which remaps freely).
type tileRef struct {
	name  string
	shard *shardState
}

// live is nil when every tile's shard is in the ring; otherwise the 503 that
// says which tile is out of reach.
func (t *tiledTensor) live() error {
	for _, tr := range t.tiles {
		if tr.shard.down.Load() {
			return unavailableErr(fmt.Sprintf(
				"tile %q unavailable: shard %s is ejected (tiles are not replicated)", tr.name, tr.shard.name))
		}
	}
	return nil
}

func (t *tiledTensor) info() TensorInfo {
	names := make([]string, len(t.tiles))
	for i, tr := range t.tiles {
		names[i] = tr.name
	}
	return TensorInfo{
		Name: t.name, Version: t.version, Fingerprint: t.fp,
		Dims: t.dims, NNZ: t.nnz, Bytes: t.bytes, Tiles: names,
	}
}

// lookupTiled returns the tiled record for a name, if any.
func (rt *Router) lookupTiled(name string) *tiledTensor {
	rt.tilesMu.Lock()
	defer rt.tilesMu.Unlock()
	return rt.tiles[name]
}

// tiledRef looks through a request's envelope for an input ref naming a
// tiled tensor, returning the record and the input name. A body without an
// envelope has no tiled refs (the shard will produce the canonical error
// for it).
func (rt *Router) tiledRef(env *EvaluateRequest) (*tiledTensor, string) {
	if env != nil {
		for name, in := range env.Inputs {
			if tt := rt.lookupTiled(in.Ref); tt != nil {
				return tt, name
			}
		}
	}
	return nil, ""
}

// handleTensorPut stores a named tensor. Small uploads (and every upload
// when tiling is disabled) proxy verbatim to the name's ring owner. An
// inline order-2 upload whose resident-size estimate exceeds
// TileThresholdBytes is instead split into one row-block tile per live
// shard; each tile is stored on its own shard and the router records the
// mapping, so no single shard's tensor budget has to hold the whole thing.
func (rt *Router) handleTensorPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if strings.Contains(name, tileInfix) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("tensor name %q uses the reserved tile infix %q", name, tileInfix))
		return
	}
	var buf bytes.Buffer
	if !readBody(w, r, rt.cfg.MaxBodyBytes, &buf) {
		return
	}
	body := buf.Bytes()
	coo, est := rt.tileCandidate(body, name)
	var live []*shardState
	if coo != nil {
		live = rt.live()
	}
	if len(live) < 2 {
		// Not tileable (small, disabled, malformed, or wrong order), or one
		// shard is no fleet: the ring owner stores or rejects it. A malformed
		// body gets the shard's canonical error. Replacing a previously tiled
		// name un-tiles it.
		rt.dropTiles(name)
		sh := rt.route(name)
		if sh == nil {
			rt.writeUnavailable(w, "no live shards")
			return
		}
		rt.proxy(w, sh, http.MethodPut, "/v1/tensors/"+name, body)
		return
	}

	blocks, err := tiling.RowBlocks(coo, len(live))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tt := &tiledTensor{
		name: name, dims: coo.Dims, nnz: len(coo.Pts), bytes: est,
		version: atomic.AddInt64(&rt.tileVersion, 1),
		fp:      tensorFingerprint(coo),
	}
	for k, b := range blocks {
		sh := live[k%len(live)]
		tr := tileRef{name: fmt.Sprintf("%s%s%d", name, tileInfix, k), shard: sh}
		buf, _ := json.Marshal(ToWire(b)) // a decoded upload holds nothing JSON cannot encode
		if _, err := rt.ask(context.Background(), sh, http.MethodPut, "/v1/tensors/"+tr.name, buf); err != nil {
			// Partial uploads must not linger: roll back. A shard's refusal
			// (a tile over its tensor budget is a healthy shard's 413) is
			// relayed as it is; only an unreachable shard is a 503.
			rt.deleteTileRefs(tt.tiles)
			rt.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		tt.tiles = append(tt.tiles, tr)
	}
	// The whole tensor is down in the fleet; now the name can switch over. If
	// it previously lived un-tiled on its ring owner, that copy is stale (and
	// still resolvable by a shard-direct client) — drop it.
	rt.tilesMu.Lock()
	rt.tiles[name] = tt
	rt.tilesMu.Unlock()
	if sh := rt.route(name); sh != nil {
		rt.call(context.Background(), sh, http.MethodDelete, "/v1/tensors/"+name, nil) // best effort
	}
	rt.mTiledPuts.Inc()
	rt.logf("tensor=%s event=tiled_put tiles=%d nnz=%d bytes=%d", name, len(tt.tiles), tt.nnz, tt.bytes)
	writeJSON(w, http.StatusOK, tt.info())
}

// tileCandidate decodes an upload body and decides whether it should tile,
// returning the decoded tensor and its size estimate, or nil to store it
// plain.
func (rt *Router) tileCandidate(body []byte, name string) (*tensor.COO, int64) {
	if rt.cfg.TileThresholdBytes <= 0 {
		return nil, 0
	}
	wt, err := decodeTensor(body)
	if err != nil || !wt.inline() || wt.Ref != "" || len(wt.Dims) != 2 {
		return nil, 0
	}
	coo, err := wt.toCOO(name)
	if err != nil {
		return nil, 0
	}
	if est := cooBytes(coo); est > rt.cfg.TileThresholdBytes {
		return coo, est
	}
	return nil, 0
}

// dropTiles forgets a tiled record and best-effort deletes its tiles.
func (rt *Router) dropTiles(name string) {
	rt.tilesMu.Lock()
	tt := rt.tiles[name]
	delete(rt.tiles, name)
	rt.tilesMu.Unlock()
	if tt != nil {
		rt.deleteTileRefs(tt.tiles)
	}
}

// deleteTileRefs best-effort deletes stored tiles (cleanup paths).
func (rt *Router) deleteTileRefs(tiles []tileRef) {
	for _, tr := range tiles {
		if !tr.shard.down.Load() {
			rt.call(context.Background(), tr.shard, http.MethodDelete, "/v1/tensors/"+tr.name, nil)
		}
	}
}

// handleTensor serves GET and DELETE /v1/tensors/{name}: tiled names are
// answered by the router (aggregated info, reassembled data, fan-out
// delete); everything else proxies to the name's ring owner.
func (rt *Router) handleTensor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tt := rt.lookupTiled(name)
	if tt == nil {
		sh := rt.route(name)
		if sh == nil {
			rt.writeUnavailable(w, "no live shards")
			return
		}
		rt.proxy(w, sh, r.Method, r.URL.RequestURI(), nil)
		return
	}
	switch r.Method {
	case http.MethodDelete:
		rt.dropTiles(name)
		w.WriteHeader(http.StatusNoContent)
	default:
		info := tt.info()
		if v := r.URL.Query().Get("data"); v != "" && v != "0" {
			whole, err := rt.reassemble(tt)
			if err != nil {
				rt.writeUnavailable(w, err.Error())
				return
			}
			wt := ToWire(whole)
			info.Data = &wt
		}
		writeJSON(w, http.StatusOK, info)
	}
}

// reassemble pulls every tile of a tiled tensor back from its shard and
// merges them into the tensor that was uploaded.
func (rt *Router) reassemble(tt *tiledTensor) (*tensor.COO, error) {
	if err := tt.live(); err != nil {
		return nil, err
	}
	parts := make([]*tensor.COO, len(tt.tiles))
	for i, tr := range tt.tiles {
		info, err := rt.fetchTensor(tr.shard, tr.name)
		if err == nil {
			parts[i], err = info.Data.toCOO(tt.name)
		}
		if err != nil {
			return nil, fmt.Errorf("tile %q on shard %s: %v", tr.name, tr.shard.name, err)
		}
	}
	return tiling.MergePartials(tt.name, parts)
}

// fetchTensor GETs one stored tensor, data included, from a shard.
func (rt *Router) fetchTensor(sh *shardState, name string) (*TensorInfo, error) {
	body, err := rt.ask(context.Background(), sh, http.MethodGet, "/v1/tensors/"+name+"?data=1", nil)
	if err != nil {
		return nil, err
	}
	var info TensorInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	if info.Data == nil {
		return nil, fmt.Errorf("shard %s returned no data for tensor %q", sh.name, name)
	}
	return &info, nil
}

// handleTiledEvaluate runs POST /v1/evaluate against a tiled operand. The
// router only moves bytes: what the request is and whether it may run once
// per tile is checkTiled's call, the sum of the partials is
// tiling.MergePartials, and a fixpoint request is sim.Fixpoint.Iterate — the
// loop and update rule a shard runs — with one fan-out as its step.
func (rt *Router) handleTiledEvaluate(w http.ResponseWriter, body []byte, tt *tiledTensor, operand string) {
	begin := time.Now()
	req, err := DecodeEvaluate(body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	fx, err := rt.checkTiled(req, operand)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	stamps, err := rt.inlineRefs(req.Inputs, operand, tt)
	if err != nil {
		rt.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	sub := *req
	sub.Fixpoint = nil

	var out *tensor.COO
	var resp *EvaluateResponse
	if fx == nil {
		out, resp, err = rt.fanout(tt, sub, operand)
	} else {
		// The state tensor is inline by now, whatever it was on arrival.
		x0, cerr := sub.Inputs[fx.Var].toCOO(fx.Var)
		if cerr != nil {
			writeError(w, http.StatusBadRequest, cerr)
			return
		}
		res, ierr := fx.Iterate(x0, func(x *tensor.COO) (*tensor.COO, int, error) {
			sub.Inputs[fx.Var] = ToWire(x)
			y, r, err := rt.fanout(tt, sub, operand)
			if err != nil {
				return nil, 0, err
			}
			resp = r
			return y, r.Cycles, nil
		})
		if err = ierr; err == nil {
			out, resp.Cycles = res.Output, res.Cycles
			resp.Fixpoint = &FixpointInfo{Iterations: res.Iterations, Converged: res.Converged, Deltas: res.Deltas}
		}
	}
	if err != nil {
		rt.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp.Output = ToWire(out)
	resp.Tensors = stamps
	resp.ElapsedNS = time.Since(begin).Nanoseconds()
	writeEvaluateResponse(w, resp)
}

// checkTiled is everything that can be wrong with a tiled evaluation before
// a byte moves: the request's plan, the tile algebra, a second tiled operand,
// the fixpoint spec. It returns the validated spec, nil for a one-shot.
func (rt *Router) checkTiled(req *EvaluateRequest, operand string) (*sim.Fixpoint, error) {
	p, err := req.plan()
	if err != nil {
		return nil, err
	}
	fixVar := ""
	if req.Fixpoint != nil {
		fixVar = req.Fixpoint.Var
	}
	if err := tiling.Distributable(p.e, operand, fixVar); err != nil {
		return nil, err
	}
	for name, in := range req.Inputs {
		if name != operand && rt.lookupTiled(in.Ref) != nil {
			return nil, fmt.Errorf("inputs %q and %q both reference tiled tensors; at most one operand may be tiled", operand, name)
		}
	}
	fx, err := req.Fixpoint.toFixpoint()
	if err == nil && fx != nil {
		if _, ok := req.Inputs[fx.Var]; !ok {
			err = fmt.Errorf("fixpoint var %q is not an input", fx.Var)
		}
	}
	return fx, err
}

// inlineRefs replaces every {"ref"} input but the tiled operand's with the
// tensor it names, fetched from the name's ring owner: a sub-request lands on
// its tile's shard, which need not hold the other refs. It returns the
// response's stamps, one per ref input.
func (rt *Router) inlineRefs(inputs map[string]WireTensor, operand string, tt *tiledTensor) (map[string]TensorRef, error) {
	stamps := map[string]TensorRef{operand: {Version: tt.version, Fingerprint: tt.fp}}
	for name, in := range inputs {
		if name == operand || in.Ref == "" {
			continue
		}
		sh := rt.route(in.Ref)
		if sh == nil {
			return nil, unavailableErr("no live shards")
		}
		info, err := rt.fetchTensor(sh, in.Ref)
		if err != nil {
			return nil, err
		}
		inputs[name] = *info.Data
		stamps[name] = TensorRef{Version: info.Version, Fingerprint: info.Fingerprint}
	}
	return stamps, nil
}

// cacheRank orders the cache tiers a shard reports: a fan-out's cache story is
// its slowest tile's. A tier this map does not know ranks 0, behind them all.
var cacheRank = map[string]int{"hit": -3, "disk": -2, "miss": -1}

// fanout is one evaluation over a tiled operand: sub runs once per tile,
// concurrently, each copy on the shard holding its tile and naming the tile
// by ref (so the shard's bind cache does the heavy lifting), and the partial
// outputs are summed. The response it returns carries the scalar fields
// aggregated (max cycles and setup — the tiles run in parallel — and the
// worst cache tier), its output still to fill. A fan-out that cannot finish,
// a tile's shard being down, sends nothing and counts nothing.
func (rt *Router) fanout(tt *tiledTensor, sub EvaluateRequest, operand string) (*tensor.COO, *EvaluateResponse, error) {
	if err := tt.live(); err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(tt.tiles))
	for i, tr := range tt.tiles {
		sub.Inputs[operand] = WireTensor{Ref: tr.name}
		var err error
		if bodies[i], err = json.Marshal(sub); err != nil {
			// An iterated state that overflowed to ±Inf has no JSON form.
			return nil, nil, fmt.Errorf("sub-request for tile %q: %v", tr.name, err)
		}
	}
	rt.mTileFans.Inc()
	errs := make([]error, len(tt.tiles))
	var wg sync.WaitGroup
	for i, tr := range tt.tiles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], errs[i] = rt.ask(context.Background(), tr.shard, http.MethodPost, "/v1/evaluate", bodies[i])
		}()
	}
	wg.Wait()

	parts := make([]*tensor.COO, len(tt.tiles))
	agg := &EvaluateResponse{Cache: "hit"}
	for i, tr := range tt.tiles {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		var er EvaluateResponse
		err := json.Unmarshal(bodies[i], &er)
		if err == nil {
			parts[i], err = er.Output.toCOO("partial")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bad partial output for tile %q: %v", tr.name, err)
		}
		agg.Cycles = max(agg.Cycles, er.Cycles)
		agg.SetupNS = max(agg.SetupNS, er.SetupNS)
		if cacheRank[er.Cache] > cacheRank[agg.Cache] {
			agg.Cache = er.Cache
		}
		agg.Fingerprint, agg.Engine = er.Fingerprint, er.Engine
	}
	out, err := tiling.MergePartials("out", parts)
	return out, agg, err
}
