package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/lang"
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
	shard int
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
	if env == nil {
		return nil, ""
	}
	for name, in := range env.Inputs {
		if in.Ref == "" {
			continue
		}
		if tt := rt.lookupTiled(in.Ref); tt != nil {
			return tt, name
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
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	coo, est := rt.tileCandidate(body, name)
	if coo == nil {
		// Not tileable (small, disabled, malformed, or wrong order): the
		// ring owner stores or rejects it. A malformed body gets the shard's
		// canonical error. Replacing a previously tiled name un-tiles it.
		rt.dropTiles(name)
		sh := rt.route(name)
		if sh == nil {
			rt.writeUnavailable(w, "no live shards")
			return
		}
		rt.proxy(w, sh, http.MethodPut, "/v1/tensors/"+name, body, nil)
		return
	}

	var live []*shardState
	for _, sh := range rt.shards {
		if !sh.down.Load() {
			live = append(live, sh)
		}
	}
	if len(live) < 2 {
		// One shard is no fleet; store it plain.
		rt.dropTiles(name)
		if len(live) == 0 {
			rt.writeUnavailable(w, "no live shards")
			return
		}
		rt.proxy(w, rt.route(name), http.MethodPut, "/v1/tensors/"+name, body, nil)
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
		tr := tileRef{name: fmt.Sprintf("%s%s%d", name, tileInfix, k), shard: rt.shardIndex(sh)}
		wt := ToWire(b)
		buf, _ := json.Marshal(wt)
		if err := rt.putTile(sh, tr.name, buf); err != nil {
			// Partial uploads must not linger: a later evaluate would see a
			// registry entry whose tiles are incomplete. Roll back.
			rt.deleteTileRefs(tt.tiles)
			rt.mProxyErrs.With(sh.name).Inc()
			rt.fail(sh, false)
			rt.writeUnavailable(w, fmt.Sprintf("storing tile %q on shard %s failed: %v", tr.name, sh.name, err))
			return
		}
		tt.tiles = append(tt.tiles, tr)
	}
	// The whole tensor is down on disk... in the fleet; now the name can
	// switch over. If it previously lived un-tiled on its ring owner, that
	// copy is stale — drop it.
	rt.tilesMu.Lock()
	rt.tiles[name] = tt
	rt.tilesMu.Unlock()
	rt.deletePlain(name)
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
	var wt WireTensor
	if err := decodeStrict(bytes.NewReader(body), &wt); err != nil || !wt.inline() || wt.Ref != "" || len(wt.Dims) != 2 {
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

// shardIndex recovers a shard's position (its tileRef identity).
func (rt *Router) shardIndex(sh *shardState) int {
	for i, s := range rt.shards {
		if s == sh {
			return i
		}
	}
	return -1
}

// putTile stores one tile on one shard.
func (rt *Router) putTile(sh *shardState, tileName string, body []byte) error {
	rt.mRequests.With(sh.name).Inc()
	req, err := http.NewRequest(http.MethodPut, sh.url+"/v1/tensors/"+tileName, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return nil
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
		sh := rt.shards[tr.shard]
		if sh.down.Load() {
			continue
		}
		req, err := http.NewRequest(http.MethodDelete, sh.url+"/v1/tensors/"+tr.name, nil)
		if err != nil {
			continue
		}
		if resp, err := rt.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// deletePlain best-effort deletes the un-tiled copy of a name from its ring
// owner (a tiled PUT replacing a plain tensor must not leave the stale
// plain copy resolvable by a shard-direct client).
func (rt *Router) deletePlain(name string) {
	sh := rt.route(name)
	if sh == nil {
		return
	}
	req, err := http.NewRequest(http.MethodDelete, sh.url+"/v1/tensors/"+name, nil)
	if err != nil {
		return
	}
	if resp, err := rt.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
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
		pq := r.URL.Path
		if r.URL.RawQuery != "" {
			pq += "?" + r.URL.RawQuery
		}
		rt.proxy(w, sh, r.Method, pq, nil, nil)
		return
	}
	switch r.Method {
	case http.MethodDelete:
		rt.dropTiles(name)
		w.WriteHeader(http.StatusNoContent)
	default:
		info := tt.info()
		if v := r.URL.Query().Get("data"); v != "" && v != "0" {
			parts, err := rt.fetchTiles(tt)
			if err != nil {
				rt.writeUnavailable(w, err.Error())
				return
			}
			merged, err := tiling.MergePartials(name, tt.dims, parts)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			wt := ToWire(merged)
			info.Data = &wt
		}
		writeJSON(w, http.StatusOK, info)
	}
}

// fetchTiles pulls every tile of a tiled tensor back from its shard.
func (rt *Router) fetchTiles(tt *tiledTensor) ([]*tensor.COO, error) {
	parts := make([]*tensor.COO, len(tt.tiles))
	for i, tr := range tt.tiles {
		sh := rt.shards[tr.shard]
		if sh.down.Load() {
			return nil, fmt.Errorf("tile %q unavailable: shard %s is ejected (tiles are not replicated)", tr.name, sh.name)
		}
		info, err := rt.fetchTensor(sh, tr.name)
		if err != nil {
			return nil, fmt.Errorf("tile %q on shard %s: %v", tr.name, sh.name, err)
		}
		coo, err := info.Data.toCOO(tt.name)
		if err != nil {
			return nil, fmt.Errorf("tile %q on shard %s: %v", tr.name, sh.name, err)
		}
		parts[i] = coo
	}
	return parts, nil
}

// fetchTensor GETs one stored tensor, data included, from a shard.
func (rt *Router) fetchTensor(sh *shardState, name string) (*TensorInfo, error) {
	rt.mRequests.With(sh.name).Inc()
	resp, err := rt.client.Get(sh.url + "/v1/tensors/" + name + "?data=1")
	if err != nil {
		rt.mProxyErrs.With(sh.name).Inc()
		rt.fail(sh, false)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var info TensorInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	if info.Data == nil {
		return nil, fmt.Errorf("shard returned no tensor data")
	}
	return &info, nil
}

// handleTiledEvaluate runs POST /v1/evaluate against a tiled operand: the
// request fans out once per tile (each sub-request runs on the shard
// holding its tile, referencing the tile by name so the shard's bind cache
// does the heavy lifting), and the per-tile partial outputs are summed
// coordinate-wise (tiling.MergePartials). The algebra requires the tiled
// tensor to enter the expression multiplicatively and exactly once —
// row-block partials of T sum to T, and a multilinear product distributes
// over that sum; an additive operand (X = B + C) would be re-counted once
// per tile. Fixpoint requests iterate at the router: each iteration fans
// out one-shot sub-requests with the current state inlined, merges the
// partials, and applies the shard-identical update rule (sim.Fixpoint.Apply).
func (rt *Router) handleTiledEvaluate(w http.ResponseWriter, r *http.Request, body []byte, tt *tiledTensor, inputName string) {
	begin := time.Now()
	var req EvaluateRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	e, err := lang.Parse(req.Expr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := tiledExprOK(e, inputName); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fx, err := req.Fixpoint.toFixpoint()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if fx != nil && fx.Var == inputName {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("fixpoint var %q is the tiled operand; the iterated state must be a plain input", inputName))
		return
	}

	// Resolve every other input to inline data at the router: a sub-request
	// lands on its tile's shard, which need not hold the other refs.
	inputs := make(map[string]WireTensor, len(req.Inputs))
	stamps := map[string]TensorRef{inputName: {Version: tt.version, Fingerprint: tt.fp}}
	for name, in := range req.Inputs {
		if name == inputName {
			continue
		}
		if in.Ref == "" {
			inputs[name] = in
			continue
		}
		if rt.lookupTiled(in.Ref) != nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("inputs %q and %q both reference tiled tensors; at most one operand may be tiled", inputName, name))
			return
		}
		sh := rt.route(in.Ref)
		if sh == nil {
			rt.writeUnavailable(w, "no live shards")
			return
		}
		info, err := rt.fetchTensor(sh, in.Ref)
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no stored tensor %q", in.Ref))
			return
		}
		inputs[name] = *info.Data
		stamps[in.Ref] = TensorRef{Version: info.Version, Fingerprint: info.Fingerprint}
	}

	sub := req
	sub.Fixpoint = nil

	if fx == nil {
		parts, agg, status, errBody := rt.fanout(sub, tt, inputName, inputs, nil)
		if errBody != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(errBody)
			return
		}
		merged, err := mergeOutputs(parts)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp := *agg
		resp.Output = ToWire(merged)
		resp.Tensors = stamps
		resp.ElapsedNS = time.Since(begin).Nanoseconds()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Router-driven fixpoint: the state tensor must be inline by now.
	stateWire, ok := inputs[fx.Var]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fixpoint var %q is not an input", fx.Var))
		return
	}
	x, err := stateWire.toCOO(fx.Var)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fi := &FixpointInfo{}
	var agg *EvaluateResponse
	totalCycles := 0
	for i := 0; i < fx.MaxIters; i++ {
		parts, a, status, errBody := rt.fanout(sub, tt, inputName, inputs, map[string]WireTensor{fx.Var: ToWire(x)})
		if errBody != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(errBody)
			return
		}
		agg = a
		totalCycles += a.Cycles
		y, err := mergeOutputs(parts)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		next, delta, err := fx.Apply(y, x)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		x = next
		fi.Deltas = append(fi.Deltas, delta)
		fi.Iterations++
		if fx.Tol > 0 && delta <= fx.Tol {
			fi.Converged = true
			break
		}
	}
	resp := *agg
	resp.Cycles = totalCycles
	resp.Output = ToWire(x)
	resp.Tensors = stamps
	resp.Fixpoint = fi
	resp.ElapsedNS = time.Since(begin).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
}

// tiledExprOK checks the algebraic precondition for per-tile fan-out: the
// tiled tensor appears exactly once, and every operator in the expression
// tree is a product (multilinearity is what makes row-block partials sum to
// the whole answer).
func tiledExprOK(e *lang.Einsum, tiled string) error {
	uses := 0
	for _, a := range e.Accesses() {
		if a.Tensor == tiled {
			uses++
		}
	}
	if uses != 1 {
		return fmt.Errorf("tiled operand %q appears %d times in %q; per-tile partials sum to the result only when it appears exactly once", tiled, uses, e.String())
	}
	bad := false
	var walk func(lang.Expr)
	walk = func(x lang.Expr) {
		if b, ok := x.(*lang.Binary); ok {
			if b.Op != lang.Mul {
				bad = true
			}
			walk(b.L)
			walk(b.R)
		}
	}
	walk(e.RHS)
	if bad {
		return fmt.Errorf("expression %q mixes addition with a tiled operand; per-tile partials sum to the result only for pure products (an added term would be re-counted once per tile)", e.String())
	}
	return nil
}

// fanout runs one sub-request per tile concurrently and aggregates the
// scalar response fields (max cycles and setup — the tiles run in
// parallel across shards — and the worst cache tier). On a sub-request
// failure it returns the failing shard's status and body verbatim; on a
// transport failure, a 503 body.
func (rt *Router) fanout(sub EvaluateRequest, tt *tiledTensor, inputName string, inputs map[string]WireTensor, extra map[string]WireTensor) ([]*tensor.COO, *EvaluateResponse, int, []byte) {
	rt.mTileFans.Inc()
	type result struct {
		resp   *EvaluateResponse
		status int
		body   []byte
		err    error
		shard  *shardState
	}
	results := make([]result, len(tt.tiles))
	var wg sync.WaitGroup
	for i, tr := range tt.tiles {
		sh := rt.shards[tr.shard]
		if sh.down.Load() {
			body, _ := json.Marshal(ErrorResponse{Error: fmt.Sprintf(
				"tile %q unavailable: shard %s is ejected (tiles are not replicated)", tr.name, sh.name)})
			return nil, nil, http.StatusServiceUnavailable, body
		}
		sub := sub
		sub.Inputs = make(map[string]WireTensor, len(inputs)+1)
		for k, v := range inputs {
			sub.Inputs[k] = v
		}
		for k, v := range extra {
			sub.Inputs[k] = v
		}
		sub.Inputs[inputName] = WireTensor{Ref: tr.name}
		buf, _ := json.Marshal(sub)
		wg.Add(1)
		go func(i int, sh *shardState, buf []byte) {
			defer wg.Done()
			rt.mRequests.With(sh.name).Inc()
			resp, err := rt.client.Post(sh.url+"/v1/evaluate", "application/json", bytes.NewReader(buf))
			if err != nil {
				results[i] = result{err: err, shard: sh}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				results[i] = result{status: resp.StatusCode, body: body, shard: sh}
				return
			}
			var er EvaluateResponse
			if err := json.Unmarshal(body, &er); err != nil {
				results[i] = result{err: err, shard: sh}
				return
			}
			results[i] = result{resp: &er}
		}(i, sh, buf)
	}
	wg.Wait()

	parts := make([]*tensor.COO, 0, len(results))
	agg := &EvaluateResponse{Cache: "hit"}
	for _, res := range results {
		if res.err != nil {
			rt.mProxyErrs.With(res.shard.name).Inc()
			rt.fail(res.shard, false)
			body, _ := json.Marshal(ErrorResponse{Error: fmt.Sprintf(
				"shard %s failed mid-fan-out: %v", res.shard.name, res.err)})
			return nil, nil, http.StatusServiceUnavailable, body
		}
		if res.body != nil {
			return nil, nil, res.status, res.body
		}
		coo, err := res.resp.Output.toCOO("partial")
		if err != nil {
			body, _ := json.Marshal(ErrorResponse{Error: fmt.Sprintf("bad partial output: %v", err)})
			return nil, nil, http.StatusInternalServerError, body
		}
		parts = append(parts, coo)
		if res.resp.Cycles > agg.Cycles {
			agg.Cycles = res.resp.Cycles
		}
		if res.resp.SetupNS > agg.SetupNS {
			agg.SetupNS = res.resp.SetupNS
		}
		agg.Cache = worseCache(agg.Cache, res.resp.Cache)
		agg.Fingerprint = res.resp.Fingerprint
		agg.Engine = res.resp.Engine
		agg.Requested = res.resp.Requested
	}
	return parts, agg, 0, nil
}

// worseCache orders cache tiers hit < disk < miss and keeps the worse: the
// fan-out's cache story is its slowest tile's.
func worseCache(a, b string) string {
	rank := func(s string) int {
		switch s {
		case "hit":
			return 0
		case "disk":
			return 1
		default:
			return 2
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// mergeOutputs sums per-tile partial outputs coordinate-wise.
func mergeOutputs(parts []*tensor.COO) (*tensor.COO, error) {
	var dims []int
	for _, p := range parts {
		if p.Order() > 0 || len(p.Pts) > 0 {
			dims = p.Dims
			break
		}
	}
	return tiling.MergePartials("out", dims, parts)
}
