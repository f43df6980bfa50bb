#!/usr/bin/env bash
# Serve smoke: start samserve, evaluate one gold-checked SpMV on the default
# engine and one on the compiled engine, upload the same operands as named
# tensors and re-evaluate by {"ref": name}, assert the /v1/stats counters
# (per-engine run counts, tensor-store activity), then
# drain on SIGINT. Then the sharded topology: 2 shards behind a router,
# routed gold output, aggregated stats, shard-labeled metrics, and a
# kill-a-shard drill (ejection, 503 + Retry-After, remap to the survivor,
# revive, rejoin).
set -euo pipefail

./samserve -addr 127.0.0.1:8345 &
SERVER=$!
for i in $(seq 1 50); do
  curl -sf 127.0.0.1:8345/v1/stats > /dev/null && break
  sleep 0.1
done

# Gold: B = [[1,2],[0,3]], c = [5,7] => x = [19, 21].
curl -sf -X POST 127.0.0.1:8345/v1/evaluate \
  -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate.json | tee smoke.json
grep -q '"coords":\[\[0\],\[1\]\]' smoke.json
grep -q '"values":\[19,21\]' smoke.json
grep -q '"cache":"miss"' smoke.json
grep -q '"engine":"event"' smoke.json

# Same kernel on the compiled engine: same gold output, zero cycles (no
# cycle model), cache hit (engine choice does not fragment the program key).
curl -sf -X POST 127.0.0.1:8345/v1/evaluate \
  -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate-comp.json | tee smoke-comp.json
grep -q '"values":\[19,21\]' smoke-comp.json
grep -q '"cycles":0' smoke-comp.json
grep -q '"cache":"hit"' smoke-comp.json
grep -q '"engine":"comp"' smoke-comp.json
# set -e ignores a negated command's status, hence the explicit exit.
! grep -q requested_engine smoke-comp.json || exit 1

# Engine counters: one event run, one comp run, and no fallback counter.
curl -sf 127.0.0.1:8345/v1/stats | tee stats.json
grep -q '"engine_runs":{' stats.json
grep -q '"comp":1' stats.json
grep -q '"event":1' stats.json
! grep -q engine_fallbacks stats.json || exit 1

# Same request with ?trace=1: the response carries a trace id and a
# non-empty span breakdown.
curl -sf -X POST '127.0.0.1:8345/v1/evaluate?trace=1' \
  -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate-comp.json | tee smoke-trace.json
grep -q '"trace_id":"t' smoke-trace.json
grep -q '"trace":\[{' smoke-trace.json
grep -q '"name":"run"' smoke-trace.json

# Named tensor store: upload the SpMV operands once, evaluate by
# {"ref": name}, and get the same gold output plus per-ref version stamps.
curl -sf -X PUT 127.0.0.1:8345/v1/tensors/B \
  -H 'Content-Type: application/json' \
  -d '{"dims":[2,2],"coords":[[0,0],[0,1],[1,1]],"values":[1,2,3]}' | tee tensor-b.json
grep -q '"name":"B"' tensor-b.json
grep -q '"version":1' tensor-b.json
grep -q '"fingerprint":"t' tensor-b.json
curl -sf -X PUT 127.0.0.1:8345/v1/tensors/c \
  -H 'Content-Type: application/json' \
  -d '{"dims":[2],"coords":[[0],[1]],"values":[5,7]}' > /dev/null
curl -sf -X POST 127.0.0.1:8345/v1/evaluate \
  -H 'Content-Type: application/json' \
  -d '{"expr":"x(i) = B(i,j) * c(j)","inputs":{"B":{"ref":"B"},"c":{"ref":"c"}}}' | tee smoke-ref.json
grep -q '"values":\[19,21\]' smoke-ref.json
grep -q '"tensors":{' smoke-ref.json
grep -q '"cache":"hit"' smoke-ref.json

# Tensor-store counters land in /v1/stats.
curl -sf 127.0.0.1:8345/v1/stats | tee stats-tensors.json
grep -q '"tensors_stored":2' stats-tensors.json
grep -q '"tensors_puts":2' stats-tensors.json
grep -q '"tensors_ref_hits":2' stats-tensors.json
grep -q '"tensors_ref_misses":0' stats-tensors.json

# Prometheus exposition: the registry families with their labels, and at
# least one cumulative histogram bucket line.
curl -sf 127.0.0.1:8345/metrics | tee metrics.txt
grep -q '^sam_http_requests_total{endpoint="/v1/evaluate",status="200"}' metrics.txt
grep -q '^sam_engine_runs_total{engine="comp"} ' metrics.txt
grep -q '^sam_engine_runs_total{engine="event"} ' metrics.txt
grep -q '^sam_cache_resolutions_total{tier="compile"} 1' metrics.txt
grep -q '^sam_request_duration_seconds_bucket{endpoint="/v1/evaluate",le="+Inf"}' metrics.txt
grep -q '^sam_request_duration_seconds_count{endpoint="/v1/evaluate"}' metrics.txt
grep -q '^sam_phase_duration_seconds_bucket{phase="queue_wait",le="+Inf"}' metrics.txt
grep -q '^sam_tensor_store_ops_total{op="put"} 2' metrics.txt
grep -q '^sam_tensor_store_ops_total{op="ref_hit"} 2' metrics.txt
grep -q '^sam_tensor_store_tensors 2' metrics.txt
grep -q '^sam_tensor_store_bytes ' metrics.txt

# pprof stays off without -pprof.
if curl -sf 127.0.0.1:8345/debug/pprof/cmdline > /dev/null; then
  echo "pprof reachable without -pprof" >&2
  exit 1
fi

kill -INT "$SERVER"
wait "$SERVER"

# --- Sharded topology: 2 shards + consistent-hash router -------------------

S0=127.0.0.1:18345
S1=127.0.0.1:18346
RT=127.0.0.1:18400

./samserve -addr "$S0" &
SH0=$!
./samserve -addr "$S1" &
SH1=$!
for addr in "$S0" "$S1"; do
  for i in $(seq 1 50); do
    curl -sf "$addr/readyz" > /dev/null && break
    sleep 0.1
  done
  curl -sf "$addr/healthz" | grep -q '"status":"ok"'
  curl -sf "$addr/readyz" | grep -q '"status":"ready"'
done

# A slow probe interval keeps the kill drill deterministic: the dead shard
# is ejected by the 503'd proxy attempt below, not by a racing probe.
./samserve -addr "$RT" -route "http://$S0,http://$S1" -probeinterval 2s &
ROUTER=$!
for i in $(seq 1 50); do
  curl -sf "$RT/readyz" > /dev/null && break
  sleep 0.1
done
curl -sf "$RT/readyz" | grep -q '"status":"ready"'

# The routed evaluate is bit-identical to a single node's.
curl -sf -X POST "$RT/v1/evaluate" \
  -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate.json | tee rsmoke.json
grep -q '"coords":\[\[0\],\[1\]\]' rsmoke.json
grep -q '"values":\[19,21\]' rsmoke.json
grep -q '"cache":"miss"' rsmoke.json
grep -q '"engine":"event"' rsmoke.json

# Aggregated stats: the fleet aggregate plus per-shard rows.
curl -sf "$RT/v1/stats" | tee rstats.json
grep -q '"aggregate":{' rstats.json
grep -q '"shards_live":2' rstats.json
grep -q '"shards_total":2' rstats.json
# Every request the router sends a shard is counted, its own scrapes
# included: the routed evaluate, plus this call's two /v1/stats fetches.
grep -q '"router_requests":3' rstats.json
grep -q '"router_ejections":0' rstats.json

# Merged metrics: every shard series carries shard="sN", family headers
# are deduplicated across shards, and the router families are present.
curl -sf "$RT/metrics" | tee rmetrics.txt
grep -q '^sam_router_shards_live 2' rmetrics.txt
grep -q '^sam_router_requests_total{shard="s' rmetrics.txt
grep -q 'shard="s0"' rmetrics.txt
grep -q 'shard="s1"' rmetrics.txt
test "$(grep -c '^# TYPE sam_queue_depth ' rmetrics.txt)" = 1

# Kill the shard that owns the smoke kernel's key (the one that served the
# routed evaluate: occurrence 1 of "requests" is the aggregate, 2 is s0,
# 3 is s1). The next request for that key hits the dead owner — 503 with
# Retry-After — and ejects it; the one after remaps to the survivor.
R0=$(grep -o '"requests":[0-9]*' rstats.json | sed -n 2p | cut -d: -f2)
if [ "$R0" -gt 0 ]; then
  VICTIM=$SH0 VICTIM_ADDR=$S0
else
  VICTIM=$SH1 VICTIM_ADDR=$S1
fi
kill -9 "$VICTIM"
CODE=$(curl -s -o r503.json -D r503-headers.txt -w '%{http_code}' \
  -X POST "$RT/v1/evaluate" -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate.json)
test "$CODE" = 503
grep -qi '^retry-after:' r503-headers.txt
curl -sf -X POST "$RT/v1/evaluate" \
  -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate.json | tee rremap.json
grep -q '"values":\[19,21\]' rremap.json

for i in $(seq 1 100); do
  curl -sf "$RT/v1/stats" > rstats-down.json
  grep -q '"shards_live":1' rstats-down.json && break
  sleep 0.1
done
grep -q '"shards_live":1' rstats-down.json
grep -qE '"router_ejections":[1-9]' rstats-down.json
curl -sf "$RT/readyz" | grep -q '"status":"ready"'

# Revive the shard at the same address; the backoff re-probe rejoins it.
./samserve -addr "$VICTIM_ADDR" &
REVIVED=$!
for i in $(seq 1 200); do
  curl -sf "$RT/v1/stats" > rstats-up.json
  grep -q '"shards_live":2' rstats-up.json && break
  sleep 0.1
done
grep -q '"shards_live":2' rstats-up.json
grep -qE '"router_rejoins":[1-9]' rstats-up.json
curl -sf -X POST "$RT/v1/evaluate" \
  -H 'Content-Type: application/json' \
  -d @.github/smoke/evaluate.json | tee rback.json
grep -q '"values":\[19,21\]' rback.json

if [ "$VICTIM" = "$SH0" ]; then SURVIVOR=$SH1; else SURVIVOR=$SH0; fi
kill -INT "$ROUTER"
wait "$ROUTER"
kill -INT "$SURVIVOR" "$REVIVED"
wait "$SURVIVOR" "$REVIVED"
