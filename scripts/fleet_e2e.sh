#!/usr/bin/env bash
# fleet_e2e.sh — fleet end-to-end checks.
#
# Phase 1 (kill one worker): boots a coordinator and two workers, submits an
# ensemble job, SIGKILLs one worker mid-run, and asserts that the job still
# completes with physics bit-identical to a single-process reference run —
# the fleet's core robustness promise — and that the failover is visible on
# /metrics (fleet_reschedules_total >= 1).
#
# Phase 2 (auth + kill the coordinator): boots an authenticated cluster over
# a filesystem blob store, asserts keyless requests are 401 and that a
# rate-limited tenant's second rapid submission is shed 429 with a
# Retry-After header, then SIGKILLs the coordinator mid-ensemble once a
# checkpoint has landed in the store, restarts it, resubmits, and asserts
# the ensemble completes bit-identical — shards resumed from the store
# (fleet_store_seeds_total + neutral_blob_result_hits_total >= 1), proving
# the workers are stateless and the store carries all durable state.
#
# Usage: scripts/fleet_e2e.sh [base-port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${1:-18180}
COORD="127.0.0.1:$PORT"
W1="127.0.0.1:$((PORT + 1))"
W2="127.0.0.1:$((PORT + 2))"
REF="127.0.0.1:$((PORT + 3))"
BIN=$(mktemp -d)/neutral-serve
# An ensemble wide and slow enough that shards are in flight when the
# worker dies, and that a pulled checkpoint sits in the store for several of
# phase 2's 0.1 s polls: ~0.6 s a shard at one thread. (A 0.1 s shard is over
# within one SSE flush of its first pull, and its checkpoint is deleted with
# it.) Every replica is bit-reproducible at whatever thread budget the worker
# that runs it has.
SPEC='{"problem":"csp","nx":256,"particles":20000,"steps":40,"seed":42,"replicas":3,"keep_cells":true}'

go build -o "$BIN" ./cmd/neutral-serve

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "http://$1/healthz" >/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: $1 never became healthy" >&2
  exit 1
}

# Reference: the same ensemble on a plain single-process server.
"$BIN" -addr "$REF" &
PIDS+=($!)
wait_healthy "$REF"
REF_JOB=$(curl -sf -X POST "http://$REF/v1/jobs" -d "$SPEC" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -sf "http://$REF/v1/jobs/$REF_JOB/result?wait=true" > /tmp/fleet_e2e_ref.json

# The fleet: coordinator plus two workers. A short lease makes the dead
# worker detectable within CI patience.
"$BIN" -addr "$COORD" -fleet -lease 2s &
PIDS+=($!)
wait_healthy "$COORD"
"$BIN" -addr "$W1" -worker -join "http://$COORD" -name w1 &
W1_PID=$!
PIDS+=($W1_PID)
"$BIN" -addr "$W2" -worker -join "http://$COORD" -name w2 &
PIDS+=($!)
wait_healthy "$W1"
wait_healthy "$W2"

# Both workers registered and alive before dispatch begins.
for _ in $(seq 1 100); do
  ALIVE=$(curl -sf "http://$COORD/v1/fleet/workers" | python3 -c 'import json,sys; print(sum(1 for w in json.load(sys.stdin) if w["alive"]))')
  [ "$ALIVE" = 2 ] && break
  sleep 0.1
done
[ "$ALIVE" = 2 ] || { echo "FAIL: expected 2 alive workers, saw $ALIVE" >&2; exit 1; }

JOB=$(curl -sf -X POST "http://$COORD/v1/jobs" -d "$SPEC" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')

# Wait until w1 holds at least one shard, then SIGKILL it mid-run — no
# goodbye, no checkpoint flush; the coordinator must recover on its own.
for _ in $(seq 1 200); do
  BUSY=$(curl -sf "http://$COORD/v1/fleet/workers" | python3 -c 'import json,sys; print(next((w["dispatches"] for w in json.load(sys.stdin) if w["name"]=="w1"), 0))')
  [ "$BUSY" -ge 1 ] && break
  sleep 0.1
done
[ "$BUSY" -ge 1 ] || { echo "FAIL: w1 never received a shard" >&2; exit 1; }
kill -9 "$W1_PID"
echo "killed worker w1 (pid $W1_PID) mid-run"

curl -sf --max-time 180 "http://$COORD/v1/jobs/$JOB/result?wait=true" > /tmp/fleet_e2e_fleet.json

# Physics must be bit-identical to the reference; timing fields may differ.
python3 - <<'EOF'
import json
ref = json.load(open("/tmp/fleet_e2e_ref.json"))
got = json.load(open("/tmp/fleet_e2e_fleet.json"))
# The cells travel as their runs. csp reflects at every edge, so escapes and
# leakage are absent on both sides; a field the reference lacks compares
# nothing, so each compared one must be there.
fields = ["tally_total", "runs", "facet_events", "collision_events",
          "census_events", "deaths", "conservation_error"]
for f in fields:
    assert f in ref, f"reference result has no {f}"
    assert got.get(f) == ref[f], f"{f} differs:\n fleet {got.get(f)}\n ref   {ref[f]}"
ens_fields = ["mean_total", "replica_totals", "rel_err", "total_rel_err",
              "avg_rel_err", "max_rel_err", "scored_cells"]
for f in ens_fields:
    assert got["ensemble"][f] == ref["ensemble"][f], \
        f"ensemble.{f} differs:\n fleet {got['ensemble'][f]}\n ref   {ref['ensemble'][f]}"
print("physics bit-identical across worker kill:",
      "mean_total =", got["ensemble"]["mean_total"])
EOF

# The failover must have actually happened and be visible on /metrics.
RESCHED=$(curl -sf "http://$COORD/metrics" | awk '$1 == "fleet_reschedules_total" {print int($2)}')
[ "${RESCHED:-0}" -ge 1 ] || { echo "FAIL: fleet_reschedules_total = ${RESCHED:-0}, want >= 1" >&2; exit 1; }
echo "PASS: kill-one-worker e2e (fleet_reschedules_total=$RESCHED)"

# ---------------------------------------------------------------------------
# Phase 2: authenticated cluster over a blob store; kill the coordinator.
# ---------------------------------------------------------------------------
C2="127.0.0.1:$((PORT + 4))"
W3="127.0.0.1:$((PORT + 5))"
W4="127.0.0.1:$((PORT + 6))"
WORK=$(mktemp -d)
BLOB="$WORK/blob"
KEYS="$WORK/keys.json"
cat > "$KEYS" <<'JSON'
{"tenants": [
  {"name": "ops",     "key": "ops-secret"},
  {"name": "fleet",   "key": "fleet-secret"},
  {"name": "limited", "key": "limited-secret", "rate": 0.1, "burst": 1}
]}
JSON
TINY='{"problem":"csp","nx":32,"particles":200,"steps":1,"seed":7}'

start_coordinator() {
  "$BIN" -addr "$C2" -fleet -lease 2s -keys "$KEYS" -blob "$BLOB" -fleet-key fleet-secret &
  C2_PID=$!
  PIDS+=($C2_PID)
  wait_healthy "$C2"
}
start_coordinator
"$BIN" -addr "$W3" -worker -join "http://$C2" -name w3 -fleet-key fleet-secret &
PIDS+=($!)
"$BIN" -addr "$W4" -worker -join "http://$C2" -name w4 -fleet-key fleet-secret &
PIDS+=($!)
wait_healthy "$W3"
wait_healthy "$W4"

AUTH_OPS=(-H "Authorization: Bearer ops-secret")
for _ in $(seq 1 100); do
  ALIVE=$(curl -sf "${AUTH_OPS[@]}" "http://$C2/v1/fleet/workers" | python3 -c 'import json,sys; print(sum(1 for w in json.load(sys.stdin) if w["alive"]))')
  [ "$ALIVE" = 2 ] && break
  sleep 0.1
done
[ "$ALIVE" = 2 ] || { echo "FAIL: expected 2 alive auth-fleet workers, saw $ALIVE" >&2; exit 1; }

# No key -> 401; wrong key -> 401; a good key passes.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$C2/v1/jobs")
[ "$CODE" = 401 ] || { echo "FAIL: keyless request got $CODE, want 401" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer wrong" "http://$C2/v1/jobs")
[ "$CODE" = 401 ] || { echo "FAIL: bad-key request got $CODE, want 401" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "${AUTH_OPS[@]}" "http://$C2/v1/jobs")
[ "$CODE" = 200 ] || { echo "FAIL: good-key request got $CODE, want 200" >&2; exit 1; }
echo "auth: 401 without key, 200 with key"

# The rate-limited tenant (0.1 jobs/s, burst 1): first submit admitted, the
# rapid second one shed 429 with a Retry-After the client can obey.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer limited-secret" -X POST "http://$C2/v1/jobs" -d "$TINY")
[ "$CODE" = 200 ] || [ "$CODE" = 202 ] || { echo "FAIL: limited tenant's first submit got $CODE" >&2; exit 1; }
HDRS=$(mktemp)
CODE=$(curl -s -o /dev/null -D "$HDRS" -w '%{http_code}' -H "Authorization: Bearer limited-secret" -X POST "http://$C2/v1/jobs" -d "$TINY")
[ "$CODE" = 429 ] || { echo "FAIL: limited tenant's second submit got $CODE, want 429" >&2; exit 1; }
RETRY_AFTER=$(awk 'tolower($1) == "retry-after:" {gsub("\r",""); print $2}' "$HDRS")
[ -n "$RETRY_AFTER" ] && [ "$RETRY_AFTER" -ge 1 ] || { echo "FAIL: 429 Retry-After is '$RETRY_AFTER', want >= 1s" >&2; exit 1; }
echo "rate limit: second submit shed 429 with Retry-After=${RETRY_AFTER}s"

# Kill the coordinator mid-ensemble once a shard checkpoint reached the
# store, restart it over the same store, and resubmit: every shard must
# resume from the store, not start over.
# The count tolerates a store that has no checkpoints directory yet and skips
# the .put-* temp file of a write in flight (a glob does not match dot files).
count_checkpoints() {
  local n=0 f
  for f in "$BLOB"/checkpoints/*; do
    if [ -f "$f" ]; then n=$((n + 1)); fi
  done
  echo "$n"
}
curl -sf "${AUTH_OPS[@]}" -X POST "http://$C2/v1/jobs" -d "$SPEC" >/dev/null
for _ in $(seq 1 300); do
  CKPTS=$(count_checkpoints)
  [ "$CKPTS" -ge 1 ] && break
  sleep 0.1
done
[ "$CKPTS" -ge 1 ] || { echo "FAIL: no checkpoint reached the blob store" >&2; exit 1; }
kill -9 "$C2_PID"
echo "killed coordinator (pid $C2_PID) mid-ensemble with $CKPTS checkpoint(s) in the store"
sleep 0.5

start_coordinator
# The workers' agents re-register on their next heartbeat against the
# restarted (and now empty) registry.
for _ in $(seq 1 200); do
  ALIVE=$(curl -sf "${AUTH_OPS[@]}" "http://$C2/v1/fleet/workers" | python3 -c 'import json,sys; print(sum(1 for w in json.load(sys.stdin) if w["alive"]))' 2>/dev/null || echo 0)
  [ "$ALIVE" = 2 ] && break
  sleep 0.1
done
[ "$ALIVE" = 2 ] || { echo "FAIL: workers never re-registered after coordinator restart, saw $ALIVE" >&2; exit 1; }

JOB2=$(curl -sf "${AUTH_OPS[@]}" -X POST "http://$C2/v1/jobs" -d "$SPEC" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -sf --max-time 180 "${AUTH_OPS[@]}" "http://$C2/v1/jobs/$JOB2/result?wait=true" > /tmp/fleet_e2e_resumed.json

python3 - <<'EOF'
import json
ref = json.load(open("/tmp/fleet_e2e_ref.json"))
got = json.load(open("/tmp/fleet_e2e_resumed.json"))
fields = ["tally_total", "runs", "facet_events", "collision_events",
          "census_events", "deaths", "conservation_error"]
for f in fields:
    assert f in ref, f"reference result has no {f}"
    assert got.get(f) == ref[f], f"{f} differs:\n resumed {got.get(f)}\n ref     {ref[f]}"
ens_fields = ["mean_total", "replica_totals", "rel_err", "total_rel_err",
              "avg_rel_err", "max_rel_err", "scored_cells"]
for f in ens_fields:
    assert got["ensemble"][f] == ref["ensemble"][f], \
        f"ensemble.{f} differs:\n resumed {got['ensemble'][f]}\n ref     {ref['ensemble'][f]}"
print("physics bit-identical across coordinator kill+restart:",
      "mean_total =", got["ensemble"]["mean_total"])
EOF

# The resume must have come from the store: shards seeded from persisted
# checkpoints, or finished shards served from the persisted result tier.
SEEDS=$(curl -sf "http://$C2/metrics" | awk '$1 == "fleet_store_seeds_total" {print int($2)}')
HITS=$(curl -sf "http://$C2/metrics" | awk '$1 == "neutral_blob_result_hits_total" {print int($2)}')
TOTAL=$(( ${SEEDS:-0} + ${HITS:-0} ))
[ "$TOTAL" -ge 1 ] || { echo "FAIL: store_seeds=$SEEDS blob_result_hits=$HITS, want sum >= 1" >&2; exit 1; }
echo "PASS: coordinator kill+restart e2e (store_seeds=${SEEDS:-0}, blob_result_hits=${HITS:-0}, retry_after=${RETRY_AFTER}s)"
