#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end crash-failover smoke for the durability stack.
#
# Topology: router + 2 checkpointing/replicating backends. The script
# creates sessions through the router, lets one checkpoint interval pass,
# then `kill -9`s one backend. Every session must keep answering steps —
# the dead backend's sessions via replica promotion on the survivor — with
# promotions counted at the router and zero failed handoffs. The killed
# backend then restarts on its checkpoint directory and must come back
# ready WITHOUT resurrecting the sessions the survivor now owns, and every
# session must still answer.
#
# Run from the repo root with ./socserved already built (CI does), or let
# the script build it.
set -euo pipefail
cd "$(dirname "$0")/.."

[ -x ./socserved ] || go build -o socserved ./cmd/socserved

RP=18200 # router port; backends at RP+1, RP+2
peers="http://127.0.0.1:$((RP+1)),http://127.0.0.1:$((RP+2))"
ckdir="$(mktemp -d)"
pids=""
cleanup() { kill $pids 2>/dev/null || true; rm -rf "$ckdir"; }
trap cleanup EXIT

start_b1() {
  ./socserved -mode backend -addr 127.0.0.1:$((RP+1)) \
    -self "http://127.0.0.1:$((RP+1))" -peers "$peers" \
    -ckpt-dir "$ckdir/b1" -ckpt-interval 100ms -ckpt-sync none &
  b1=$!
  pids="$pids $b1"
}
start_b1
./socserved -mode backend -addr 127.0.0.1:$((RP+2)) \
  -self "http://127.0.0.1:$((RP+2))" -peers "$peers" \
  -ckpt-dir "$ckdir/b2" -ckpt-interval 100ms -ckpt-sync none &
b2=$!
./socserved -mode router -addr 127.0.0.1:$RP -peers "$peers" \
  -probe-interval 200ms -fail-after 2 -call-timeout 2s &
rt=$!
pids="$pids $b2 $rt"

for i in $(seq 1 60); do
  curl -sf "http://127.0.0.1:$RP/metrics" 2>/dev/null \
    | grep -q '^socrouted_backends_ready 2$' && break
  sleep 1
done
curl -sf "http://127.0.0.1:$RP/metrics" | grep -q '^socrouted_backends_ready 2$'

# Create sessions and step each once so every one carries learner state.
ids=""
for i in $(seq 1 12); do
  sid="$(curl -sf -X POST "http://127.0.0.1:$RP/v1/sessions" \
    -d '{"policy":"interactive"}' | sed -E 's/.*"id":"([^"]+)".*/\1/')"
  test -n "$sid"
  ids="$ids $sid"
done
step() { # step <sid> -> 0 iff the router answered 200 with a config
  curl -sf -X POST "http://127.0.0.1:$RP/v1/sessions/$1/step" -d '{
    "counters": {"InstructionsRetired":1e8, "CPUCycles":1.5e8,
                 "L2Misses":3e5, "DataMemAccess":1e7,
                 "LittleUtil":1, "BigUtil":1, "ChipPower":2.1},
    "config": {"LittleFreqIdx":6, "BigFreqIdx":9, "NLittle":4, "NBig":2},
    "threads": 1}' | grep -q '"config"'
}
step_retry() { # the failover window: retry until the router re-rings
  for a in $(seq 1 50); do
    step "$1" && return 0
    sleep 0.2
  done
  echo "session $1 never answered after the kill" >&2
  return 1
}
for sid in $ids; do step "$sid"; done

count() {
  curl -sf "http://127.0.0.1:$1/admin/sessions" \
    | grep -o 'r-[0-9]*' | sort -u | wc -l
}
n1="$(count $((RP+1)))"
[ "$n1" -gt 0 ] || { echo "victim backend holds no sessions; kill proves nothing" >&2; exit 1; }

# One checkpoint interval (plus slack) so every session is checkpointed
# and its replica pushed to the standby, then kill -9 — no drain, no
# graceful anything.
sleep 1

# This phase carried no overload, so nothing may have been shed anywhere:
# the replicator queue-drop meter (total AND its rate-per-second
# companion) must read zero on every backend. A nonzero
# here means backpressure fired under nominal load — a capacity bug, not
# a chaos effect.
for port in $((RP+1)) $((RP+2)); do
  curl -sf "http://127.0.0.1:$port/metrics" > "drops_$port.txt"
  for m in socserved_replica_queue_dropped_total \
           socserved_replica_queue_dropped_rate_per_s; do
    v="$(grep "^$m " "drops_$port.txt" | awk '{print $2}')"
    [ "${v:-0}" = "0" ] || \
      { echo "backend :$port dropped under nominal load: $m=$v, want 0" >&2; exit 1; }
  done
done

kill -9 "$b1"

# Every session must answer. The first steps ride through the failover:
# the router needs fail-after consecutive probe misses to re-ring, then
# the survivor promotes its replicas on first touch.
for sid in $ids; do step_retry "$sid"; done

curl -sf "http://127.0.0.1:$RP/metrics" | tee chaos_metrics.txt >/dev/null
prom="$(grep '^socrouted_promotions_total ' chaos_metrics.txt | awk '{print $2}')"
fails="$(grep '^socrouted_failed_handoffs_total ' chaos_metrics.txt | awk '{print $2}' || echo 0)"
[ "${prom:-0}" -ge "$n1" ] || \
  { echo "promotions_total=$prom, want >= $n1 (the victim's sessions)" >&2; exit 1; }
[ "${fails:-0}" = "0" ] || { echo "failed_handoffs_total=$fails, want 0" >&2; exit 1; }

# Restart the victim on its checkpoint directory. It must replay the
# store, skip every session the survivor promoted (no split brain), and
# come back ready.
start_b1
for i in $(seq 1 60); do
  curl -sf "http://127.0.0.1:$((RP+1))/readyz" >/dev/null 2>&1 && break
  sleep 1
done
curl -sf "http://127.0.0.1:$((RP+1))/readyz" >/dev/null
sleep 1 # let the router re-add it and rebalance

# All sessions still answer after the restart and rebalance.
for sid in $ids; do step_retry "$sid"; done
total=$(( $(count $((RP+1))) + $(count $((RP+2))) ))
[ "$total" -eq 12 ] || { echo "cluster holds $total sessions after restart, want 12" >&2; exit 1; }

kill -TERM $b2 $rt 2>/dev/null || true
echo "chaos smoke OK: $n1 sessions failed over ($prom promotions, 0 failed handoffs)"
