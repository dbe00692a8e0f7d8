#!/usr/bin/env bash
# Cluster observability smoke: the multi-process wall streaming itself to a
# live collector, end to end.
#
# Leg 1 (merged trace): a 7-process 1-2-(2,2) wall, every wall_node exporting
# telemetry to `wall_top --remote`; gates on wall_top exiting complete (all 7
# nodes seen + all byes), on the merged Perfetto trace passing the multi-pid
# schema (7 distinct pids, cross-process flow events that finish at or after
# their start, monotone rebased timestamps), and on the per-process reports
# matching the lockstep reference bit-exactly (wall_node --check).
#
# Leg 2 (flight recorder): the same wall with per-node flight recorders and a
# live 2 s heartbeat timeout; one decoder kills itself mid-run (SIGTERM after
# 8 displayed pictures). Gates on the victim dying by SIGTERM with a
# "signal:15" flight dump holding its last spans AND wire events, on the
# survivors adopting the dead tile and exiting cleanly, and on the root's
# death_declared dump existing.
#
# Usage: scripts/obs_smoke.sh [build_dir] [out_dir]
set -euo pipefail

build="$(cd "${1:-build}" && pwd)"
out="${2:-obs_smoke}"
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

node_bin="$build/examples/wall_node"
top_bin="$build/examples/wall_top"
stream=(--k 2 --m 2 --n 2 --width 384 --height 288 --frames 48)
rv_port=47411
tele_port=47412

echo "== leg 1: 7-process wall + collector -> one merged trace =="
"$top_bin" --remote $tele_port --expect 7 --duration 60 \
  --trace "$out/merged.json" --refresh 200 > "$out/wall_top.log" 2>&1 &
top_pid=$!
sleep 0.3

pids=()
for i in 0 1 2 3 4 5 6; do
  "$node_bin" --node $i "${stream[@]}" --rv-port $rv_port \
    --report "$out/r$i" --telemetry-port $tele_port \
    --telemetry-interval 0.1 --timeout 60 > "$out/node$i.log" 2>&1 &
  pids+=($!)
done
for p in "${pids[@]}"; do
  wait "$p" || { echo "FAIL: a wall_node exited nonzero" >&2; exit 1; }
done
wait "$top_pid" \
  || { echo "FAIL: wall_top --remote incomplete" >&2
       tail -20 "$out/wall_top.log" >&2; exit 1; }

"$here/check_trace.sh" --merged "$out/merged.json" 7

"$node_bin" --check "${stream[@]}" \
  --reports "$out"/r0 "$out"/r1 "$out"/r2 "$out"/r3 "$out"/r4 "$out"/r5 \
  "$out"/r6 \
  || { echo "FAIL: merged reports do not match the lockstep reference" >&2
       exit 1; }

echo
echo "== leg 2: kill a decoder mid-run -> flight-recorder post-mortem =="
flight="$out/flight"
mkdir -p "$flight"
rv_port=$((rv_port + 10))

pids=()
for i in 0 1 2 3 4 5 6; do
  extra=()
  [ $i -eq 6 ] && extra=(--die-after 8)
  "$node_bin" --node $i "${stream[@]}" --rv-port $rv_port \
    --report "$flight/r$i" --flight-dir "$flight" --hb-timeout 2 \
    --timeout 60 "${extra[@]}" > "$out/kill_node$i.log" 2>&1 &
  pids+=($!)
done
codes=()
for p in "${pids[@]}"; do
  set +e; wait "$p"; codes+=($?); set -e
done
echo "exit codes: ${codes[*]}"
[ "${codes[6]}" -eq 143 ] \
  || { echo "FAIL: victim should die by SIGTERM (143), got ${codes[6]}" >&2
       exit 1; }
for i in 0 1 2 3 4 5; do
  [ "${codes[$i]}" -eq 0 ] \
    || { echo "FAIL: survivor node $i exited ${codes[$i]}" >&2; exit 1; }
done

victim_dump="$(ls "$flight"/flight_node6_*.json | head -1)"
jq -e '.reason == "signal:15"
       and (.spans | type == "array" and length > 0)
       and (.wire | type == "array" and length > 0)
       and (.metrics.metrics | type == "array" and length > 0)' \
  "$victim_dump" > /dev/null \
  || { echo "FAIL: $victim_dump is not a valid post-mortem" >&2; exit 1; }
echo "victim dump ok: $victim_dump" \
  "($(jq '.spans | length' "$victim_dump") spans," \
  "$(jq '.wire | length' "$victim_dump") wire events)"

root_dump="$(ls "$flight"/flight_node0_*.json | head -1)"
jq -e '.reason == "death_declared"' "$root_dump" > /dev/null \
  || { echo "FAIL: root dump is not a death_declared post-mortem" >&2
       exit 1; }
echo "root dump ok: $root_dump"

echo
echo "obs smoke PASS"
