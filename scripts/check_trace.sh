#!/usr/bin/env bash
# Traced 2x2-wall smoke: run wall_player with PDW_TRACE on the smallest
# catalog stream, then validate the emitted Chrome trace-event JSON against
# scripts/trace_schema.jq and require a non-empty metrics snapshot.
#
# Usage: scripts/check_trace.sh [build_dir] [out_dir]
#        scripts/check_trace.sh --merged TRACE [min_pids]
#
# --merged validates an already-written merged multi-process trace (from the
# telemetry collector) instead of running wall_player: the per-stage schema
# plus the multi-pid extensions — at least min_pids distinct pids (default
# 2), cross-process flow events paired by id, every flow finishing at or
# after its start, and globally non-decreasing rebased timestamps.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"

if [[ "${1:-}" == "--merged" ]]; then
  trace="${2:?usage: check_trace.sh --merged TRACE [min_pids]}"
  min_pids="${3:-2}"
  test -s "$trace" || { echo "FAIL: $trace missing or empty" >&2; exit 1; }
  jq -e --arg min_pids "$min_pids" --arg require_flows 1 \
    --arg check_sorted 1 --arg check_causal 1 \
    -f "$here/trace_schema.jq" "$trace" > /dev/null \
    || { echo "FAIL: $trace violates trace_schema.jq (merged mode)" >&2
         exit 1; }
  pids="$(jq '[.traceEvents[] | select(.ph == "X" or .ph == "i") | .pid] | unique | length' "$trace")"
  flows="$(jq '[.traceEvents[] | select(.ph == "s")] | length' "$trace")"
  echo "merged trace ok: $trace" \
    "($(jq '.traceEvents | length' "$trace") events, $pids pids," \
    "$flows flows)"
  exit 0
fi

build="$(cd "${1:-build}" && pwd)"
out="${2:-trace_smoke}"
mkdir -p "$out"

trace="$out/wall_2x2.json"
metrics="${trace%.json}.metrics.json"

# Run from $out so the player's wall snapshots land there too.
(cd "$out" && PDW_TRACE="$(basename "$trace")" \
  "$build/examples/wall_player" 1 2 2 2 16) \
  | tee "$out/wall_player.log"

test -s "$trace" || { echo "FAIL: $trace missing or empty" >&2; exit 1; }
test -s "$metrics" || { echo "FAIL: $metrics missing or empty" >&2; exit 1; }

jq -e -f "$here/trace_schema.jq" "$trace" > /dev/null \
  || { echo "FAIL: $trace violates trace_schema.jq" >&2; exit 1; }
echo "trace ok: $trace ($(jq '.traceEvents | length' "$trace") events," \
  "$(jq '.otherData.droppedEvents' "$trace") dropped)"

jq -e '.metrics | type == "array" and length > 0' "$metrics" > /dev/null \
  || { echo "FAIL: $metrics has an empty metrics set" >&2; exit 1; }
echo "metrics ok: $metrics ($(jq '.metrics | length' "$metrics") series)"
