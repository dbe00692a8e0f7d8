#!/usr/bin/env bash
# Multi-process wall smoke: launch one wall_node process per node on UDP
# loopback, let them rendezvous and decode a 2x2 wall, then merge the
# per-process reports and check them against the single-threaded reference
# (`wall_node --check`): message counts, traffic matrix, per-tile frame
# digests — bit-exact, zero degraded tiles.
#
# Two legs:
#   clean — plain loopback; the equivalence gate (socket-host wire
#           accounting must match the in-process engine's).
#   lossy — every node's seeded fault injector drops 5% / dups 2% / delays
#           5% of the datagrams it receives (the same flags go to every
#           node); the gate is still bit-exact output (retransmission must
#           recover everything, abandon nothing).
#
# Usage: scripts/socket_smoke.sh [build_dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
bin="$build/examples/wall_node"
[ -x "$bin" ] || { echo "missing $bin (build the wall_node target)" >&2; exit 1; }

# 1 root + 2 splitters + 2x2 tiles = 7 nodes.
k=2 m=2 n=2
nodes=$((1 + k + m * n))
stream=(--k "$k" --m "$m" --n "$n" --width 256 --height 192 --frames 8)

run_leg() {
  local leg="$1"; shift
  local port="$1"; shift
  local dir; dir="$(mktemp -d "/tmp/pdw_socket_smoke_${leg}.XXXXXX")"
  trap 'rm -rf "$dir"' RETURN

  echo "=== socket smoke: $leg (port $port, $nodes processes) ==="
  local pids=() reports=()
  for ((node = nodes - 1; node >= 1; node--)); do
    timeout 120 "$bin" --node "$node" "${stream[@]}" --rv-port "$port" \
      --report "$dir/r$node" "$@" &
    pids+=($!)
    reports+=("$dir/r$node")
  done
  # Node 0 hosts the rendezvous listener; run it in the foreground so its
  # exit code gates the leg.
  timeout 120 "$bin" --node 0 "${stream[@]}" --rv-port "$port" \
    --report "$dir/r0" "$@"
  local rc=0
  for pid in "${pids[@]}"; do wait "$pid" || rc=$?; done
  [ "$rc" -eq 0 ] || { echo "socket smoke: $leg node exited $rc" >&2; exit 1; }

  "$bin" --check "${stream[@]}" --reports "$dir/r0" "${reports[@]}"
}

run_leg clean 47381
run_leg lossy 47391 --loss 0.05 --dup 0.02 --delay 0.05 --impair-seed 11

echo "socket smoke: both legs PASS"
