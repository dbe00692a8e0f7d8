#!/usr/bin/env bash
# Build (Release) and run every benchmark binary, refreshing bench_results/.
#
# Each bench writes bench_results/NAME.txt (stdout); stderr goes to
# bench_results/NAME.err only when non-empty, so a clean run leaves no .err
# files behind. Streams are generated once and cached under PDW_CACHE_DIR
# (default /tmp/pdw_stream_cache); the first run is much slower than later
# ones.
#
# After the run, every "##json {...}" line the benches printed (see
# benchutil::json_metric) plus bench_codec_micro's google-benchmark JSON is
# consolidated into bench_results/BENCH_RESULTS.json: one flat list of
# {name, value, unit} records stamped with the git sha and date.
#
# Usage: scripts/run_benches.sh [build_dir]
#   PDW_FRAMES=N     frames per generated stream (default 48)
#   PDW_KERNELS=...  force a kernel dispatch level (scalar|sse2|avx2)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-bench}"
results="$repo/bench_results"

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j"$(nproc)"

mkdir -p "$results"

benches=(
  bench_codec_micro
  bench_table1_levels
  bench_table4_streams
  bench_table5_fig6_framerate
  bench_table6_fig8_resolution
  bench_fig7_breakdown
  bench_fig9_bandwidth
  bench_ablation_mei
  bench_ablation_sph
  bench_ablation_zerocopy
  bench_ablation_adaptive
  bench_fault_recovery
  bench_overload
  bench_chaos_soak
  bench_socket_wall
)

for name in "${benches[@]}"; do
  bin="$build/bench/$name"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }
  echo "=== $name ==="
  args=()
  if [ "$name" = bench_codec_micro ]; then
    # Both google-benchmark generations accept this via the bench's own
    # flag normalization (1.7 wants a plain double, 1.8+ the "s" suffix).
    args+=(--benchmark_min_time=0.2s)
    args+=(--benchmark_out="$results/$name.json"
           --benchmark_out_format=json)
  fi
  rm -f "$results/$name.err"
  if ! "$bin" "${args[@]}" > "$results/$name.txt" 2> "$results/$name.err"; then
    echo "FAILED: $name (see $results/$name.err)" >&2
    exit 1
  fi
  # Keep .err only if something was actually printed there.
  [ -s "$results/$name.err" ] || rm -f "$results/$name.err"
done

# Consolidate every bench's ##json lines (plus the google-benchmark JSON from
# bench_codec_micro, reduced to ns/op per kernel) into one machine-readable
# file keyed by the exact source revision.
python3 - "$results" <<'PY'
import json, os, subprocess, sys
from datetime import datetime, timezone

results = sys.argv[1]
metrics = []
for name in sorted(os.listdir(results)):
    if not name.endswith('.txt'):
        continue
    bench = name[:-4]
    with open(os.path.join(results, name)) as f:
        for line in f:
            if not line.startswith('##json '):
                continue
            rec = json.loads(line[len('##json '):])
            rec['bench'] = bench
            metrics.append(rec)

micro = os.path.join(results, 'bench_codec_micro.json')
if os.path.exists(micro):
    with open(micro) as f:
        for b in json.load(f).get('benchmarks', []):
            if b.get('run_type') == 'aggregate':
                continue
            metrics.append({
                'name': b['name'],
                'value': b['real_time'],
                'unit': b.get('time_unit', 'ns') + '/op',
                'bench': 'bench_codec_micro',
            })

def git(*args):
    try:
        return subprocess.check_output(('git',) + args, text=True).strip()
    except Exception:
        return 'unknown'

out = {
    'git_sha': git('rev-parse', 'HEAD'),
    'git_branch': git('rev-parse', '--abbrev-ref', 'HEAD'),
    'date': datetime.now(timezone.utc).isoformat(timespec='seconds'),
    'frames': int(os.environ.get('PDW_FRAMES', '48')),
    'metrics': metrics,
}
path = os.path.join(results, 'BENCH_RESULTS.json')
with open(path, 'w') as f:
    json.dump(out, f, indent=1)
    f.write('\n')
print(f'wrote {path}: {len(metrics)} metrics @ {out["git_sha"][:12]}')

# Alloc gate: the zero-copy ablation reports steady-state pool misses per
# picture (hot-path mallocs after warm-up). The pooled pipeline must run
# alloc-free — any nonzero value is a regression and fails the whole run.
gate = [m for m in metrics if m['name'].endswith('steady_misses_per_pic')]
if not gate:
    sys.exit('alloc gate: no steady_misses_per_pic metrics found '
             '(bench_ablation_zerocopy missing from the run?)')
bad = [m for m in gate if m['value'] > 0]
for m in bad:
    print(f"alloc gate FAILED: {m['name']} = {m['value']} allocs/pic",
          file=sys.stderr)
if bad:
    sys.exit(1)
print(f'alloc gate OK: {len(gate)} configs at 0 hot-path mallocs/picture')

# Chaos gate: every seeded chaos schedule must have held the full invariant
# suite (the binary also exits nonzero on failure; this catches a stale or
# truncated results file).
total = [m for m in metrics if m['name'] == 'chaos_schedules_total']
ok = [m for m in metrics if m['name'] == 'chaos_schedules_ok']
if not total or not ok:
    sys.exit('chaos gate: schedule metrics missing '
             '(bench_chaos_soak absent from the run?)')
if total[0]['value'] != ok[0]['value']:
    sys.exit(f"chaos gate FAILED: {ok[0]['value']:.0f}/"
             f"{total[0]['value']:.0f} schedules held their invariants")
print(f"chaos gate OK: {ok[0]['value']:.0f}/{total[0]['value']:.0f} "
      'schedules held every invariant')
PY

echo "done: results in $results"
