#!/usr/bin/env python3
"""Wall benchmark: steady fps, frame pacing and bring-up of the tiled-display
decoder, timed from the display callback, plus a per-layer probe trace.

    python3 wallbench/run.py --workload orion_socket --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call builds the `wallbench` binary
from src/ into wallbench/build; streams are generated once per (seed, frame
count) into wallbench/cache. Every workload step runs in its own process:

    gen     encode the seeded stream (untimed, cached)
    verify  serial decode + one wall pass, bit-exact frame by frame
    cold    first engine call of a fresh process, COLD_PROCESSES times
    run     warm passes for --seconds           (--trace 0: end-to-end)
    trace   probe replay, registry and tracer passes, DES (--trace 1)

run and trace time the serial decoder between their engine passes; that
figure, mpeg2.serial_fps, is printed beside wall_fps, with the per-pass
ranges of both, so a slower host shows up in the run it slowed.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics. Human-readable lines before it name every metric with its unit.
The command exits non-zero when any frame failed or a step did not finish.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / "build"
CACHE = BENCH / "cache"
OUT = BENCH / "out"
TMP = BENCH / "tmp"

WORKLOADS = ("orion_threaded", "orion_socket")
COLD_PROCESSES = 3
DEADLINE_S = 170  # all steps of one invocation, the build excluded


def log(msg):
    print(f"wallbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"decoder sources not found under {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True,
                           timeout=300)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "wallbench", "-j4"],
                       stdout=out, stderr=subprocess.STDOUT, check=True,
                       timeout=880)
    return BUILD / "wallbench"


class Steps:
    """Runs wallbench child processes against one overall deadline."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.common = ["--workload", workload, "--seed", str(seed),
                       "--cache", str(CACHE)]
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, mode, *extra):
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run([str(self.binary), mode, *self.common, *extra],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{mode} printed nothing")
        return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    for d in (CACHE, OUT, TMP):
        d.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)

    step = Steps(binary, args.workload, args.seed)
    metrics, units, notes = {}, {}, []
    attempted = failed = 0
    try:
        gen = step("gen")
        ver = step("verify")
        attempted += ver["attempted"]
        failed += ver["failed"]
        log(f"{args.workload} seed {args.seed}: {gen['pictures']:.0f} "
            f"pictures, verify {ver['compared']:.0f} frames compared, "
            f"{ver['mismatched']:.0f} mismatched")
        if args.trace == 0:
            setups = []
            for _ in range(COLD_PROCESSES):
                cold = step("cold")
                attempted += cold["attempted"]
                failed += cold["failed"]
                setups.append(cold["setup_s"])
            run = step("run", "--seconds", str(args.seconds))
            attempted += run["attempted"]
            failed += run["failed"]
            serial_fps = run["serial_fps"]
            passes = run
            for name, m in run["metrics"].items():
                metrics[name] = m["value"]
                units[name] = m["unit"]
            metrics["setup_s"] = statistics.median(setups)
            units["setup_s"] = "s"
            steal = run["pass_steal_pct"]
            notes.append(f"{run['passes_kept']:.0f} of {run['passes']:.0f} "
                         f"timed passes kept (steal <= 2% of the vCPUs; "
                         f"per pass {min(steal):.1f}..{max(steal):.1f}%)")
            notes.append(f"frame gaps: "
                         f"{run['gap_samples']:.0f} samples, "
                         f"{run['gap_samples_beyond_p90']:.0f} beyond p90; "
                         f"hosts teardown {run['teardown_ms']:.1f} ms")
        else:
            prefix = OUT / f"trace_{args.workload}_{args.seed}"
            tr = step("trace", "--seconds", str(args.seconds),
                      "--trace-out", str(prefix))
            attempted += tr["attempted"]
            failed += tr["failed"]
            serial_fps = tr["metrics"]["mpeg2.serial_fps"]["value"]
            passes = tr
            for name, m in tr["metrics"].items():
                metrics[name] = m["value"]
                units[name] = m["unit"]
            for part in ("probe", "engine"):
                trace_file = Path(f"{prefix}_{part}.json")
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                if not events:
                    raise RuntimeError(f"{trace_file} holds no trace events")
                notes.append(f"Perfetto trace {trace_file.relative_to(ROOT)}"
                             f" ({len(events)} events)")
            notes.append(f"untraced wall_fps {tr['wall_fps_untraced']:.1f}, "
                         f"DES error {tr['sim.signed_error_pct']:+.1f}%")
    except (RuntimeError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"{args.workload} seed {args.seed}: {e}")
        return 1

    correct = failed == 0 and ver["mismatched"] == 0 and \
        ver["compared"] == ver["attempted"]
    wall = (f"wall_fps {metrics['wall_fps']:.1f}  " if "wall_fps" in metrics
            else "")
    print(f"# {args.workload} seed {args.seed}: {wall}"
          f"mpeg2.serial_fps {serial_fps:.1f} (host-speed calibration)")
    wall_fps, serial = passes["pass_wall_fps"], passes["pass_serial_fps"]
    print(f"# per pass: wall_fps {min(wall_fps):.1f}..{max(wall_fps):.1f}, "
          f"mpeg2.serial_fps {min(serial):.1f}..{max(serial):.1f}")
    print(f"  {'frame_fail_ratio':34s} {failed / max(attempted, 1):.6g} "
          f"ratio ({failed} of {attempted} frames)")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
