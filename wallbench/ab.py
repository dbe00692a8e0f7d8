#!/usr/bin/env python3
"""Compare two checkouts on the wall benchmark, alternating which goes first.

    python3 wallbench/ab.py --a ../parent --b . --workload orion_socket \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Each seed runs both checkouts back to back. The first seed runs A first, the
second B first, and so on, so slow host drift (on a shared 4-core host the
serial decoder's speed has moved by 20% within minutes) lands on both sides
alike. Every run's
mpeg2.serial_fps is printed beside wall_fps so drift stays visible. Per
metric the script prints each side's median and quartiles and how many pairs
B won, using the "better" direction in A's BENCHMARK.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, args, seed):
    cmd = ["python3", "wallbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    serial = re.search(r"mpeg2\.serial_fps ([\d.]+)", proc.stdout)
    result["serial_fps"] = float(serial.group(1)) if serial else float("nan")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="baseline checkout root")
    ap.add_argument("--b", required=True, help="candidate checkout root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((Path(args.a) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {"A": [], "B": []}
    for i, seed in enumerate(args.seeds):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            r = run(args.a if side == "A" else args.b, args, seed)
            runs[side].append(r)
            fps = r["metrics"].get("wall_fps", {}).get("value", float("nan"))
            print(f"seed {seed} {side}: wall_fps {fps:.1f}  "
                  f"mpeg2.serial_fps {r['serial_fps']:.1f}", flush=True)

    print(f"\n{'metric':34s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s}  B wins")
    for name in runs["A"][0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        fmt = lambda v: "%.4g [%.4g, %.4g]" % (statistics.median(v),
                                               *quartiles(v))
        print(f"{name:34s} {fmt(a):>30s} {fmt(b):>30s}  {wins}/{len(a)}")


if __name__ == "__main__":
    main()
