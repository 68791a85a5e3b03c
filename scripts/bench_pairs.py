#!/usr/bin/env python3
"""A/B the benchmark's end-to-end metrics between two checkouts.

Runs `python3 perfbench/run.py --workload <name> --seed S --trace 0` once in
each checkout per pair, for every workload of this checkout's `perfbench/`.
The two sides alternate which runs first: the parent in even pairs. Each run
works in its own checkout directory, where `run.py` imports `src/`. The
result is written as JSON: the hardware, the command, the seed, the method,
the claim, every pair's values, and per metric each side's quartiles, the
pairs the change wins, the change of the median and the parent's IQR:

    python3 scripts/bench_pairs.py ../parent --pairs 10 --seed 3 \\
        --out BENCH_14.json --claim offset-snr20-l48 vs_reference "at least 30% higher"

`--change DIR` runs another checkout than this one as the change; a copy
keeps the runs apart from edits made while they go on. `--workload` runs
only the named workloads, such as the claimed one on a second seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                         f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def hardware(checkout: Path, workload: str, seed: int) -> dict:
    """The hardware block of the report the last run in ``checkout`` wrote."""
    report = checkout / ".perfbench_run" / f"report-{workload}-seed{seed}-trace0.json"
    return json.loads(report.read_text())["hardware"]


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarise(pairs, better: dict) -> dict:
    """Per metric: both sides' quartiles, wins, ties and the median's change."""
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {
            "better": direction,
            "parent": qp,
            "change": qc,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
            "median_change_frac": (qc["median"] / qp["median"] - 1.0
                                   if qp["median"] else None),
            "parent_iqr": qp["q3"] - qp["q1"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, default=ROOT,
                   help="checkout of the change (default: this one)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    p.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "EXPECTED"))
    p.add_argument("--title", default="")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = {
        "title": args.title,
        "hardware": None,
        "command": f"python3 perfbench/run.py --workload <name> --seed {args.seed} "
                   f"--trace 0 --seconds {seconds:g}",
        "seed": args.seed,
        "run_seconds": seconds,
        "method": f"{args.pairs} pairs per workload; parent and change alternate which "
                  "runs first (the parent in even pairs); each run in its own checkout "
                  "directory; wins count pairs where the change is better, ties count "
                  "for neither",
        "claim": (dict(zip(("workload", "metric", "expected"), args.claim))
                  if args.claim else None),
        "workloads": {},
    }
    for wl in args.workload:
        pairs, correct = [], True
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                res = run_once(dirs[side], wl, args.seed, seconds)
                correct &= res["correct"]
                pair[side] = {name: res["metrics"][name]["value"] for name in better}
            pairs.append(pair)
            print(f"{wl} pair {i}: " + ", ".join(
                f"{side} vs_reference {pair[side]['vs_reference']:.3f}" for side in SIDES),
                file=sys.stderr)
        result["hardware"] = hardware(dirs["change"], wl, args.seed)
        result["workloads"][wl] = {"pairs": pairs, "all_correct": correct,
                                   "summary": summarise(pairs, better)}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
