#!/usr/bin/env python3
"""sha256 of every non-timing output of the benchmark workloads.

For each workload in `perfbench/workloads.py` and each seed, runs
`calibrate` -> `solutions` -> `multiply` through `tdgemm.cli.main` with the
workload's flags, in a temporary directory, and prints one line per output:

    <workload> seed=<seed> <file> <sha256>

for `calibration.csv`, `solutions.csv`, `plan.csv`, `result.tgmm` and
`multiply_report.json` with `wallclock_s` and `timings` left out. `--src`
runs another checkout's `src/` on the same workloads, so two versions give
the same outputs when their lines are equal. `--against DIR` compares the
two in one command: it runs the checkout at DIR's `src/` in a subprocess
on the same seeds, prints every line that differs on either side, and
exits 1 if any does:

    python3 scripts/output_digests.py --seeds 1 7 11 --against ../parent

The workloads always come from this checkout's `perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

TABLES = ("calibration.csv", "solutions.csv")
OUTPUTS = ("plan.csv", "result.tgmm")


def _run(cli, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"tdgemm {' '.join(argv)} exited {code}")


def digests(wl, seed: int, work: Path) -> list:
    """(file, sha256) of one workload's outputs at ``seed``, built in ``work``."""
    from tdgemm import cli, matrixio

    tables, out = work / "tables", work / "out"
    a, b = wl.inputs(seed)
    matrixio.save_matrix(a, work / "a.tgmm")
    matrixio.save_matrix(b, work / "b.tgmm")
    _run(cli, wl.calibrate_argv(seed, str(tables)))
    _run(cli, wl.solutions_argv(seed, str(tables)))
    _run(cli, wl.multiply_argv(seed, str(tables), str(out), str(work / "a.tgmm"),
                               str(work / "b.tgmm")))
    files = [tables / name for name in TABLES] + [out / name for name in OUTPUTS]
    rows = [(f.name, hashlib.sha256(f.read_bytes()).hexdigest()) for f in files]
    report = json.loads((out / "multiply_report.json").read_text())
    del report["wallclock_s"], report["timings"]
    text = json.dumps(report, sort_keys=True).encode()
    rows.append(("multiply_report.json-without-timings", hashlib.sha256(text).hexdigest()))
    return rows


def lines(seeds, echo: bool) -> list:
    """One ``<workload> seed=<seed> <file> <sha256>`` line per output."""
    out = []
    for name, wl in WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                for file, digest in digests(wl, seed, Path(work)):
                    out.append(f"{name} seed={seed} {file} {digest}")
                    if echo:
                        print(out[-1], flush=True)
    return out


def compare(seeds, other: Path) -> int:
    """Print every line that differs between this run and the checkout at
    ``other``, run in a subprocess; 1 if any does."""
    run = subprocess.run([sys.executable, __file__, "--src", str(other / "src"), "--seeds",
                          *map(str, seeds)], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        raise SystemExit(f"{other}: output_digests exited {run.returncode}")
    theirs = run.stdout.splitlines()
    ours = lines(seeds, echo=False)
    differ = [f"{other}: {ln}" for ln in theirs if ln not in ours]
    differ += [f"this: {ln}" for ln in ours if ln not in theirs]
    for ln in differ:
        print(ln)
    print(f"{len(differ)} of {len(ours) + len(theirs)} lines differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory that holds the tdgemm package to run")
    p.add_argument("--against", type=Path, metavar="DIR",
                   help="checkout to compare with: print the lines that differ, "
                        "exit 1 if any does")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    if args.against is not None:
        return compare(args.seeds, args.against.resolve())
    lines(args.seeds, echo=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
