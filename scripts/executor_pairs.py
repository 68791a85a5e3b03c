#!/usr/bin/env python3
"""A/B the multiply's planner and executor between two checkouts, without
the benchmark.

For each workload in this checkout's `perfbench/workloads.py`, the inputs
are drawn from `--seed`, `tdgemm calibrate` builds the tables and
`controller.plan_gemm` plans the multiply once, all with this checkout.
Then rounds alternate between the two checkouts (the parent first in even
rounds), each round one fresh subprocess per side on one BLAS thread that
imports its checkout's `src/` and times, on the same inputs and plan:

- `tiered_gemm(a, b, L, plan, backend="blas")`: the median of `--reps`
  calls after one warm-up call;
- `prepare_ms`, the stacked operand pass alone: `packing.prepare_operands`
  on a new `Workspace` with every packed operand key of the plan, as
  `tiered_gemm` runs it before its first product, timed the same way
  after every other measure (not measured on a checkout without
  `prepare_operands`);
- one memo-hit `packed_subblock_product`: a symmetric W=2 call on the
  workload's first L x L tiles, whose named operands a first call put in
  the workspace memo; the median of `--reps` batches of calls;
- `plan_gemm` on a table `load_calibration` reads from the workload's
  `calibration.csv` each call, as `tdgemm multiply` runs them: the median of
  `--reps` calls after one warm-up call. The child first checks that its
  plan's options are, byte for byte, the plan this checkout saved, so a
  run also checks that the two checkouts plan alike.

It prints, per workload and measure, each side's median and IQR over the
rounds, the median over rounds of the change's time over the parent's in
the same round (pairing cancels most of the host's drift), and the rounds
the change was faster:

    python3 scripts/executor_pairs.py ../parent --rounds 10 --seed 29
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")
MEASURES = ("tiered_gemm_ms", "prepare_ms", "memo_hit_us", "plan_gemm_ms")

# one round of one side: argv[1] is its src/, argv[2] the inputs, argv[3] reps
CHILD = r"""
import json, statistics, sys, time
from types import SimpleNamespace
sys.path.insert(0, sys.argv[1])
import numpy as np
from tdgemm import blocking, calibration, controller, packing

d = np.load(sys.argv[2])
reps = int(sys.argv[3])
a, b, L = d["a"], d["b"], int(d["L"])
plan = SimpleNamespace(mode=str(d["mode"]), options=d["options"])

def median_s(fn, batch=1):
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)

gemm_s = median_s(lambda: blocking.tiered_gemm(a, b, L, plan, backend="blas"))
z, c_a, c_b, rmax = d["memo_cfg"].tolist()
cfg = packing.PackingConfig(packing.SYMMETRIC, 2, z, c_a, c_b, int(rmax))
work = packing.Workspace(L, a.dtype)
at, bt = a[:L, :L], b[:L, :L]
hit_s = median_s(lambda: packing.packed_subblock_product(at, bt, cfg, work, ((0, 0), (0, 0))),
                 batch=max(1, 200000 // L ** 2))

flag, value = d["constraint"].tolist()
constraint = controller.KernelConstraint(
    **{"target_snr_db" if flag == "--snr-db" else "target_accel_percent": float(value)})

def plan_gemm():
    calib = calibration.load_calibration(str(d["calibration"]))
    return controller.plan_gemm(a, b, L, constraint, calib, plan.mode, "single",
                                w_set=tuple(d["ws"].tolist()))

if plan_gemm().options.tobytes() != d["options"].tobytes():
    raise SystemExit("this checkout's plan differs from the saved plan")
plan_s = median_s(plan_gemm)
prep_s = float("nan")  # last, so that its allocations do not precede the other measures
if hasattr(packing, "prepare_operands"):
    keys = blocking.operand_keys(plan)
    prep_s = median_s(lambda: packing.prepare_operands(packing.Workspace(L, a.dtype),
                                                       plan.mode, (a, b), keys))
print(json.dumps({"tiered_gemm_ms": gemm_s * 1e3, "prepare_ms": prep_s * 1e3,
                  "memo_hit_us": hit_s * 1e6,
                  "plan_gemm_ms": plan_s * 1e3}))
"""


def plan_inputs(wl, seed: int, tmp: Path) -> Path:
    """The workload's inputs and this checkout's plan of them, saved to one
    ``.npz`` with the path of the calibration table, the constraint and the
    W's it was planned from; also the configuration of the memo-hit call: that of the
    plan's first W=2 subblock or, on a plan that packs nothing, companders
    that scale both tiles to at most 16 and the z of that bound."""
    from tdgemm import calibration, cli, controller, packing

    a, b = wl.inputs(seed)
    tables = tmp / f"tables-{wl.name}"
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(wl.calibrate_argv(seed, str(tables))) != 0:
            raise SystemExit(f"calibrate failed on {wl.name}")
    calib = calibration.load_calibration(tables / "calibration.csv")
    flag, value = wl.constraint
    constraint = (controller.KernelConstraint(target_snr_db=float(value))
                  if flag == "--snr-db" else
                  controller.KernelConstraint(target_accel_percent=float(value)))
    plan = controller.plan_gemm(a, b, wl.L, constraint, calib, wl.mode, "single",
                                w_set=wl.ws)
    w2 = plan.options.reshape(-1)[plan.options.reshape(-1)["w"] == 2]
    if len(w2):
        memo_cfg = [w2[0]["z"], w2[0]["c_a"], w2[0]["c_b"], w2[0]["rmax"]]
    else:
        c = 16.0 / float(max(np.abs(a[:wl.L, :wl.L]).max(), np.abs(b[:wl.L, :wl.L]).max()))
        rmax = packing.compute_rmax(c, c, wl.L, 16.0 / c, 16.0 / c)
        memo_cfg = [packing.compute_z(rmax), c, c, rmax]
    path = tmp / f"{wl.name}.npz"
    np.savez(path, a=a, b=b, L=wl.L, mode=plan.mode, options=plan.options,
             memo_cfg=np.array(memo_cfg, dtype=np.float64),
             calibration=str(tables / "calibration.csv"), constraint=np.array(wl.constraint),
             ws=np.array(wl.ws))
    return path


def run_side(checkout: Path, inputs: Path, reps: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), str(inputs),
                          str(reps)], capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise SystemExit(f"round in {checkout} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, default=ROOT,
                   help="checkout of the change (default: this one)")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--reps", type=int, default=15)
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = p.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            inputs = plan_inputs(WORKLOADS[name], args.seed, Path(tmp))
            rounds = []
            for r in range(args.rounds):
                order = SIDES if r % 2 == 0 else SIDES[::-1]
                rounds.append({side: run_side(dirs[side], inputs, args.reps)
                               for side in order})
            for m in MEASURES:
                vals = {s: np.array([rd[s][m] for rd in rounds]) for s in SIDES}
                sides = [s for s in SIDES if not np.isnan(vals[s]).any()]
                q = {s: np.percentile(vals[s], [25, 50, 75]) for s in sides}
                line = f"{name} {m}: " + "  ".join(
                    f"{s} {q[s][1]:.4g} (IQR {q[s][0]:.4g}-{q[s][2]:.4g})" for s in sides)
                if len(sides) == 2:
                    ratio = np.median(vals["change"] / vals["parent"])
                    wins = int((vals["change"] < vals["parent"]).sum())
                    line += (f"  change/parent per round {ratio:.3f}"
                             f"  change faster in {wins} of {args.rounds}")
                else:
                    line += f"  (not measured on {', '.join(sorted(set(SIDES) - set(sides)))})"
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
