"""Command-line front end: calibration runs, speedup profiling, solution-table
builds, constrained multiplies on file-based matrices, and sweep experiments
emitting CSV. Every run writes a JSON manifest describing its inputs."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, calibration, controller, matrixio, packing
from .blocking import tiered_gemm
from .config import EngineConfig, dtype_of
from .errors import (
    CalibrationMissingError,
    EngineError,
    InfeasibleConstraintError,
    NonFiniteInputError,
)

TABLE_FILES = {
    "calibration": "calibration.csv",
    "speedup": "speedup.csv",
    "solutions": "solutions.csv",
}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, args, inputs, outputs) -> None:
    manifest = {
        "command": command,
        "seed": args.seed,
        "engine": {"L": args.l, "precision": args.precision, "mode": args.mode},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_tables(tables_dir: Path, need=("calibration", "solutions")):
    out = {}
    loaders = {
        "calibration": calibration.load_calibration,
        "speedup": calibration.load_speedup,
        "solutions": calibration.load_solutions,
    }
    for name in need:
        path = tables_dir / TABLE_FILES[name]
        if not path.exists():
            raise CalibrationMissingError(f"missing {name} table: {path}")
        out[name] = loaders[name](path)
    return out


def _w_set_for_l(L: int, requested) -> tuple:
    return tuple(w for w in requested if L % w == 0)


def cmd_calibrate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = calibration.CalibrationTable()
    for w in args.w:
        entries = calibration.measure_repr_noise(
            args.l, args.precision, args.mode, w, trials=args.trials, seed=args.seed
        )
        table.extend(entries)
        for e in entries:
            z = packing.compute_z(e.rmax)
            wef = packing.compute_wef(z, e.rmax, EngineConfig(
                b_repr=4 if args.precision == "single" else 8).u_sys)
            print(f"W={w} rmax={e.rmax} exact-region bound W_ef={wef} rmse={e.rmse:.6g}")
    path = out_dir / TABLE_FILES["calibration"]
    calibration.save_calibration(table, path)
    _write_manifest(out_dir, "calibrate", args, [], [path])
    return 0


def cmd_profile(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = calibration.measure_speedup_profile(
        args.l, args.precision, args.mode,
        w_set=_w_set_for_l(args.l, args.w),
        repetitions=args.reps, seed=args.seed,
    )
    path = out_dir / TABLE_FILES["speedup"]
    calibration.save_speedup(profile, path)
    for e in profile.entries:
        print(f"W={e.w} gain={e.fw_percent:.1f}% mac_ratio={e.mac_ratio}")
    _write_manifest(out_dir, "profile", args, [], [path])
    return 0


def cmd_solutions(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = _load_tables(Path(args.tables), need=("calibration",))
    sigmas = calibration.log_sigma_grid(per_decade=args.per_decade)
    pairs = [(sa, sb) for sa in sigmas for sb in sigmas]
    table = calibration.build_offline_solutions(
        pairs, tables["calibration"], args.precision, args.mode, args.l,
        w_set=_w_set_for_l(args.l, args.w),
    )
    path = out_dir / TABLE_FILES["solutions"]
    calibration.save_solutions(table, path)
    print(f"{len(table.rows)} solutions over {len(pairs)} sigma pairs")
    _write_manifest(out_dir, "solutions", args, [Path(args.tables) / TABLE_FILES["calibration"]], [path])
    return 0


def _overall_model_snr(plan: controller.KernelPlan, kernel_stats, L: int) -> float:
    signal = 0.0
    noise = 0.0
    for key, entry in plan.entries.items():
        signal += L * sum((s.sigma_a * s.sigma_b) ** 2 for s in kernel_stats[key])
        noise += entry.total_d_hat
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def _measured_snr(ref: np.ndarray, got: np.ndarray) -> float:
    err = got.astype(np.float64) - ref.astype(np.float64)
    p_err = float((err * err).sum())
    p_sig = float((ref.astype(np.float64) ** 2).sum())
    if p_err == 0.0:
        return math.inf
    return 10.0 * math.log10(p_sig / p_err)


def _load_finite_matrix(path) -> np.ndarray:
    """The matrix in ``path``; NonFiniteInputError names its first NaN or infinity."""
    m = matrixio.load_matrix(path)
    if not np.isfinite(m).all():
        row, col = np.argwhere(~np.isfinite(m))[0]
        raise NonFiniteInputError(
            f"{path}: non-finite value {m[row, col]} at row {row}, column {col}"
        )
    return m


def cmd_multiply(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    a = _load_finite_matrix(args.a)
    b = _load_finite_matrix(args.b)
    L = args.l
    report = {}
    t0 = time.perf_counter()
    if args.plain:
        plan = None
        result = tiered_gemm(a, b, L)
    else:
        tables = _load_tables(Path(args.tables))
        profile = None
        speedup_path = Path(args.tables) / TABLE_FILES["speedup"]
        if speedup_path.exists():
            profile = calibration.load_speedup(speedup_path)
        if args.snr_db is not None:
            constraint = controller.KernelConstraint(target_snr_db=args.snr_db)
        else:
            constraint = controller.KernelConstraint(target_accel_percent=args.accel_percent)
        w_set = _w_set_for_l(L, tables["solutions"].ws())
        plan = controller.plan_gemm(
            a, b, L, constraint, tables["solutions"], tables["calibration"],
            args.mode, args.precision, profile=profile, w_set=w_set,
        )
        result = tiered_gemm(a, b, L, plan)
    report["wallclock_s"] = time.perf_counter() - t0
    result_path = out_dir / "result.tgmm"
    matrixio.save_matrix(result, result_path)
    if plan is not None:
        kernel_stats = controller.kernel_input_stats(a, b, L)
        model_snr = _overall_model_snr(plan, kernel_stats, L)
        report["model_snr_db"] = model_snr
        report["w_histogram"] = {str(k): v for k, v in sorted(plan.w_histogram().items())}
        controller.dump_plan(plan, out_dir / "plan.csv")
    if args.verify:
        ref = tiered_gemm(a, b, L)
        report["measured_snr_db"] = _measured_snr(ref, result)
        if plan is not None and math.isfinite(report.get("model_snr_db", math.inf)):
            report["model_gap_db"] = abs(report["measured_snr_db"] - report["model_snr_db"])
    report_path = out_dir / "multiply_report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    _write_manifest(out_dir, "multiply", args, [Path(args.a), Path(args.b)],
                    [result_path, report_path])
    return 0


MAX_E_CHOICES = np.arange(4.0, 2049.0, 1.0)


def _sweep_inputs(L: int, blocks: int, precision: str, seed: int):
    """Per-subblock uniform tiles with amplitudes drawn from a fixed ladder."""
    dtype = dtype_of(precision)
    rng = np.random.default_rng([seed, 7])
    n = blocks * L
    a = np.empty((n, n), dtype=dtype)
    b = np.empty((n, n), dtype=dtype)
    for m, dst in ((0, a), (1, b)):
        for i in range(blocks):
            for j in range(blocks):
                max_e = rng.choice(MAX_E_CHOICES)
                tile = rng.uniform(-max_e, max_e, size=(L, L))
                dst[i * L:(i + 1) * L, j * L:(j + 1) * L] = tile.astype(dtype)
    return a, b


def cmd_sweep(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = _load_tables(Path(args.tables))
    L = args.l
    a, b = _sweep_inputs(L, args.blocks, args.precision, args.seed)
    ref = tiered_gemm(a, b, L)
    t0 = time.perf_counter()
    tiered_gemm(a, b, L)
    t_plain = time.perf_counter() - t0
    blocks = args.blocks
    kernels = [(i, j) for i in range(blocks) for j in range(blocks)]
    rows = []
    w = args.sweep_w
    # options depend only on the inputs, so every step reuses them
    options_per_kernel = {
        key: controller.build_options(
            stats_per_l, tables["solutions"], args.mode, args.precision,
            tables["calibration"], w_set=(w,),
        )
        for key, stats_per_l in controller.kernel_input_stats(a, b, L).items()
    }
    for step in range(11):
        pct = 10 * step
        n_acc = round(len(kernels) * pct / 100)
        plan = controller.KernelPlan()
        packed_subblocks = 0
        for idx, key in enumerate(kernels):
            options = options_per_kernel[key]
            if idx < n_acc:
                choices = [opts[0] for opts in options]
            else:
                choices = [opts[-1] for opts in options]
            plan.entries[key] = controller.KernelPlanEntry(
                choices=choices,
                total_d_hat=sum(o.d_hat for o in choices),
                accel_percent=sum(o.fw_percent for o in choices) / len(choices),
            )
            packed_subblocks += sum(1 for o in choices if o.w > 1)
        t0 = time.perf_counter()
        got = tiered_gemm(a, b, L, plan)
        t_packed = time.perf_counter() - t0
        total_subblocks = len(kernels) * blocks
        macs_plain = total_subblocks
        macs_packed = (total_subblocks - packed_subblocks) + packed_subblocks / w
        rows.append({
            "accel_pct": pct,
            "measured_snr_db": _measured_snr(ref, got),
            "mac_ratio": macs_plain / macs_packed,
            "wallclock_ratio": t_plain / t_packed,
        })
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="") as f:
        f.write(f"# version {calibration.FORMAT_VERSION}\n")
        writer = csv.writer(f)
        writer.writerow(["accel_pct", "measured_snr_db", "mac_ratio", "wallclock_ratio"])
        for r in rows:
            snr = "inf" if math.isinf(r["measured_snr_db"]) else repr(r["measured_snr_db"])
            writer.writerow([r["accel_pct"], snr, repr(r["mac_ratio"]),
                             repr(r["wallclock_ratio"])])
    print(f"wrote {path}")
    _write_manifest(out_dir, "sweep", args, [], [path])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tdgemm",
                                description="precision-scalable GEMM engine")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l", type=int, default=48, help="inner-kernel tile side")
    p.add_argument("--precision", choices=["single", "double"], default="single")
    p.add_argument("--mode", choices=["symmetric", "asymmetric"], default="symmetric")
    p.add_argument("--tables", default="tables", help="directory holding table CSVs")
    p.add_argument("--out", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="measure representation-noise curves")
    c.add_argument("--w", type=int, nargs="+", default=[2, 3, 4])
    c.add_argument("--trials", type=int, default=5)
    c.set_defaults(func=cmd_calibrate)

    c = sub.add_parser("profile", help="measure wall-clock speedup per W")
    c.add_argument("--w", type=int, nargs="+", default=[2, 3, 4])
    c.add_argument("--reps", type=int, default=5)
    c.set_defaults(func=cmd_profile)

    c = sub.add_parser("solutions", help="precompute the compander solution table")
    c.add_argument("--w", type=int, nargs="+", default=[2, 3, 4])
    c.add_argument("--per-decade", type=int, default=8)
    c.set_defaults(func=cmd_solutions)

    c = sub.add_parser("multiply", help="constrained multiply of two matrix files")
    c.add_argument("a")
    c.add_argument("b")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--snr-db", type=float)
    g.add_argument("--accel-percent", type=float)
    g.add_argument("--plain", action="store_true")
    c.add_argument("--verify", action="store_true")
    c.set_defaults(func=cmd_multiply)

    c = sub.add_parser("sweep", help="accelerated-fraction sweep, CSV output")
    c.add_argument("--blocks", type=int, default=2, help="kernel grid side in tiles")
    c.add_argument("--sweep-w", type=int, default=2)
    c.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleConstraintError as exc:
        print(f"infeasible constraint: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
