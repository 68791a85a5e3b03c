"""Command-line front end: calibration runs, speedup profiling, solution-table
builds, constrained multiplies on file-based matrices, and sweep experiments
emitting CSV. ``multiply`` and ``sweep`` plan from ``calibration.csv``, and
``multiply`` from ``speedup.csv`` too when it exists; ``solutions.csv`` is an
offline report that no planner reads. ``multiply`` runs its plain products
(W=1 subblocks, borders and ``--plain``) on BLAS, ``blocking.MULTIPLY_BACKEND``,
and checks them under ``--verify`` against the order-matched reference
backend, which ``sweep`` runs throughout. Every run writes a JSON manifest
describing its inputs."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, calibration, controller, matrixio, packing
from .blocking import MULTIPLY_BACKEND, operand_keys, tiered_gemm
from .config import dtype_of, u_sys_of
from .errors import (
    CalibrationMissingError,
    EngineError,
    InfeasibleConstraintError,
    InvalidConfigError,
    NonFiniteInputError,
)

TABLE_FILES = {
    "calibration": "calibration.csv",
    "speedup": "speedup.csv",
    "solutions": "solutions.csv",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _blas_build() -> dict:
    """numpy version and the BLAS it was built against: ``multiply``'s plain
    products and its packed ones outside the exact region are reproducible
    from (seed, flags, inputs, BLAS build)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def _write_manifest(out_dir: Path, command: str, args, input_digests, outputs) -> None:
    manifest = {
        "build": _blas_build(),
        "command": command,
        "seed": args.seed,
        "engine": {"L": args.l, "precision": args.precision, "mode": args.mode},
        "input_digests": {str(p): d for p, d in input_digests.items()},
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_calibration(tables_dir: Path) -> calibration.CalibrationTable:
    path = tables_dir / TABLE_FILES["calibration"]
    if not path.exists():
        raise CalibrationMissingError(f"missing calibration table: {path}")
    return calibration.load_calibration(path)


def _w_set_for_l(L: int, requested) -> tuple:
    return tuple(w for w in requested if L % w == 0)


def _check_at_least_1(flag: str, *values) -> None:
    """Reject a flag that gave a value below 1."""
    if min(values) < 1:
        raise InvalidConfigError(f"{flag} must be >= 1, got {min(values)}")


def _requested_w_set(L: int, requested) -> tuple:
    """The W's of ``--w`` that divide L, of which there must be one."""
    _check_at_least_1("--w", *requested)
    ws = _w_set_for_l(L, requested)
    if not ws:
        raise InvalidConfigError(f"--w: no W of {list(requested)} divides L={L}")
    return ws


def _calibrated_w_set(calib: calibration.CalibrationTable, precision: str, mode: str,
                      L: int) -> tuple:
    """The W's ``calib`` holds for (precision, mode) that divide L."""
    ws = _w_set_for_l(L, calib.ws(precision, mode))
    if not ws:
        raise CalibrationMissingError(
            f"no calibration entries for ({precision}, {mode}) with a W that divides L={L}")
    return ws


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
            wef = packing.compute_wef(z, e.rmax, u_sys_of(args.precision))
            print(f"W={w} rmax={e.rmax} exact-region bound W_ef={wef} rmse={e.rmse:.6g}")
    path = out_dir / TABLE_FILES["calibration"]
    calibration.save_calibration(table, path)
    _write_manifest(out_dir, "calibrate", args, {}, [path])
    return 0


def cmd_profile(args) -> int:
    w_set = _requested_w_set(args.l, args.w)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = calibration.measure_speedup_profile(
        args.l, args.precision, args.mode,
        w_set=w_set,
        repetitions=args.reps, seed=args.seed,
    )
    path = out_dir / TABLE_FILES["speedup"]
    calibration.save_speedup(profile, path)
    for e in profile.entries:
        print(f"W={e.w} gain={e.fw_percent:.1f}% mac_ratio={e.mac_ratio}")
    _write_manifest(out_dir, "profile", args, {}, [path])
    return 0


def cmd_solutions(args) -> int:
    w_set = _requested_w_set(args.l, args.w)
    _check_at_least_1("--per-decade", args.per_decade)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    calib = _load_calibration(Path(args.tables))
    sigmas = calibration.log_sigma_grid(per_decade=args.per_decade)
    pairs = [(sa, sb) for sa in sigmas for sb in sigmas]
    table = calibration.build_offline_solutions(
        pairs, calib, args.precision, args.mode, args.l,
        w_set=w_set,
    )
    path = out_dir / TABLE_FILES["solutions"]
    calibration.save_solutions(table, path)
    print(f"{len(table.data)} solutions over {len(pairs)} sigma pairs")
    calib_path = Path(args.tables) / TABLE_FILES["calibration"]
    _write_manifest(out_dir, "solutions", args, {calib_path: _sha256(calib_path)}, [path])
    return 0


def _overall_model_snr(plan: controller.Plan, stats, L: int) -> float:
    """Model SNR of the whole product: signal and noise each add the kernels
    in C order, and a kernel's signal adds its subblocks in ascending l."""
    p = stats.sigma_a * stats.sigma_b  # shape (m/L, n/L, k/L)
    power = controller.ordered_sum(np.moveaxis(p * p, -1, 0))
    signal = float(controller.ordered_sum((L * power).reshape(-1)))
    noise = float(controller.ordered_sum(plan.total_d_hat.reshape(-1)))
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def _exact_subblocks(plan: controller.Plan, precision: str) -> int:
    """Packed subblocks inside the exact region: their outputs do not depend
    on the GEMM's summation order. The region is checked once per distinct
    (R_max, z, W) of the plan."""
    packed = plan.options[plan.options["w"] > 1]
    counts = Counter(zip(*(packed[f].tolist() for f in ("rmax", "z", "w"))))
    return sum(n for (rmax, z, w), n in counts.items()
               if w <= packing.exact_w_limit(rmax, z, plan.mode, precision, max_w=w))


def _packed_operand_tiles(plan: controller.Plan) -> int:
    """Operand tiles ``tiered_gemm`` quantizes and folds, all before its
    first product: the distinct (side, tile, W, z, c) of the plan
    (``blocking.operand_keys``). It keeps each one's packed operand for
    every subblock it enters."""
    return sum(len(set(keys)) for keys in operand_keys(plan))


def _measured_snr(ref: np.ndarray, got: np.ndarray) -> float:
    err = got.astype(np.float64) - ref.astype(np.float64)
    p_err = float((err * err).sum())
    p_sig = float((ref.astype(np.float64) ** 2).sum())
    if p_err == 0.0:
        return math.inf
    return 10.0 * math.log10(p_sig / p_err)


def _kernel_snrs(ref: np.ndarray, got: np.ndarray, L: int) -> np.ndarray:
    """Measured SNR of each L x L output kernel of the full-tile region,
    shape ``(m/L, n/L)``; +inf where a kernel has no error."""
    bi, bj = ref.shape[0] // L, ref.shape[1] // L
    r = ref[:bi * L, :bj * L].astype(np.float64)
    e = got[:bi * L, :bj * L].astype(np.float64) - r
    p_sig, p_err = ((x * x).reshape(bi, L, bj, L).sum(axis=(1, 3)) for x in (r, e))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p_err == 0.0, math.inf, 10.0 * np.log10(p_sig / p_err))


def _load_finite_matrix(path) -> np.ndarray:
    """The matrix in ``path``; NonFiniteInputError names its first NaN or infinity."""
    m = matrixio.load_matrix(path)
    # NaN propagates through min and max, and an infinity is an extreme
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
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
    want = np.dtype(dtype_of(args.precision))  # a plan reads the tables of --precision
    if not args.plain and (a.dtype, b.dtype) != (want, want):
        raise InvalidConfigError(f"--precision {args.precision} plans {want} inputs, "
                                 f"got {a.dtype} and {b.dtype}")
    L = args.l
    report = {}
    t0 = time.perf_counter()
    if args.plain:
        plan = None
        t_loaded = t_planned = t0
        result = tiered_gemm(a, b, L, backend=MULTIPLY_BACKEND)
    else:
        calib = _load_calibration(Path(args.tables))
        profile = None
        speedup_path = Path(args.tables) / TABLE_FILES["speedup"]
        if speedup_path.exists():
            profile = calibration.load_speedup(speedup_path)
        t_loaded = time.perf_counter()
        if args.snr_db is not None:
            constraint = controller.KernelConstraint(target_snr_db=args.snr_db)
        else:
            constraint = controller.KernelConstraint(target_accel_percent=args.accel_percent)
        w_set = _calibrated_w_set(calib, args.precision, args.mode, L)
        plan = controller.plan_gemm(a, b, L, constraint, calib, args.mode, args.precision,
                                    profile=profile, w_set=w_set)
        t_planned = time.perf_counter()
        result = tiered_gemm(a, b, L, plan, backend=MULTIPLY_BACKEND)
    t_done = time.perf_counter()
    report["wallclock_s"] = t_done - t0
    report["plain_backend"] = MULTIPLY_BACKEND
    report["timings"] = {"load_tables_s": t_loaded - t0, "plan_s": t_planned - t_loaded,
                         "execute_s": t_done - t_planned}
    result_path = out_dir / "result.tgmm"
    matrixio.save_matrix(result, result_path)
    if plan is not None:
        model_snr = _overall_model_snr(plan, controller.subblock_stats(a, b, L), L)
        report["model_snr_db"] = model_snr
        ws, counts = np.unique(plan.options["w"], return_counts=True)
        report["w_histogram"] = dict(zip(map(str, ws.tolist()), counts.tolist()))
        report["exact_subblocks"] = _exact_subblocks(plan, args.precision)
        report["packed_operand_tiles"] = _packed_operand_tiles(plan)
        controller.dump_plan(plan, out_dir / "plan.csv")
    if args.verify:
        ref = tiered_gemm(a, b, L)
        report["measured_snr_db"] = _measured_snr(ref, result)
        kernel_snr = _kernel_snrs(ref, result, L)
        if kernel_snr.size:
            worst = np.unravel_index(kernel_snr.argmin(), kernel_snr.shape)
            report["worst_kernel_snr_db"] = kernel_snr[worst].item()
            report["worst_kernel"] = [int(x) for x in worst]
            if args.snr_db is not None:
                report["kernels_below_floor"] = int((kernel_snr < args.snr_db).sum())
        if plan is not None and math.isfinite(report.get("model_snr_db", math.inf)):
            report["model_gap_db"] = abs(report["measured_snr_db"] - report["model_snr_db"])
    report_path = out_dir / "multiply_report.json"
    # strict JSON has no infinity: a non-finite SNR is written as sweep.csv writes it
    text = json.dumps({k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in report.items()}, indent=2, sort_keys=True, allow_nan=False)
    report_path.write_text(text + "\n")
    print(text)
    digests = {Path(args.a): matrixio.matrix_sha256(a), Path(args.b): matrixio.matrix_sha256(b)}
    _write_manifest(out_dir, "multiply", args, digests, [result_path, report_path])
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
    _check_at_least_1("--sweep-w", args.sweep_w)
    _check_at_least_1("--blocks", args.blocks)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    calib = _load_calibration(Path(args.tables))
    L = args.l
    a, b = _sweep_inputs(L, args.blocks, args.precision, args.seed)
    ref = tiered_gemm(a, b, L)
    t0 = time.perf_counter()
    tiered_gemm(a, b, L)
    t_plain = time.perf_counter() - t0
    blocks, w, rows = args.blocks, args.sweep_w, []
    # options depend only on the inputs, so every step reuses them: an
    # accelerated kernel runs each subblock's top ladder row, the others W=1
    stats = controller.subblock_stats(a, b, L)
    ladder, top = controller.option_ladder(
        controller.build_options(stats, args.mode, args.precision, calib, w_set=(w,)),
        stats.shape)
    kernel = np.arange(blocks * blocks).reshape(blocks, blocks, 1)
    for step in range(11):
        pct = 10 * step
        n_acc = round(blocks * blocks * pct / 100)
        chosen = np.where(kernel < n_acc, top, len(ladder) - 1)
        plan = controller.fixed_plan(args.mode, np.take_along_axis(ladder, chosen[None], 0)[0])
        packed = int((plan.options["w"] > 1).sum())
        t0 = time.perf_counter()
        got = tiered_gemm(a, b, L, plan)
        t_packed = time.perf_counter() - t0
        macs = blocks ** 3  # of the plain multiply, one per subblock
        rows.append((pct, _measured_snr(ref, got), macs / (macs - packed + packed / w),
                     t_plain / t_packed))
    path = out_dir / "sweep.csv"
    calibration.write_table(
        path, ["accel_pct", "measured_snr_db", "mac_ratio", "wallclock_ratio"], rows)
    print(f"wrote {path}")
    _write_manifest(out_dir, "sweep", args, {}, [path])
    return 0


@functools.cache  # built once per process: the parser is a constant
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
        _check_at_least_1("--l", args.l)
        return args.func(args)
    except InfeasibleConstraintError as exc:
        print(f"infeasible constraint: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
