"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` — the per-test PASSED/FAILED
column is the per-criterion verdict; each test also prints a summary line
(visible with ``-s`` or on failure).
"""

import math

import numpy as np
import pytest

from helpers import batch_stats
from tdgemm import calibration as cal, cli, controller as ctl, matrixio, noise, packing
from tdgemm.blocking import BACKENDS, plain_subblock_gemm, tiered_gemm
from tdgemm.config import dtype_of, u_sys_of

L = 48
SEED = 202


def verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def calib48():
    t = cal.CalibrationTable()
    t.extend(cal.measure_repr_noise(L, "single", "symmetric", 2, trials=5, seed=SEED))
    t.extend(cal.measure_repr_noise(L, "single", "asymmetric", 2, trials=5, seed=SEED))
    t.extend(cal.measure_repr_noise(L, "double", "symmetric", 4, trials=5, seed=SEED))
    return t


def test_criterion_01_exact_region():
    """Pack-multiply-unpack is bit-exact wherever the engine claims exactness."""
    rng = np.random.default_rng(SEED)
    amax = bmax = 1
    rmax = packing.compute_rmax(1.0, 1.0, L, amax, bmax)
    z = packing.compute_z(rmax)
    checked = []
    for precision in ("single", "double"):
        dtype = dtype_of(precision)
        wef = packing.compute_wef(z, rmax, u_sys_of(precision))
        for mode in packing.MODES:
            w_top = min(wef, packing.exact_packing_limit(rmax, z, mode, precision), 4)
            assert w_top >= 2
            for w in range(2, w_top + 1):
                for _ in range(200):
                    at = rng.integers(-amax, amax + 1, size=(L, L)).astype(dtype)
                    bt = rng.integers(-bmax, bmax + 1, size=(L, L)).astype(dtype)
                    got = packing.packed_product(at, bt, mode, w, z)
                    exact = at.astype(np.int64) @ bt.astype(np.int64)
                    np.testing.assert_array_equal(got.astype(np.int64), exact)
                checked.append((precision, mode, w))
    verdict(1, len(checked) >= 6,
            f"bit-exact round trips over {len(checked)} (precision, mode, W) configs "
            f"x 200 pairs at rmax={rmax}")


@pytest.mark.xfail(
    strict=True,
    reason="the published packing-count bound is necessary but not sufficient: "
    "single precision at rmax=48 gives W_ef=4 yet W=4 is never exact "
    "(see the decisions ledger)",
)
def test_criterion_01_published_bound_alone():
    rng = np.random.default_rng(SEED)
    rmax = packing.compute_rmax(1.0, 1.0, L, 1, 1)
    z = packing.compute_z(rmax)
    w = packing.compute_wef(z, rmax, u_sys_of("single"))
    assert w == 4
    at = rng.integers(-1, 2, size=(L, L)).astype(np.float32)
    bt = rng.integers(-1, 2, size=(L, L)).astype(np.float32)
    got = packing.packed_product(at, bt, packing.SYMMETRIC, w, z)
    np.testing.assert_array_equal(got.astype(np.int64), at.astype(np.int64) @ bt.astype(np.int64))


def test_criterion_02_quantization_noise_oracle():
    """Monte-Carlo quantization error power matches the closed form within 2%."""
    rng = np.random.default_rng(SEED + 1)
    n = 1024  # n*n > 1e6 inner products per setting
    sa, sb = 20.0, 30.0  # coarse grids break the uniform-rounding-noise premise
    worst = 0.0
    for dist in ("uniform", "gaussian"):
        if dist == "uniform":
            a = rng.uniform(-sa * math.sqrt(3), sa * math.sqrt(3), size=(n, L))
            b = rng.uniform(-sb * math.sqrt(3), sb * math.sqrt(3), size=(L, n))
        else:
            a = rng.normal(0.0, sa, size=(n, L))
            b = rng.normal(0.0, sb, size=(L, n))
        exact = a @ b
        st = batch_stats([(sa, sb, -1, 1, -1, 1)], L)
        for c_a, c_b in ((1.0, 1.0), (4.0, 0.5), (2.0, 3.0)):
            qa = packing.round_half_away(c_a * a) / c_a
            qb = packing.round_half_away(c_b * b) / c_b
            measured = float(((qa @ qb - exact) ** 2).mean())
            predicted = noise.quant_noise_power(st, c_a, c_b).item()
            worst = max(worst, abs(measured / predicted - 1.0))
    verdict(2, worst < 0.02,
            f"worst closed-form deviation {worst * 100:.2f}% over 6 settings "
            f"x {n * n} inner products")


def _measured_point_snr(entry, rng, trials=5):
    """Measured subblock SNR at one calibrated operating point."""
    dtype = dtype_of(entry.precision)
    ext = 10.0
    st = batch_stats([(ext / math.sqrt(3), ext / math.sqrt(3), -ext, ext, -ext, ext)], L)
    sol = noise.optimal_companders(st, entry.rmax, w=entry.w)
    cfg = packing.PackingConfig(mode=entry.mode, w=entry.w, z=packing.compute_z(entry.rmax),
                                c_a=sol.c_a.item(), c_b=sol.c_b.item(), rmax=entry.rmax)
    cfg.validate()
    p_sig = p_err = 0.0
    for _ in range(trials):
        a = rng.uniform(-ext, ext, size=(L, L)).astype(dtype)
        b = rng.uniform(-ext, ext, size=(L, L)).astype(dtype)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        got = packing.packed_subblock_product(a, b, cfg)
        p_sig += float((exact ** 2).sum())
        p_err += float(((got - exact) ** 2).sum())
    ratio = noise.signal_power(st) / noise.combined_distortion(st, sol.c_a, sol.c_b,
                                                              entry.rmse).total
    return 10.0 * math.log10(p_sig / p_err), 10.0 * math.log10(ratio.item())


def test_criterion_03_model_fidelity(calib48):
    """Predicted vs measured subblock SNR within 1 dB across the grid."""
    rng = np.random.default_rng(SEED + 2)
    gaps = []
    for precision, w, cap in (("single", 2, None), ("double", 4, 120000)):
        for entry in calib48.slice(precision, "symmetric", w):
            if cap is not None and entry.rmax > cap:
                continue
            measured, predicted = _measured_point_snr(entry, rng)
            gaps.append(abs(measured - predicted))
    worst = max(gaps)
    verdict(3, worst <= 1.0,
            f"worst |measured - predicted| SNR gap {worst:.3f} dB over {len(gaps)} grid points")


def test_criterion_04_reference_calibration_point():
    """Benchmark-scale single/symmetric/W=2 noise at rmax=316800."""
    entries = cal.measure_repr_noise(288, "single", "symmetric", 2,
                                     sweep=[(22, 50)], trials=5, seed=SEED)
    e = entries[0]
    assert e.rmax == 316800
    # the published normalization divides the Frobenius error norm by the
    # element count, i.e. per-element values are further divided by L
    s_norm = (e.rmse / 288) / e.rmax
    m_norm = (abs(e.mean_err) / 288) / e.rmax
    verdict(4, s_norm < 4e-4 and m_norm < 1e-6,
            f"s/rmax={s_norm:.3e} (< 4e-4), |m|/rmax={m_norm:.3e} (< 1e-6)")


def test_criterion_05_packing_count_bound_values():
    z = packing.compute_z(32768)
    wef_single = packing.compute_wef(z, 32768, u_sys_of("single"))
    wef_double = packing.compute_wef(z, 32768, u_sys_of("double"))
    verdict(5, (wef_single, wef_double) == (2, 4),
            f"W_ef at rmax=32768: single={wef_single} (want 2), double={wef_double} (want 4)")


def _all_w2_plan(a, b, mode, calib):
    """Each subblock's top ladder row of W=2 options: W=2 wherever it has one."""
    stats = ctl.subblock_stats(a, b, L)
    ladder, top = ctl.option_ladder(
        ctl.build_options(stats, mode, "single", calib, w_set=(2,)), stats.shape)
    return ctl.fixed_plan(mode, np.take_along_axis(ladder, top[None], 0)[0])


def test_criterion_06_mode_ordering(calib48):
    """Symmetric packing is never noisier than asymmetric."""
    grid_ok = True
    for e_sym in calib48.slice("single", "symmetric", 2):
        e_asym = calib48.lookup("single", "asymmetric", 2, e_sym.rmax)
        if e_sym.rmse > e_asym.rmse + 1e-9:
            grid_ok = False
    a, b = cli._sweep_inputs(L, 2, "single", seed=SEED)
    ref = a.astype(np.float64) @ b.astype(np.float64)
    snr = {}
    for mode in packing.MODES:
        plan = _all_w2_plan(a, b, mode, calib48)
        got = tiered_gemm(a, b, L, plan).astype(np.float64)
        snr[mode] = 10.0 * math.log10(float((ref ** 2).sum()) /
                                      float(((got - ref) ** 2).sum()))
    sweep_ok = snr[packing.SYMMETRIC] > snr[packing.ASYMMETRIC]
    verdict(6, grid_ok and sweep_ok,
            f"grid RMSE ordering holds={grid_ok}; fully accelerated SNR "
            f"symmetric={snr[packing.SYMMETRIC]:.1f} dB > "
            f"asymmetric={snr[packing.ASYMMETRIC]:.1f} dB")


def test_criterion_07_error_source_independence():
    """Quantization and representation errors are uncorrelated."""
    rng = np.random.default_rng(SEED + 3)
    c = 8.0
    ext = 10.0
    rmax = packing.compute_rmax(c, c, L, ext, ext)
    z = packing.compute_z(rmax)
    e_quant, e_repr = [], []
    for _ in range(30):
        a = rng.uniform(-ext, ext, size=(L, L)).astype(np.float32)
        b = rng.uniform(-ext, ext, size=(L, L)).astype(np.float32)
        at = packing.quantize_subblock(a, c)
        bt = packing.quantize_subblock(b, c)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        int_prod = at.astype(np.float64) @ bt.astype(np.float64)
        e_quant.append((int_prod / c ** 2 - exact).ravel())
        packed = packing.packed_product(at, bt, packing.SYMMETRIC, 2, z).astype(np.float64)
        e_repr.append(((packed - int_prod) / c ** 2).ravel())
    corr = float(np.corrcoef(np.concatenate(e_quant), np.concatenate(e_repr))[0, 1])
    verdict(7, abs(corr) < 0.05, f"|Pearson correlation| = {abs(corr):.4f} (< 0.05)")


def _w2_options(ds):
    """One option array per subblock: W=2 predicting ``ds[l]`` at a 100% gain,
    then W=1."""
    return [np.array([(l, l, 2, 1.0, 1.0, 100, 2.0 ** -10, d, 100.0),
                      (l, l, 1, 1.0, 1.0, 0, 0.0, 0.0, 0.0)], dtype=ctl.OPTION_DTYPE)
            for l, d in enumerate(ds)]


def test_criterion_08_controller_correctness(calib48):
    import itertools

    rng = np.random.default_rng(SEED + 4)
    # (a) the greedy plan always meets its distortion budget
    bound_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 7))
        ds = rng.uniform(0.0, 10.0, size=k)
        budget = float(rng.uniform(0.0, 20.0))
        if ctl.plan_kernel_distortion(_w2_options(ds), budget).total_d_hat.item() > budget + 1e-12:
            bound_ok = False
    # (b) greedy acceleration equals the exhaustive maximum for K/L <= 4, W in {1,2}
    exhaustive_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 5))
        ds = rng.uniform(0.01, 10.0, size=k)
        budget = float(rng.uniform(0.0, 15.0))
        fw = ctl.plan_kernel_distortion(_w2_options(ds), budget).options["fw_percent"]
        best = max(
            (100.0 * sum(bits) / k
             for bits in itertools.product([0, 1], repeat=k)
             if sum(d for d, bit in zip(ds, bits) if bit) <= budget),
            default=0.0,
        )
        if abs(ctl.ordered_sum(fw.reshape(-1)) / k - best) > 1e-9:
            exhaustive_ok = False
    # (c) a zero distortion budget reproduces the plain output bitwise, on
    # each plain backend
    a = rng.uniform(-8, 8, size=(2 * L, 2 * L)).astype(np.float32)
    b = rng.uniform(-8, 8, size=(2 * L, 2 * L)).astype(np.float32)
    plan = ctl.plan_gemm(a, b, L, ctl.KernelConstraint(target_snr_db=math.inf),
                         calib48, "symmetric", "single", w_set=(2,))
    plain_ok = all(np.array_equal(tiered_gemm(a, b, L, plan, backend=backend),
                                  tiered_gemm(a, b, L, backend=backend))
                   for backend in BACKENDS)
    verdict(8, bound_ok and exhaustive_ok and plain_ok,
            f"budget respected={bound_ok}, greedy=exhaustive={exhaustive_ok}, "
            f"zero-budget bitwise-plain={plain_ok}")


def test_criterion_09_throughput():
    """MAC ratio is exactly W; the packed W=2 pipeline beats plain at L=288.

    Each call is timed in this process's CPU time, so another process
    loading the host does not count against either side."""
    import time

    rng = np.random.default_rng(SEED + 5)
    LB = 288
    a = packing.round_half_away(rng.uniform(-20, 20, size=(LB, LB)).astype(np.float32))
    b = packing.round_half_away(rng.uniform(-20, 20, size=(LB, LB)).astype(np.float32))
    rmax = packing.compute_rmax(1.0, 1.0, LB, 20, 20)
    z = packing.compute_z(rmax)

    def t_plain():
        t0 = time.process_time()
        plain_subblock_gemm(a, b)
        return time.process_time() - t0

    def t_packed():
        t0 = time.process_time()
        packing.packed_product(a, b, packing.SYMMETRIC, 2, z)
        return time.process_time() - t0

    t_plain(), t_packed()  # warm-up
    gains = []
    for _ in range(20):
        tp = min(t_plain() for _ in range(3))
        tq = min(t_packed() for _ in range(3))
        gains.append(tp / tq - 1.0)
    median_gain = float(np.median(gains))
    profile = cal.measure_speedup_profile(L, "single", "symmetric", w_set=(2, 3, 4),
                                          repetitions=3, seed=SEED)
    mac_ok = all(e.mac_ratio == float(e.w) for e in profile.entries)
    verdict(9, mac_ok and median_gain > 0.0,
            f"MAC ratio equals W for all profiled W={mac_ok}; packed W=2 at L=288 "
            f"median gain {median_gain * 100:.0f}% over 20 trials")


def test_criterion_10_determinism(tmp_path):
    import csv as csv_mod
    import filecmp

    rng = np.random.default_rng(SEED + 6)
    LD = 12
    a = rng.uniform(-8, 8, size=(2 * LD, 2 * LD)).astype(np.float32)
    b = rng.uniform(-8, 8, size=(2 * LD, 2 * LD)).astype(np.float32)
    matrixio.save_matrix(a, tmp_path / "a.tgmm")
    matrixio.save_matrix(b, tmp_path / "b.tgmm")
    for run in ("r1", "r2"):
        base = tmp_path / run
        tables = str(base / "tables")
        assert cli.main(["--l", str(LD), "--out", tables,
                         "calibrate", "--w", "2", "--trials", "2"]) == 0
        assert cli.main(["--l", str(LD), "--tables", tables, "--out", tables,
                         "solutions", "--w", "2", "--per-decade", "1"]) == 0
        assert cli.main(["--l", str(LD), "--tables", tables, "--out", str(base / "mul"),
                         "multiply", str(tmp_path / "a.tgmm"), str(tmp_path / "b.tgmm"),
                         "--snr-db", "25"]) == 0
        assert cli.main(["--l", str(LD), "--tables", tables, "--out", str(base / "sw"),
                         "sweep", "--blocks", "2"]) == 0
    same_calib = filecmp.cmp(tmp_path / "r1/tables/calibration.csv",
                             tmp_path / "r2/tables/calibration.csv", shallow=False)
    same_sols = filecmp.cmp(tmp_path / "r1/tables/solutions.csv",
                            tmp_path / "r2/tables/solutions.csv", shallow=False)
    same_result = filecmp.cmp(tmp_path / "r1/mul/result.tgmm",
                              tmp_path / "r2/mul/result.tgmm", shallow=False)

    def sweep_rows(p):
        with open(p) as f:
            f.readline()
            return [{k: v for k, v in r.items() if k != "wallclock_ratio"}
                    for r in csv_mod.DictReader(f)]

    same_sweep = sweep_rows(tmp_path / "r1/sw/sweep.csv") == \
        sweep_rows(tmp_path / "r2/sw/sweep.csv")
    verdict(10, same_calib and same_sols and same_result and same_sweep,
            f"identical reruns: calibration={same_calib}, solutions={same_sols}, "
            f"result={same_result}, sweep(non-timing)={same_sweep}")
