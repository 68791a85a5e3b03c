"""The reference implementations the tests compare the program against, one
per behaviour.

Each is a slower or older form of what the program computes: a scalar loop
where the program runs an array pass, exact arithmetic where it rounds, or
a frozen copy of the code as it was before a rewrite. A new frozen copy goes
here and replaces any copy of the same behaviour; the test modules import
these and define none of their own (``test_oracle_guard.py`` checks both).
"""

import csv
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from helpers import batch_stats
from tdgemm import calibration as cal, controller as ctl, noise, packing
from tdgemm.blocking import plain_subblock_gemm
from tdgemm.config import dtype_of
from tdgemm.errors import (
    CalibrationMissingError, InfeasibleConstraintError, InvalidConfigError, TableFormatError,
)

# -- rounding, ties away from zero


def round_exact(v):
    """One float rounded in exact rational arithmetic; NaN and infinities
    pass through."""
    if not math.isfinite(v):
        return v
    return math.copysign(float(math.floor(abs(Fraction(v)) + Fraction(1, 2))), v)


def round_trunc(x):
    """A whole array rounded by ``trunc`` and its exact remainder, in the
    input dtype: the rounding stage the rint-based one replaced, which sets
    the bits of NaN of either sign, and the rounding of the frozen pipeline
    below. A per-element ``round_exact`` is too slow for its whole tiles."""
    arr = np.asarray(x)
    t = np.trunc(arr)
    with np.errstate(invalid="ignore"):
        up = np.abs(arr - t) >= 0.5
    return t + np.copysign(up, arr)


# -- plain products


def naive_gemm(a, b):
    """A @ B by the triple loop, the inner index innermost and ascending,
    each product and each sum rounded to the input dtype, every sum from
    +0.0: the rank-1 loop's operations, one output element at a time."""
    r = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    cols = [list(col) for col in b.T]
    for m, row in enumerate(a):
        row = list(row)
        for n, col in enumerate(cols):
            acc = a.dtype.type(0)
            for x, y in zip(row, col):
                acc += x * y
            r[m, n] = acc
    return r


def exact_int_product(at, bt):
    """The product of integer-valued tiles in int64."""
    return at.astype(np.int64) @ bt.astype(np.int64)


def order_matched_product(at, bt, mode, w, z):
    """pack -> order-matched ``plain_subblock_gemm`` -> unpack, on integer
    tiles: the packed product with the rank-1 loop's summation order."""
    if mode == packing.SYMMETRIC:
        abar, bbar = packing.pack_symmetric(at, bt, w, z)
        return packing.unpack_symmetric(plain_subblock_gemm(abar.values, bbar.values), z)
    abar = packing.pack_asymmetric(at, w, z)
    return packing.unpack_asymmetric(plain_subblock_gemm(abar.values, bt), z, w)


# -- the per-tile packed pipeline: the stages in their allocating form, with
# trunc-based rounding, as they were before they ran in place


def quantize(tile, c):
    return round_trunc(np.asarray(c * tile.astype(np.float64), dtype=tile.dtype))


def pack_symmetric(at, bt, w, z):
    L, dtype = at.shape[0], at.dtype
    zf, zinv = dtype.type(z), dtype.type(1.0 / z)
    abar = np.zeros((L, L // w), dtype=dtype)
    bbar = np.zeros((L // w, L), dtype=dtype)
    for i in range(w):
        abar += zf ** i * at[:, i::w]
        bbar += zinv ** i * bt[i::w, :]
    return abar, bbar


def unpack_symmetric(rbar, z):
    zf, zinv = rbar.dtype.type(z), rbar.dtype.type(1.0 / z)
    u = round_trunc(rbar)
    return u - zinv * round_trunc(zf * u)


def pack_asymmetric(at, w, z):
    L, dtype = at.shape[0], at.dtype
    zf = dtype.type(z)
    abar = np.zeros((L // w, L), dtype=dtype)
    for i in range(w):
        abar += zf ** i * at[i::w, :]
    return abar


def unpack_asymmetric(rbar, z, w):
    zinv = rbar.dtype.type(1.0 / z)
    out = np.empty((rbar.shape[0] * w, rbar.shape[1]), dtype=rbar.dtype)
    resid = rbar
    current = round_trunc(resid)
    out[0::w, :] = current
    for i in range(1, w):
        resid = zinv * (resid - current)
        current = round_trunc(resid)
        out[i::w, :] = current
    return out


def packed_subblock_product(a_tile, b_tile, cfg):
    at = quantize(a_tile, cfg.c_a)
    bt = quantize(b_tile, cfg.c_b)
    if cfg.mode == packing.SYMMETRIC:
        abar, bbar = pack_symmetric(at, bt, cfg.w, cfg.z)
        rt = unpack_symmetric(np.matmul(abar, bbar), cfg.z)
    else:
        abar = pack_asymmetric(at, cfg.w, cfg.z)
        rt = unpack_asymmetric(np.matmul(abar, bt), cfg.z, cfg.w)
    # the divisor is the companders' float64 product rounded to the tile
    # dtype, whatever their scalar type
    return rt / a_tile.dtype.type(float(cfg.c_a) * float(cfg.c_b))


def tiered_gemm(a, b, L, configs, product=packed_subblock_product):
    """The blocked product subblock by subblock: each kernel sums its
    subblocks from zeros in ascending l, subblock l of kernel ``(i, j)``
    through ``product`` where ``configs[i][j][l]`` is a PackingConfig and on
    the order-matched ``plain_subblock_gemm`` where it is None, as are the
    borders."""
    r = np.zeros((a.shape[0], b.shape[1]), a.dtype)
    bi, bj = len(configs), len(configs[0])
    for i, j in np.ndindex(bi, bj):
        acc = np.zeros((L, L), a.dtype)
        for l, cfg in enumerate(configs[i][j]):
            at = a[i * L:(i + 1) * L, l * L:(l + 1) * L]
            bt = b[l * L:(l + 1) * L, j * L:(j + 1) * L]
            acc += plain_subblock_gemm(at, bt) if cfg is None else product(at, bt, cfg)
        r[i * L:(i + 1) * L, j * L:(j + 1) * L] = acc
    if bi * L < a.shape[0]:
        r[bi * L:] = plain_subblock_gemm(a[bi * L:], b)
    if bj * L < b.shape[1]:
        r[:bi * L, bj * L:] = plain_subblock_gemm(a[:bi * L], b[:, bj * L:])
    return r


def kernel_snrs(ref, got, L):
    """The measured SNR of each L x L output kernel of the full-tile region,
    by ``(i, j)``, summed in float64 one kernel at a time; +inf where a
    kernel has no error."""
    snr = {}
    for i, j in np.ndindex(ref.shape[0] // L, ref.shape[1] // L):
        r = ref[i * L:(i + 1) * L, j * L:(j + 1) * L].astype(np.float64)
        e = got[i * L:(i + 1) * L, j * L:(j + 1) * L].astype(np.float64) - r
        p_err = float((e * e).sum())
        snr[i, j] = math.inf if p_err == 0 else 10.0 * math.log10(float((r * r).sum()) / p_err)
    return snr


# -- per-tile statistics


def tile_stats(m, L):
    """``(sigma, min, max)`` of each L x L tile of ``m``'s full-tile region,
    by block row, one tile at a time in float64."""
    out = []
    for i in range(m.shape[0] // L):
        row = []
        for j in range(m.shape[1] // L):
            t = np.ascontiguousarray(m[i * L:(i + 1) * L, j * L:(j + 1) * L])
            t = t.astype(np.float64, copy=False)
            sigma = float(t.std(ddof=1)) if t.size > 1 else 0.0
            row.append((sigma, float(t.min()), float(t.max())))
        out.append(row)
    return out


def kernel_stats(a, b, L):
    """Per output kernel ``(i, j)``, in C order, the BatchStats of its
    subblocks, one entry per l, from ``tile_stats``."""
    ta, tb = tile_stats(a, L), tile_stats(b, L)
    out = {}
    for i, j in np.ndindex(a.shape[0] // L, b.shape[1] // L):
        out[i, j] = batch_stats([(ta[i][l][0], tb[l][j][0], *ta[i][l][1:], *tb[l][j][1:])
                                 for l in range(a.shape[1] // L)], L)
    return out


# -- the planner: the per-kernel planner before batching


def left_sum(xs):
    """Floats added left to right from 0, as ``sum`` added them for the
    frozen distortion planner. CPython 3.12 made ``sum`` of floats
    compensated; the lockstep prune keeps the left-to-right order."""
    total = 0
    for x in xs:
        total += x
    return total


def snr_to_distortion(s_kernel_db, sigma_pairs, L):
    power = 0.0
    for sa, sb in sigma_pairs:
        if sa < 0 or sb < 0:
            raise InvalidConfigError("sigmas must be >= 0")
        p = sa * sb
        power += p * p
    if math.isinf(s_kernel_db):
        return 0.0
    return 10.0 ** (-0.1 * s_kernel_db) * L * power


class KernelChoice(NamedTuple):
    """What the per-kernel loops chose for one kernel: its option rows,
    total, mean gain, and steps ``(l, from_w, to_w, removed_d_hat,
    total_after)``."""

    choices: np.ndarray
    total_d_hat: float
    accel_percent: float
    prune_trace: list


def _value(opts, i, name):
    """Field ``name`` of row i of an option array, as a Python scalar."""
    return opts[i][name].item()


def _choice(options_per_l, idx, trace, add=sum):
    choices = np.array([opts[i] for opts, i in zip(options_per_l, idx)], dtype=ctl.OPTION_DTYPE)
    return KernelChoice(
        choices=choices,
        total_d_hat=add(choices["d_hat"].tolist()),
        accel_percent=add(choices["fw_percent"].tolist()) / len(choices),
        prune_trace=trace,
    )


def plan_kernel_distortion(options_per_l, d_kernel):
    """The per-kernel greedy loop the lockstep prune replaced."""
    if d_kernel < 0:
        raise InvalidConfigError(f"distortion budget must be >= 0, got {d_kernel}")
    idx = [0] * len(options_per_l)
    trace = []
    while True:
        total = left_sum(_value(opts, i, "d_hat") for opts, i in zip(options_per_l, idx))
        if total <= d_kernel:
            break
        worst = max(
            range(len(idx)),
            key=lambda l: (_value(options_per_l[l], idx[l], "d_hat"), -l),
        )
        opts, i = options_per_l[worst], idx[worst]
        idx[worst] += 1
        removed = _value(opts, i, "d_hat")
        trace.append((worst, _value(opts, i, "w"), _value(opts, i + 1, "w"), removed,
                      total - removed + _value(opts, i + 1, "d_hat")))
    return _choice(options_per_l, idx, trace, add=left_sum)


def plan_kernel_throughput(options_per_l, f_kernel):
    n = len(options_per_l)
    idx = [0] * n

    def mean_accel():
        return sum(_value(opts, i, "fw_percent") for opts, i in zip(options_per_l, idx)) / n

    accel = mean_accel()
    if accel < f_kernel:
        raise InfeasibleConstraintError(
            f"acceleration floor {f_kernel}% exceeds the achievable maximum {accel:.4g}%",
            achievable_percent=accel,
        )
    trace = []
    while True:
        order = sorted(
            (l for l in range(n) if idx[l] + 1 < len(options_per_l[l])),
            key=lambda l: (-_value(options_per_l[l], idx[l], "d_hat"), l),
        )
        demoted = False
        for l in order:
            opts, i = options_per_l[l], idx[l]
            idx[l] += 1
            accel = mean_accel()
            if accel < f_kernel:
                idx[l] -= 1
                accel = mean_accel()
                continue
            total = sum(_value(o, j, "d_hat") for o, j in zip(options_per_l, idx))
            trace.append((l, _value(opts, i, "w"), _value(opts, i + 1, "w"),
                          _value(opts, i, "d_hat"), total))
            demoted = True
            break
        if not demoted:
            break
    return _choice(options_per_l, idx, trace)


def build_options(stats_per_l, mode, precision, calib, profile, w_set, k=0):
    """One option array per subblock of kernel k, each subblock at flat
    position ``k * n_l + l``; a W's R_max is the one ``build_solutions``
    gives the sigma pair (1, 1)."""
    options_per_l = []
    for l in range(stats_per_l.shape[0]):
        p = k * stats_per_l.shape[0] + l
        stats = stats_per_l.take([l])
        opts = []
        if not (stats.sigma_a.item() <= 0 or stats.sigma_b.item() <= 0):
            for w in sorted(set(w_set), reverse=True):
                if w < 2:
                    continue
                fw = profile.fw(precision, mode, w) if profile is not None else (w - 1) * 100.0
                if fw <= 0:
                    continue
                (row,), _ = build_solutions([(1.0, 1.0)], calib, precision, mode, stats.L, (w,))
                rmax = row[3]
                s_repr = calib.lookup(precision, mode, w, rmax).rmse
                # per-operand companders: each tile's from R_max, L and its own absmax
                root = math.sqrt(rmax / stats.L)
                c_a = root / max(abs(stats.a_min.item()), abs(stats.a_max.item()))
                c_b = root / max(abs(stats.b_min.item()), abs(stats.b_max.item()))
                d_hat = noise.combined_distortion(stats, c_a, c_b, s_repr).total
                opts.append((p, l, w, c_a, c_b, rmax, packing.compute_z(rmax), d_hat.item(), fw))
        opts.append((p, l, 1, 1.0, 1.0, 0, 0.0, 0.0, 0.0))
        options_per_l.append(np.array(opts, dtype=ctl.OPTION_DTYPE))
    return options_per_l


def plan_gemm(a, b, L, constraint, calib, mode, precision, profile, w_set):
    """Each kernel's KernelChoice, by ``(i, j)`` in C order."""
    entries = {}
    for k, (key, stats_per_l) in enumerate(kernel_stats(a, b, L).items()):
        options = build_options(stats_per_l, mode, precision, calib, profile, w_set, k)
        if constraint.target_snr_db is not None:
            d_kernel = snr_to_distortion(
                constraint.target_snr_db,
                zip(stats_per_l.sigma_a.tolist(), stats_per_l.sigma_b.tolist()), L)
            entries[key] = plan_kernel_distortion(options, d_kernel)
        else:
            entries[key] = plan_kernel_throughput(options, constraint.target_accel_percent)
    return entries


def prune_records(steps, k=0):
    """A per-kernel loop's steps as the ``PRUNE_DTYPE`` records of kernel k."""
    return np.array([(k, *step) for step in steps], dtype=ctl.PRUNE_DTYPE)


def lockstep_trace(entries):
    """The per-kernel loops' steps of many kernels as ``PRUNE_DTYPE``
    records in the lockstep prune's order: by step, and within a step by
    kernel."""
    steps = sorted((s, k, step) for k, entry in enumerate(entries)
                   for s, step in enumerate(entry.prune_trace))
    return np.array([(k, *step) for _s, k, step in steps], dtype=ctl.PRUNE_DTYPE)


def best_gain(ds, budget):
    """The highest mean gain, in percent, over every choice of W=2 (a 100%
    gain, predicting ``ds[l]``) or W=1 (no gain, no distortion) per
    subblock whose predictions sum within ``budget``."""
    return max(100.0 * sum(bits) / len(ds) for bits in itertools.product([0, 1], repeat=len(ds))
               if sum(d for d, bit in zip(ds, bits) if bit) <= budget)


def least_distortion(ds, floor):
    """The lowest summed prediction over every such choice whose mean gain
    reaches ``floor`` (less 1e-9); inf if none does."""
    return min((sum(d for d, bit in zip(ds, bits) if bit)
                for bits in itertools.product([0, 1], repeat=len(ds))
                if 100.0 * sum(bits) / len(ds) >= floor - 1e-9), default=math.inf)


# -- calibration


def repr_noise(L, precision, mode, w, sweep, trials, seed):
    """``measure_repr_noise`` as the loop that took every reference in
    float64: per sweep point, ``trials`` integer tile pairs from the point's
    own generator, the packed product's error against their float64
    product."""
    dtype = dtype_of(precision)
    out = []
    for idx, (amax, bmax) in enumerate(sweep):
        rmax = packing.compute_rmax(1.0, 1.0, L, amax, bmax)
        z = packing.compute_z(rmax)
        rng = cal._rng_for(seed, cal._PREC_CODE[precision], cal._MODE_CODE[mode], w, idx)
        sq_sum = err_sum = 0.0
        for _ in range(trials):
            at = rng.integers(-amax, amax + 1, size=(L, L)).astype(dtype)
            bt = rng.integers(-bmax, bmax + 1, size=(L, L)).astype(dtype)
            exact = at.astype(np.float64) @ bt.astype(np.float64)
            err = packing.packed_product(at, bt, mode, w, z).astype(np.float64) - exact
            sq_sum += float((err * err).sum())
            err_sum += float(err.sum())
        n = trials * L * L
        out.append(cal.CalibEntry(precision, mode, w, rmax, err_sum / n, math.sqrt(sq_sum / n),
                                  trials, seed))
    return out


def build_solutions(sigma_pairs, calib, precision, mode, L, w_set):
    """``build_offline_solutions`` as the R_max search it replaced: per W,
    the admitted entries in ascending R_max, each sigma pair keeping the
    first R_max of highest model SNR (``math.log10``) by a strict ``>``.
    The model runs on every pair at once, an elementwise pass whose bits do
    not depend on the number of pairs. Returns the rows in the table's
    field order, and per W the admitted R_max values and the SNR of every
    pair at each, shape ``(pairs, R_max values)``."""
    sa, sb = np.array(sigma_pairs, dtype=np.float64).reshape(-1, 2).T
    a_abs, b_abs = cal.uniform_extremes(sa, sb)
    stats = noise.BatchStats(sa, sb, -a_abs, a_abs, -b_abs, b_abs, L=L)
    rows, curves = [], {}
    for w in sorted(set(w_set)):
        admitted = calib.admitted(precision, mode, w,
                                  rmax_cap=cal.DEFAULT_RMAX_CAPS.get((precision, w)))
        if not admitted:
            raise CalibrationMissingError(f"no admitted entries for W={w}")
        snr, c_a, c_b = (np.empty((len(sa), len(admitted))) for _ in range(3))
        best = np.zeros(len(sa), dtype=np.intp)
        for k, e in enumerate(admitted):
            sol = noise.optimal_companders(stats, e.rmax, w=w)
            total = noise.combined_distortion(stats, sol.c_a, sol.c_b, e.rmse).total
            ratio = noise.signal_power(stats) / total
            snr[:, k] = [10.0 * math.log10(x) for x in ratio.tolist()]
            c_a[:, k], c_b[:, k] = sol.c_a, sol.c_b
            best[snr[:, k] > snr[np.arange(len(sa)), best]] = k
        rows += [(x, y, w, admitted[k].rmax, c_a[p, k].item(), c_b[p, k].item(),
                  snr[p, k].item())
                 for p, (x, y, k) in enumerate(zip(sa.tolist(), sb.tolist(), best.tolist()))]
        curves[w] = np.array([e.rmax for e in admitted], dtype=np.int64), snr
    return rows, curves


def nearest_solution(table, sigma_a, sigma_b, w):
    """The linear scan the indexed lookup replaced: the index of the first
    row of W ``w`` nearest the query."""
    best = None
    best_d = None
    for i, r in enumerate(table.data.tolist()):
        if r[2] != w:
            continue
        d = (sigma_a - r[0]) ** 2 + (sigma_b - r[1]) ** 2
        if best_d is None or d < best_d:
            best, best_d = i, d
    if best is None:
        raise CalibrationMissingError(f"solution table has no entries for W={w}")
    return best


# -- table files: the ``csv.writer`` writer and the field-by-field parses as
# they were before ``write_table`` and ``read_table`` served every table


def write_csv(path, header, rows):
    """``csv.writer`` rows after the version line."""
    with open(path, "w", newline="") as f:
        f.write("# version 1\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def dump_plan(plan, path):
    """``dump_plan`` as it was when ``csv.writer`` wrote it."""
    write_csv(path, ["i", "j", "l", "W", "c_a", "c_b", "rmax", "d_hat"],
              ((i, j, l, w, repr(c_a), repr(c_b), rmax, repr(d_hat))
               for i, j, l in np.ndindex(plan.options.shape)
               for _p, _l, w, c_a, c_b, rmax, _z, d_hat, _fw in [plan.options[i, j, l].item()]))


def _lines(path):
    with open(path, newline="") as f:
        return f.readlines()[2:]


def _typed_rows(path, lines, header, types):
    reader = csv.reader(lines)
    out = []
    for row in reader:
        if not row:
            continue
        where = f"{path}, line {reader.line_num + 2}"
        if len(row) != len(header):
            raise TableFormatError(f"{where}: {len(row)} fields, expected {len(header)}")
        fields = []
        for name, kind, v in zip(header, types, row):
            try:
                fields.append(kind(v))
            except ValueError as exc:
                raise TableFormatError(f"{where}: bad {name} value {v!r}") from exc
        out.append(tuple(fields))
    return out


def _finite(kind=float, lo=-math.inf):
    def parse(text):
        x = kind(text)
        if not (-math.inf < x < math.inf and x >= lo):
            raise ValueError(text)
        return x
    return parse


def load_calibration(path):
    """``csv.reader`` rows, each field converted and checked on its own: a
    finite mean error, a finite nonnegative RMSE, and a W and R_max of at
    least 1."""
    return _typed_rows(path, _lines(path), cal.CALIB_HEADER,
                       (str, str, _finite(int, 1), _finite(int, 1), _finite(),
                        _finite(float, 0.0), int, int))


def load_speedup(path):
    return _typed_rows(path, _lines(path), cal.SPEEDUP_HEADER,
                       (str, str, int, int, _finite(), _finite(), int))


def load_solutions(path):
    """One ``np.loadtxt`` call, falling back on the field-by-field parse."""
    lines = _lines(path)
    if any(map(str.strip, lines)):
        try:
            return np.loadtxt(lines, delimiter=",", dtype=cal._SOLUTION_DTYPE, ndmin=1,
                              comments=None).tolist()
        except ValueError:
            pass
    rows = _typed_rows(path, lines, cal.SOLUTION_HEADER,
                       (float, float, int, int, float, float, float))
    return np.array(rows, dtype=cal._SOLUTION_DTYPE).tolist()
