"""Per-kernel constraint controller.

Converts an SNR or acceleration target for each L x L output kernel into
per-subblock packing choices. The options of every subblock of a multiply
are built in one batched array pass, as one ladder of ``OPTION_DTYPE`` rows:
a row per W, W descending and W=1 last, at one R_max per W: the
calibration table's SNR-best R_max, which under the zero-mean uniform model
is the same for every sigma pair, so the solution build at the one pair
(1, 1) finds it. Each operand tile has its own compander at
a W, so the executor quantizes and folds it once. The planner starts every
subblock at its highest-throughput option and greedily demotes the option
with the highest predicted distortion until the constraint is met. Under either constraint
every kernel's prune runs in one lockstep array loop (``_prune``), one
demotion per unfinished kernel per step, with the bits of the per-kernel
loop. The outcome is one ``Plan``: the chosen ``OPTION_DTYPE`` row of every
subblock, which ``blocking.tiered_gemm`` runs as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import packing
from .blocking import reorder_block_major
from .calibration import (
    CalibrationTable,
    SpeedupProfile,
    build_offline_solutions,
    lookup_nearest_solution,  # noqa: F401  no caller; perfbench's tracer requires it here
    write_table,
)
from .errors import DimensionError, InfeasibleConstraintError, InvalidConfigError
from .noise import (
    BatchStats,
    combined_distortion,
    optimal_companders,  # noqa: F401  no caller; perfbench's tracer requires it here
    separable_companders,
)


@dataclass(frozen=True)
class KernelConstraint:
    """Exactly one of the two targets is set, and it is not NaN."""

    target_snr_db: float | None = None
    target_accel_percent: float | None = None

    def __post_init__(self):
        if (self.target_snr_db is None) == (self.target_accel_percent is None):
            raise InvalidConfigError(
                "set exactly one of target_snr_db and target_accel_percent"
            )
        for name in ("target_snr_db", "target_accel_percent"):
            if math.isnan(getattr(self, name) or 0.0):
                raise InvalidConfigError(f"{name} must be a number, got NaN")


# one demotion of a prune: in kernel ``k``, the flat C-order index of its
# ``(i, j)``, subblock l went from W ``from_w`` to ``to_w``, and the kernel's
# predicted total became ``total_after``
PRUNE_DTYPE = np.dtype([("k", "i8"), ("l", "i8"), ("from_w", "i8"), ("to_w", "i8"),
                        ("removed_d_hat", "f8"), ("total_after", "f8")])


class Plan(NamedTuple):
    """The chosen option of every subblock of a multiply, which
    ``tiered_gemm`` runs: ``options`` holds ``OPTION_DTYPE`` rows of shape
    ``(m/L, n/L, k/L)``, entry ``[i, j, l]`` subblock l of output kernel
    ``(i, j)``, packed in ``mode`` where its W is above 1. ``total_d_hat``
    (shape ``(m/L, n/L)``) holds each kernel's predicted distortion and
    ``prune_trace`` every demotion, in step order, as ``PRUNE_DTYPE``
    records."""

    mode: str
    options: np.ndarray
    total_d_hat: np.ndarray
    prune_trace: np.ndarray


def ordered_sum(x):
    """Sum over axis 0, adding its entries one after another to +0.0.

    This is the order of an explicit ``+=`` loop, and of Python's ``sum`` of
    floats before CPython 3.12. An accumulate adds in that order whatever the
    other axes hold; ``np.add.reduce`` sums pairwise when they hold one
    element (a single kernel). Adding +0.0 to the last partial sum gives what
    starting from +0.0 gives: the two can differ only in the sign of a zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) == 0:
        return np.zeros(x.shape[1:])
    return np.add.accumulate(x, axis=0)[-1] + 0.0


def snr_to_distortion(s_kernel_db: float, sigma_pairs, L: int):
    """Kernel distortion budget equivalent to an SNR floor.

    ``sigma_pairs`` holds (sigma_a, sigma_b) per inner index l: shape
    ``(n_l, 2)`` for one kernel, or ``(n_l, 2, kernels)`` for one budget per
    kernel. The signal power adds the subblocks in ascending l. A floor of
    +inf leaves no budget, and one of -inf, or a finite one so low that
    its power ratio overflows (below about -3083 dB), an unbounded one.
    """
    pairs = np.asarray(sigma_pairs, dtype=np.float64)
    if (pairs < 0).any():
        raise InvalidConfigError("sigmas must be >= 0")
    p = pairs[:, 0] * pairs[:, 1]
    power = ordered_sum(p * p)
    if math.isinf(s_kernel_db):  # 10 ** inf * 0 would be NaN
        return np.full_like(power, 0.0 if s_kernel_db > 0 else math.inf)
    try:
        return 10.0 ** (-0.1 * s_kernel_db) * L * power
    except OverflowError:
        return np.full_like(power, math.inf)


def _mac_speedup(w: int) -> float:
    """Idealized gain from operation counting alone: W results per MAC."""
    return (w - 1) * 100.0


# one option of one subblock: its W, companders, R_max, z, predicted
# distortion and gain in percent
OPTION_DTYPE = np.dtype([("w", "i8"), ("c_a", "f8"), ("c_b", "f8"), ("rmax", "i8"),
                         ("z", "f8"), ("d_hat", "f8"), ("fw_percent", "f8")])


def build_options(stats: BatchStats, mode: str, precision: str, calib: CalibrationTable,
                  profile: SpeedupProfile | None = None, w_set=(2, 3, 4)) -> np.ndarray:
    """The option ladder of many subblocks: ``OPTION_DTYPE`` rows of shape
    ``(rows, subblocks)``, one row per W, W descending and W=1 last.

    ``stats`` holds one entry per subblock, its last axis l: the subblocks
    of one kernel, or of a whole multiply, flat in C order on the ladder's
    second axis. A subblock with a zero sigma has only W=1: its W=1 option
    fills every row, and a prune starts it on the last, the others on row 0.
    Where no subblock has a W>1 the W=1 row is the only one.

    Each W takes one R_max for every subblock: the one
    ``build_offline_solutions`` finds at the sigma pair (1, 1), which its
    zero-mean uniform model finds at every pair, with the RMSE the
    calibration table holds for it. The companders are per operand
    (``separable_companders``: each tile's from its own absmax), so a tile
    is quantized once for every subblock it enters at that W; the
    distortion prediction is computed from them and the runtime sigmas, in
    one array pass per W. A W's speedup is the profile's entry at tile side
    ``stats.L``; without a measured profile it falls back to the MAC-count
    gain. A W whose measured gain is not positive is left out: W=1
    dominates it.
    """
    sa, sb = stats.sigma_a.reshape(-1), stats.sigma_b.reshape(-1)
    live = np.flatnonzero(~((sa <= 0) | (sb <= 0)))
    gains = []  # (w, fw) of every W that can gain
    for w in sorted(set(w_set), reverse=True):
        if w < 2 or not live.size:
            continue
        fw = profile.fw(precision, mode, w, stats.L) if profile is not None else _mac_speedup(w)
        if fw > 0:  # else W=1 is at least as fast, at zero distortion
            gains.append((w, fw))
    ladder = np.zeros((len(gains) + 1, sa.size), dtype=OPTION_DTYPE)
    ladder["w"], ladder["c_a"], ladder["c_b"] = 1, 1.0, 1.0  # W=1, where no W>1 applies
    if gains:
        best = build_offline_solutions([(1.0, 1.0)], calib, precision, mode, stats.L,
                                       w_set=[w for w, _ in gains])
        rmax_of = dict(zip(best["w"].tolist(), best["rmax"].tolist()))
        sub = stats.take(live)
        for row, (w, fw) in zip(ladder, gains):
            rmax = rmax_of[w]
            s_repr = calib.lookup(precision, mode, w, rmax).rmse
            c_a, c_b = separable_companders(sub, rmax)
            fields = dict(w=w, c_a=c_a, c_b=c_b, rmax=rmax, z=packing.compute_z(rmax),
                          d_hat=combined_distortion(sub, c_a, c_b, s_repr), fw_percent=fw)
            for name, value in fields.items():
                row[name][live] = value
    return ladder


def _mean(total, n: int):
    """``total / n``, and 0.0 for a kernel with no subblock (k < L), whose
    ``total`` is an empty sum."""
    return total / max(n, 1)


def _prune(d_hat, w, idx, budget=None, fw=None, floor=None):
    """Greedy prune of many kernels in lockstep, under a distortion budget
    per kernel or, if ``budget`` is None, an acceleration floor.

    ``d_hat``, ``w`` and ``fw`` hold, per ladder row, subblock l and kernel,
    the predicted distortion, the W and the gain of an option (shape
    ``(rows, n_l, kernels)``); a ladder runs down the rows to W=1 on the
    last, which predicts zero. ``idx`` (shape ``(n_l, kernels)``) holds each
    subblock's starting row and is left at its chosen one.

    Each step demotes, in every unfinished kernel, the subblock of highest
    prediction by one row; the first maximum is taken, so ties go to the
    lower l. Under a budget a kernel is unfinished while its total exceeds
    the budget. Under ``floor`` only a subblock whose demotion keeps the
    kernel's mean gain at or above the floor may go, and a kernel is
    unfinished while one may; before any step, InfeasibleConstraintError
    gives the mean gain of the first kernel whose starting rows fall short
    of the floor. Each kernel so takes the steps
    of the greedy loop run on it alone, with the same bits: totals and gains
    add l = 0, 1, ... in turn (``ordered_sum``), and a mean gain is that sum
    over n_l. A step's ``total_after`` is ``total - removed + next`` under a
    budget and the new total under a floor. Returns the final per-kernel
    totals and the ``PRUNE_DTYPE`` steps of every kernel, in step order and
    within a step in ascending kernel order.
    """
    n_l, n_k = idx.shape
    ls, ks = np.ogrid[:n_l, :n_k]
    cur = d_hat[idx, ls, ks]
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as Python floats give
        if budget is None:
            mean = _mean(ordered_sum(fw[idx, ls, ks]), n_l)
            short = np.flatnonzero(mean < floor)
            if short.size:
                accel = mean[short[0]].item()
                raise InfeasibleConstraintError(
                    f"acceleration floor {floor}% exceeds the achievable maximum {accel:.4g}%",
                    achievable_percent=accel,
                )
        total = ordered_sum(cur)
        while True:
            if budget is None:
                down = np.minimum(idx + 1, len(d_hat) - 1)
                # trial[m, l, k]: subblock m's gain in kernel k once subblock l is demoted
                trial = np.where(np.eye(n_l, dtype=bool)[:, :, None], fw[down, ls, ks],
                                 fw[idx, ls, ks][:, None])
                ok = (idx < down) & ~(_mean(ordered_sum(trial), n_l) < floor)
                over = np.flatnonzero(ok.any(axis=0))
                score = np.where(ok, cur, -np.inf)
            else:
                over = np.flatnonzero(~(total <= budget))
                score = cur
            if not over.size:
                break
            worst = score[:, over].argmax(axis=0)
            row = idx[worst, over]
            removed = cur[worst, over]
            nxt = d_hat[row + 1, worst, over]
            idx[worst, over] = row + 1
            cur[worst, over] = nxt
            after = total[over] - removed + nxt
            total = ordered_sum(cur)
            if budget is None:  # the floor loop took a fresh sum
                after = total[over]
            steps.append((over, worst, row, removed, after))
    if not steps:
        return total, np.empty(0, dtype=PRUNE_DTYPE)
    k, l, row, removed, after = map(np.concatenate, zip(*steps))
    trace = np.empty(len(k), dtype=PRUNE_DTYPE)
    trace["k"], trace["l"], trace["removed_d_hat"], trace["total_after"] = k, l, removed, after
    trace["from_w"], trace["to_w"] = w[row, l, k], w[row + 1, l, k]  # gathered once
    return total, trace


def _pruned_plan(mode: str, ladder, idx, shape, **limit) -> Plan:
    """The Plan of the rows ``_prune`` leaves ``ladder`` (shape ``(rows, n_l,
    kernels)``) on from rows ``idx``, its kernels laid out in ``shape``."""
    total, trace = _prune(ladder["d_hat"], ladder["w"], idx, fw=ladder["fw_percent"], **limit)
    chosen = ladder[(idx, *np.ogrid[:idx.shape[0], :idx.shape[1]])]
    return Plan(mode, chosen.T.reshape(*shape, len(idx)), total.reshape(shape), trace)


def _plan_kernel(options_per_l, **constraint) -> Plan:
    """``_prune`` of one kernel given as one ``OPTION_DTYPE`` array per
    subblock, W descending and W=1 last: each array fills the last rows of
    its subblock's ladder. A one-kernel plan is symmetric."""
    ladder = np.zeros((max(map(len, options_per_l), default=1), len(options_per_l), 1),
                      dtype=OPTION_DTYPE)
    ladder["w"] = 1
    top = np.array([len(ladder) - len(opts) for opts in options_per_l], dtype=np.intp)
    for l, opts in enumerate(options_per_l):  # every ladder ends on the last row
        ladder[top[l]:, l, 0] = opts
    return _pruned_plan(packing.SYMMETRIC, ladder, top[:, None], (1, 1), **constraint)


def plan_kernel_distortion(options_per_l, d_kernel: float) -> Plan:
    """Greedy pruning of one kernel under a distortion budget, as a Plan.

    Start all subblocks at maximum W; while the summed prediction exceeds the
    budget, demote the subblock whose current option has the highest
    prediction (ties to the lower l). Always terminates: W=1 predicts zero.
    """
    if not d_kernel >= 0:
        raise InvalidConfigError(f"distortion budget must be >= 0, got {d_kernel}")
    return _plan_kernel(options_per_l, budget=d_kernel)


def plan_kernel_throughput(options_per_l, f_kernel: float) -> Plan:
    """Greedy pruning of one kernel under an acceleration floor, as a Plan.

    Demotes highest-predicted-distortion options first, but only while the
    kernel's mean speedup stays at or above the floor; subblocks whose
    demotion would break the floor are left alone.
    """
    return _plan_kernel(options_per_l, floor=f_kernel)


def subblock_stats(a: np.ndarray, b: np.ndarray, L: int) -> BatchStats:
    """Stats of every subblock pair of A @ B, shape ``(m/L, n/L, k/L)``.

    Entry ``[i, j, l]`` pairs A's tile ``(i, l)`` with B's tile ``(l, j)``:
    subblock l of output kernel ``(i, j)``.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    ta = reorder_block_major(a, L)
    tb = reorder_block_major(b, L)
    shape = (ta.sigma.shape[0], tb.sigma.shape[1], ta.sigma.shape[1])

    def of_a(x):
        return np.broadcast_to(x[:, None, :], shape)

    def of_b(x):
        return np.broadcast_to(x.T[None, :, :], shape)

    return BatchStats(sigma_a=of_a(ta.sigma), sigma_b=of_b(tb.sigma),
                      a_min=of_a(ta.vmin), a_max=of_a(ta.vmax),
                      b_min=of_b(tb.vmin), b_max=of_b(tb.vmax), L=L)


def plan_gemm(a: np.ndarray, b: np.ndarray, L: int, constraint: KernelConstraint,
              calib: CalibrationTable, mode: str, precision: str,
              profile: SpeedupProfile | None = None, w_set=(2, 3, 4)) -> Plan:
    """Plan every inner kernel of A @ B under a uniform per-kernel constraint.

    One ``build_options`` call covers every subblock, and one lockstep prune
    (``_prune``) plans every kernel under either constraint. The Plan holds
    the ladder row each subblock ends on.
    """
    stats = subblock_stats(a, b, L)
    options = build_options(stats, mode, precision, calib, profile=profile, w_set=w_set)
    blocks_i, blocks_j, n_l = stats.shape
    n_k = blocks_i * blocks_j
    # by ladder row, subblock l and kernel, as _prune takes them
    ladder = options.reshape(len(options), n_k, n_l).transpose(0, 2, 1)
    top = np.where(ladder["w"][0] > 1, 0, len(ladder) - 1)
    if constraint.target_snr_db is None:
        limit = dict(floor=constraint.target_accel_percent)
    else:
        pairs = np.stack([stats.sigma_a, stats.sigma_b]).reshape(2, n_k, n_l)
        limit = dict(budget=snr_to_distortion(constraint.target_snr_db,
                                              pairs.transpose(2, 0, 1), L))
    return _pruned_plan(mode, ladder, top, (blocks_i, blocks_j), **limit)


def fixed_plan(mode: str, options) -> Plan:
    """The Plan that runs ``options`` (shape ``(m/L, n/L, k/L)``) as they are."""
    return Plan(mode, options, ordered_sum(np.moveaxis(options["d_hat"], -1, 0)),
                np.empty(0, dtype=PRUNE_DTYPE))


def dump_plan(plan: Plan, path) -> None:
    """Debug CSV of every chosen option, for reproducing prune outcomes: one
    row per subblock in C order of ``plan.options``."""
    o = plan.options
    cols = [*np.indices(o.shape).reshape(3, -1).tolist(),
            *(o[f].reshape(-1).tolist() for f in ("w", "c_a", "c_b", "rmax", "d_hat"))]
    write_table(path, ["i", "j", "l", "W", "c_a", "c_b", "rmax", "d_hat"], zip(*cols))
