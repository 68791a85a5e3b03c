"""Per-kernel constraint controller.

Converts an SNR or acceleration target for each L x L output kernel into
per-subblock packing choices. The options of every subblock of a multiply
are built in one batched array pass, as one array per W, at one R_max per
W: the calibration table's SNR-best R_max, which under the zero-mean
uniform model is the same for every sigma pair, so the solution build at
the one pair (1, 1) finds it. The planner starts every subblock at its
highest-throughput option and greedily demotes the option with the highest
predicted distortion until the constraint is met. Under an SNR floor every
kernel's prune runs in one lockstep array loop, one demotion per unfinished
kernel per step, with the bits of the per-kernel loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import packing
from .blocking import reorder_block_major
from .calibration import (
    CalibrationTable,
    FORMAT_VERSION,
    SpeedupProfile,
    build_offline_solutions,
    lookup_nearest_solution,  # noqa: F401  no caller; perfbench's tracer requires it here
)
from .errors import DimensionError, InfeasibleConstraintError, InvalidConfigError
from .noise import BatchStats, combined_distortion, optimal_companders


class SubblockOption(NamedTuple):
    """One candidate configuration for one subblock product.

    A named tuple: a multiply makes one per subblock, and the planner makes
    them in bulk from array rows (``_options_of``).
    """

    l: int
    w: int
    mode: str
    c_a: float
    c_b: float
    rmax: int
    z: float
    d_hat: float
    fw_percent: float

    def to_packing_config(self):
        if self.w == 1:
            return None
        return packing.PackingConfig(
            mode=self.mode, w=self.w, z=self.z, c_a=self.c_a, c_b=self.c_b, rmax=self.rmax
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


class PruneStep(NamedTuple):
    """One demotion of a prune: subblock l went from W ``from_w`` to
    ``to_w``, and the kernel's predicted total became ``total_after``."""

    l: int
    from_w: int
    to_w: int
    removed_d_hat: float
    total_after: float


@dataclass
class KernelPlanEntry:
    choices: list  # one SubblockOption per l
    total_d_hat: float
    accel_percent: float
    prune_trace: list = field(default_factory=list)


@dataclass
class KernelPlan:
    """Chosen options for every inner kernel, consumable by tiered_gemm."""

    entries: dict = field(default_factory=dict)

    def subblock_choices(self, i: int, j: int):
        entry = self.entries.get((i, j))
        if entry is None:
            return None
        return [opt.to_packing_config() for opt in entry.choices]

    def w_histogram(self) -> dict:
        hist: dict = {}
        for entry in self.entries.values():
            for opt in entry.choices:
                hist[opt.w] = hist.get(opt.w, 0) + 1
        return hist


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

    ``sigma_pairs`` holds (sigma_a, sigma_b) per inner index l: a sequence
    of pairs, or an array of shape ``(n_l, 2, kernels)`` for one budget per
    kernel. The signal power adds the subblocks in ascending l.
    """
    pairs = np.asarray(sigma_pairs, dtype=np.float64)
    if pairs.ndim == 1:
        pairs = pairs.reshape(-1, 2)
    if (pairs < 0).any():
        raise InvalidConfigError("sigmas must be >= 0")
    p = pairs[:, 0] * pairs[:, 1]
    power = ordered_sum(p * p)
    if math.isinf(s_kernel_db):
        return np.zeros_like(power)
    return 10.0 ** (-0.1 * s_kernel_db) * L * power


def _mac_speedup(w: int) -> float:
    """Idealized gain from operation counting alone: W results per MAC."""
    return (w - 1) * 100.0


# one option of one subblock: SubblockOption's fields but the mode, after the
# flat position ``p`` of the subblock
OPTION_DTYPE = np.dtype([("p", "i8"), ("l", "i8"), ("w", "i8"), ("c_a", "f8"), ("c_b", "f8"),
                         ("rmax", "i8"), ("z", "f8"), ("d_hat", "f8"), ("fw_percent", "f8")])


def _option_rows(p, n_l, **fields):
    rows = np.zeros(len(p), dtype=OPTION_DTYPE)
    rows["p"], rows["l"] = p, p % n_l
    for name, value in fields.items():
        rows[name] = value
    return rows


def build_options(stats, mode: str, precision: str, calib: CalibrationTable,
                  profile: SpeedupProfile | None = None, w_set=(2, 3, 4)) -> list:
    """Options of many subblocks, as one ``OPTION_DTYPE`` array per W.

    ``stats`` holds one entry per subblock: the InputStats of one kernel's
    subblocks in order of l, or a BatchStats whose last axis is l (the
    subblocks of a whole multiply). The arrays come in W descending order,
    W=1 last; each holds the subblocks that have that W, in C order of
    ``stats``. ``option_lists`` turns them into one list per subblock.

    Each W takes one R_max for every subblock: the one
    ``build_offline_solutions`` finds at the sigma pair (1, 1), which its
    zero-mean uniform model finds at every pair, with the RMSE the
    calibration table holds for it. Companders and the distortion prediction
    are computed from the runtime sigmas in one array pass per W. Without a
    measured profile the speedup falls back to the MAC-count gain. A W whose
    measured gain is not positive is left out: W=1 dominates it. A subblock
    with a zero sigma gets only W=1.
    """
    if not isinstance(stats, BatchStats):
        stats = BatchStats.of(stats)
    sa, sb = stats.sigma_a.reshape(-1), stats.sigma_b.reshape(-1)
    live = np.flatnonzero(~((sa <= 0) | (sb <= 0)))
    n_l = stats.shape[-1]
    options = []
    if live.size:
        ladder = []  # (w, fw) of every W that can gain
        for w in sorted(set(w_set), reverse=True):
            if w < 2:
                continue
            fw = profile.fw(precision, mode, w) if profile is not None else _mac_speedup(w)
            if fw > 0:  # else W=1 is at least as fast, at zero distortion
                ladder.append((w, fw))
        best = build_offline_solutions([(1.0, 1.0)], calib, precision, mode, stats.L,
                                       w_set=[w for w, _ in ladder]).data
        rmax_of = dict(zip(best["w"].tolist(), best["rmax"].tolist()))
        sub = stats.take(live)
        for w, fw in ladder:
            rmax = rmax_of[w]
            s_repr = calib.lookup(precision, mode, w, rmax).rmse
            comp = optimal_companders(sub, rmax, s_repr=s_repr, w=w)
            d_hat = combined_distortion(sub, comp.c_a, comp.c_b, s_repr).total
            options.append(_option_rows(live, n_l, w=w, c_a=comp.c_a, c_b=comp.c_b, rmax=rmax,
                                        z=packing.compute_z(rmax), d_hat=d_hat, fw_percent=fw))
    options.append(_option_rows(np.arange(sa.size), n_l, w=1, c_a=1.0, c_b=1.0))
    return options


_OPTION_FIELDS = ("l", "w", "c_a", "c_b", "rmax", "z", "d_hat", "fw_percent")


def _options_of(rows, mode: str) -> list:
    """The SubblockOptions of a 1-D ``OPTION_DTYPE`` array, in its order:
    one list per field, and one ``_make`` per row."""
    l, w, *rest = (rows[name].tolist() for name in _OPTION_FIELDS)
    return list(map(SubblockOption._make, zip(l, w, repeat(mode), *rest)))


def option_lists(options, mode: str) -> list:
    """``build_options``' arrays as one list per subblock, in C order: its
    SubblockOptions in W descending order, W=1 last."""
    lists = [[] for _ in range(len(options[-1]))]
    for rows in options:
        for p, opt in zip(rows["p"].tolist(), _options_of(rows, mode)):
            lists[p].append(opt)
    return lists


def _prune(d_hat, w, idx, budget):
    """Greedy distortion prune of many kernels in lockstep.

    ``d_hat`` and ``w`` hold, per ladder row, subblock l and kernel, the
    predicted distortion and the W of an option (shape
    ``(rows, n_l, kernels)``); a ladder runs down the rows to W=1 on the
    last, which predicts zero. ``idx`` (shape ``(n_l, kernels)``) holds each
    subblock's starting row and is left at its chosen one; ``budget`` holds
    one distortion budget per kernel.

    Each step sums every kernel's current predictions over l, and every
    kernel still over its budget demotes the subblock of highest prediction
    by one row; the first maximum is taken, so ties go to the lower l. Each
    kernel so takes the steps of the greedy loop run on it alone, with the
    same bits: totals add l = 0, 1, ... in turn (``ordered_sum``) and a
    step's ``total_after`` is ``total - removed + next``. Returns the final
    per-kernel totals and each kernel's list of PruneSteps.
    """
    n_l, n_k = idx.shape
    ls, ks = np.ogrid[:n_l, :n_k]
    cur = d_hat[idx, ls, ks]
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as Python floats give
        while True:
            total = ordered_sum(cur)
            over = np.flatnonzero(~(total <= budget))
            if not over.size:
                break
            worst = cur[:, over].argmax(axis=0)
            row = idx[worst, over]
            removed = cur[worst, over]
            nxt = d_hat[row + 1, worst, over]
            steps.append((over, worst, w[row, worst, over], w[row + 1, worst, over], removed,
                          total[over] - removed + nxt))
            idx[worst, over] = row + 1
            cur[worst, over] = nxt
    traces = [[] for _ in range(n_k)]
    if steps:
        kernels, *cols = (np.concatenate(col).tolist() for col in zip(*steps))
        for k, step in zip(kernels, map(PruneStep._make, zip(*cols))):
            traces[k].append(step)
    return total, traces


def _mean(total: float, n: int) -> float:
    """``total / n``, and 0.0 for a kernel with no subblock (k < L)."""
    return total / n if n else 0.0


def _entry_from_indices(options_per_l, idx, trace):
    choices = [opts[i] for opts, i in zip(options_per_l, idx)]
    return KernelPlanEntry(
        choices=choices,
        total_d_hat=sum(o.d_hat for o in choices),
        accel_percent=_mean(sum(o.fw_percent for o in choices), len(choices)),
        prune_trace=trace,
    )


def plan_kernel_distortion(options_per_l, d_kernel: float) -> KernelPlanEntry:
    """Greedy pruning under a distortion budget.

    Start all subblocks at maximum W; while the summed prediction exceeds the
    budget, demote the subblock whose current option has the highest
    prediction (ties to the lower l). Always terminates: W=1 predicts zero.
    This is ``plan_gemm``'s lockstep prune (``_prune``) run on one kernel.
    """
    if not d_kernel >= 0:
        raise InvalidConfigError(f"distortion budget must be >= 0, got {d_kernel}")
    n_l = len(options_per_l)
    rows = max(map(len, options_per_l), default=1)
    d_hat, w = np.zeros((rows, n_l, 1)), np.ones((rows, n_l, 1), dtype=np.int64)
    top = np.array([rows - len(opts) for opts in options_per_l], dtype=np.intp)
    for l, opts in enumerate(options_per_l):  # every ladder ends on the last row
        d_hat[top[l]:, l, 0] = [o.d_hat for o in opts]
        w[top[l]:, l, 0] = [o.w for o in opts]
    idx = top[:, None].copy()
    total, (trace,) = _prune(d_hat, w, idx, np.array([d_kernel], dtype=np.float64))
    choices = [opts[i] for opts, i in zip(options_per_l, (idx[:, 0] - top).tolist())]
    return KernelPlanEntry(
        choices=choices,
        total_d_hat=float(total[0]),
        accel_percent=_mean(float(ordered_sum([o.fw_percent for o in choices])), n_l),
        prune_trace=trace,
    )


def plan_kernel_throughput(options_per_l, f_kernel: float) -> KernelPlanEntry:
    """Greedy pruning under an acceleration floor.

    Demotes highest-predicted-distortion options first, but only while the
    kernel's mean speedup stays at or above the floor; subblocks whose
    demotion would break the floor are left alone.
    """
    n = len(options_per_l)
    idx = [0] * n

    def mean_accel():
        return _mean(sum(opts[i].fw_percent for opts, i in zip(options_per_l, idx)), n)

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
            key=lambda l: (-options_per_l[l][idx[l]].d_hat, l),
        )
        demoted = False
        for l in order:
            cur = options_per_l[l][idx[l]]
            nxt = options_per_l[l][idx[l] + 1]
            idx[l] += 1
            accel = mean_accel()
            if accel < f_kernel:
                idx[l] -= 1
                accel = mean_accel()
                continue
            total = sum(opts[i].d_hat for opts, i in zip(options_per_l, idx))
            trace.append(
                PruneStep(l=l, from_w=cur.w, to_w=nxt.w, removed_d_hat=cur.d_hat,
                          total_after=total)
            )
            demoted = True
            break
        if not demoted:
            break
    return _entry_from_indices(options_per_l, idx, trace)


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
              profile: SpeedupProfile | None = None, w_set=(2, 3, 4)) -> KernelPlan:
    """Plan every inner kernel of A @ B under a uniform per-kernel constraint.

    One ``build_options`` call covers every subblock. Under an SNR floor one
    lockstep prune (``_prune``) then plans every kernel, and a SubblockOption
    is made only for the option each subblock ends up with; under an
    acceleration floor each kernel is pruned on its own option lists.
    """
    stats = subblock_stats(a, b, L)
    options = build_options(stats, mode, precision, calib, profile=profile, w_set=w_set)
    blocks_i, blocks_j, n_l = stats.shape
    keys = [(i, j) for i in range(blocks_i) for j in range(blocks_j)]
    plan = KernelPlan()
    if constraint.target_snr_db is None:
        lists = option_lists(options, mode)
        for k, key in enumerate(keys):
            plan.entries[key] = plan_kernel_throughput(lists[k * n_l:(k + 1) * n_l],
                                                       constraint.target_accel_percent)
        return plan
    # every option by ladder row (W descending, W=1 last), subblock l and kernel
    ladder = np.zeros((len(options), len(keys) * n_l), dtype=OPTION_DTYPE)
    for r, rows in enumerate(options):
        ladder[r, rows["p"]] = rows
    ladder = ladder.reshape(len(options), len(keys), n_l).transpose(0, 2, 1)
    idx = np.full((len(keys), n_l), len(options) - 1, dtype=np.intp)
    idx.reshape(-1)[options[0]["p"]] = 0  # subblocks that have a W>1 start at the top
    idx = idx.T.copy()
    pairs = np.stack([stats.sigma_a, stats.sigma_b]).reshape(2, len(keys), n_l)
    budget = snr_to_distortion(constraint.target_snr_db, pairs.transpose(2, 0, 1), L)
    total, traces = _prune(ladder["d_hat"], ladder["w"], idx, budget)
    ls, ks = np.ogrid[:n_l, :len(keys)]
    chosen = ladder[idx, ls, ks]
    fw = ordered_sum(chosen["fw_percent"]).tolist()
    choices = _options_of(chosen.T.reshape(-1), mode)
    for k, (key, total_k) in enumerate(zip(keys, total.tolist())):
        plan.entries[key] = KernelPlanEntry(
            choices=choices[k * n_l:(k + 1) * n_l], total_d_hat=total_k,
            accel_percent=_mean(fw[k], n_l), prune_trace=traces[k])
    return plan


def dump_plan(plan: KernelPlan, path) -> None:
    """Debug CSV of every chosen option, for reproducing prune outcomes."""
    with open(path, "w", newline="") as f:
        f.write(f"# version {FORMAT_VERSION}\n")
        writer = csv.writer(f)
        writer.writerow(["i", "j", "l", "W", "c_a", "c_b", "rmax", "d_hat"])
        writer.writerows(
            (i, j, l, w, repr(c_a), repr(c_b), rmax, repr(d_hat))
            for i, j in sorted(plan.entries)
            for l, w, _mode, c_a, c_b, rmax, _z, d_hat, _fw in plan.entries[i, j].choices
        )
