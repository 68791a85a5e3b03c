"""Per-kernel constraint controller.

Converts an SNR or acceleration target for each L x L output kernel into
per-subblock packing choices. The options of every subblock of a multiply
are built in one batched array pass; then, per kernel, the planner starts
every subblock at its highest-throughput option and greedily demotes the
option with the highest predicted distortion until the constraint is met.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import packing
from .blocking import reorder_block_major
from .calibration import (
    CalibrationTable,
    FORMAT_VERSION,
    OfflineSolutionTable,
    SpeedupProfile,
    lookup_nearest_solution,
)
from .errors import DimensionError, InfeasibleConstraintError, InvalidConfigError
from .noise import (
    STATS_FIELDS,
    BatchStats,
    InputStats,
    combined_distortion,
    optimal_companders,
)


@dataclass(frozen=True)
class SubblockOption:
    """One candidate configuration for one subblock product."""

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
    """Exactly one of the two targets is set."""

    target_snr_db: float | None = None
    target_accel_percent: float | None = None

    def __post_init__(self):
        if (self.target_snr_db is None) == (self.target_accel_percent is None):
            raise InvalidConfigError(
                "set exactly one of target_snr_db and target_accel_percent"
            )


@dataclass(frozen=True)
class PruneStep:
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


def snr_to_distortion(s_kernel_db: float, sigma_pairs, L: int) -> float:
    """Kernel distortion budget equivalent to an SNR floor.

    ``sigma_pairs`` holds (sigma_a, sigma_b) per inner index l.
    """
    power = 0.0
    for sa, sb in sigma_pairs:
        if sa < 0 or sb < 0:
            raise InvalidConfigError("sigmas must be >= 0")
        p = sa * sb
        power += p * p
    if math.isinf(s_kernel_db):
        return 0.0
    return 10.0 ** (-0.1 * s_kernel_db) * L * power


def _mac_speedup(w: int) -> float:
    """Idealized gain from operation counting alone: W results per MAC."""
    return (w - 1) * 100.0


def build_options(stats, solutions: OfflineSolutionTable, mode: str, precision: str,
                  calib: CalibrationTable, profile: SpeedupProfile | None = None,
                  w_set=(2, 3, 4)):
    """Option lists of many subblocks, each sorted by W descending, W=1 last.

    ``stats`` holds one entry per subblock: the InputStats of one kernel's
    subblocks in order of l, or a BatchStats whose last axis is l (the
    subblocks of a whole multiply). One list per entry comes back, in C
    order.

    For each W one array pass over the subblocks finds the nearest offline
    solution, which fixes R_max; companders and the distortion prediction
    are recomputed from the runtime sigmas. Without a measured profile the
    speedup falls back to the MAC-count gain. A W whose measured gain is not
    positive is left out: W=1 dominates it. A subblock with a zero sigma
    gets only W=1.
    """
    if not isinstance(stats, BatchStats):
        stats = BatchStats.of(stats)
    sa, sb = stats.sigma_a.reshape(-1), stats.sigma_b.reshape(-1)
    live = np.flatnonzero(~((sa <= 0) | (sb <= 0)))
    packed = []  # per W: (w, fw, c_a, c_b, rmax, z, d_hat), lists over live
    if live.size:
        sub = stats.take(live)
        for w in sorted(set(w_set), reverse=True):
            if w < 2:
                continue
            fw = profile.fw(precision, mode, w) if profile is not None else _mac_speedup(w)
            if fw <= 0:
                continue  # W=1 is at least as fast, at zero distortion
            rmax = lookup_nearest_solution(solutions, sub.sigma_a, sub.sigma_b, w).rmax
            found, at = np.unique(rmax, return_inverse=True)
            found = found.tolist()
            s_repr = np.array([calib.lookup(precision, mode, w, r).rmse for r in found])[at]
            z = [packing.compute_z(r) for r in found]
            sol = optimal_companders(sub, rmax, s_repr=s_repr, w=w)
            d_hat = combined_distortion(sub, sol.c_a, sol.c_b, s_repr).total
            at = at.tolist()
            packed.append((w, fw, sol.c_a.tolist(), sol.c_b.tolist(), [found[k] for k in at],
                           [z[k] for k in at], d_hat.tolist()))
    n_l = stats.shape[-1]
    options = [[] for _ in range(sa.size)]
    live = live.tolist()
    for w, fw, c_a, c_b, rmax, z, d_hat in packed:
        for k, p in enumerate(live):
            options[p].append(
                SubblockOption(l=p % n_l, w=w, mode=mode, c_a=c_a[k], c_b=c_b[k],
                               rmax=rmax[k], z=z[k], d_hat=d_hat[k], fw_percent=fw)
            )
    for p, opts in enumerate(options):
        opts.append(
            SubblockOption(l=p % n_l, w=1, mode=mode, c_a=1.0, c_b=1.0, rmax=0, z=0.0,
                           d_hat=0.0, fw_percent=0.0)
        )
    return options


def _entry_from_indices(options_per_l, idx, trace):
    choices = [opts[i] for opts, i in zip(options_per_l, idx)]
    return KernelPlanEntry(
        choices=choices,
        total_d_hat=sum(o.d_hat for o in choices),
        accel_percent=sum(o.fw_percent for o in choices) / len(choices),
        prune_trace=trace,
    )


def plan_kernel_distortion(options_per_l, d_kernel: float) -> KernelPlanEntry:
    """Greedy pruning under a distortion budget.

    Start all subblocks at maximum W; while the summed prediction exceeds the
    budget, demote the subblock whose current option has the highest
    prediction (ties to the lower l). Always terminates: W=1 predicts zero.
    """
    if d_kernel < 0:
        raise InvalidConfigError(f"distortion budget must be >= 0, got {d_kernel}")
    idx = [0] * len(options_per_l)
    trace = []
    while True:
        total = sum(opts[i].d_hat for opts, i in zip(options_per_l, idx))
        if total <= d_kernel:
            break
        worst = max(
            range(len(idx)),
            key=lambda l: (options_per_l[l][idx[l]].d_hat, -l),
        )
        cur = options_per_l[worst][idx[worst]]
        idx[worst] += 1
        nxt = options_per_l[worst][idx[worst]]
        trace.append(
            PruneStep(l=worst, from_w=cur.w, to_w=nxt.w, removed_d_hat=cur.d_hat,
                      total_after=total - cur.d_hat + nxt.d_hat)
        )
    return _entry_from_indices(options_per_l, idx, trace)


def plan_kernel_throughput(options_per_l, f_kernel: float) -> KernelPlanEntry:
    """Greedy pruning under an acceleration floor.

    Demotes highest-predicted-distortion options first, but only while the
    kernel's mean speedup stays at or above the floor; subblocks whose
    demotion would break the floor are left alone.
    """
    n = len(options_per_l)
    idx = [0] * n

    def mean_accel():
        return sum(opts[i].fw_percent for opts, i in zip(options_per_l, idx)) / n

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


def kernel_input_stats(a: np.ndarray, b: np.ndarray, L: int) -> dict:
    """Per inner kernel ``(i, j)`` of A @ B, the InputStats of each subblock l."""
    stats = subblock_stats(a, b, L)
    cols = [getattr(stats, f).tolist() for f in STATS_FIELDS]
    blocks_i, blocks_j, n_l = stats.shape
    return {
        (i, j): [InputStats(*(c[i][j][l] for c in cols), L=L) for l in range(n_l)]
        for i in range(blocks_i) for j in range(blocks_j)
    }


def plan_gemm(a: np.ndarray, b: np.ndarray, L: int, constraint: KernelConstraint,
              solutions: OfflineSolutionTable, calib: CalibrationTable, mode: str,
              precision: str, profile: SpeedupProfile | None = None,
              w_set=(2, 3, 4)) -> KernelPlan:
    """Plan every inner kernel of A @ B under a uniform per-kernel constraint.

    One ``build_options`` call covers every subblock; each kernel is then
    pruned on its own slice of the options.
    """
    stats = subblock_stats(a, b, L)
    options = build_options(stats, solutions, mode, precision, calib,
                            profile=profile, w_set=w_set)
    blocks_i, blocks_j, n_l = stats.shape
    sigma_a, sigma_b = stats.sigma_a.tolist(), stats.sigma_b.tolist()
    plan = KernelPlan()
    for i in range(blocks_i):
        for j in range(blocks_j):
            start = (i * blocks_j + j) * n_l
            kernel_options = options[start:start + n_l]
            if constraint.target_snr_db is not None:
                d_kernel = snr_to_distortion(
                    constraint.target_snr_db, zip(sigma_a[i][j], sigma_b[i][j]), L)
                plan.entries[(i, j)] = plan_kernel_distortion(kernel_options, d_kernel)
            else:
                plan.entries[(i, j)] = plan_kernel_throughput(
                    kernel_options, constraint.target_accel_percent
                )
    return plan


def dump_plan(plan: KernelPlan, path) -> None:
    """Debug CSV of every chosen option, for reproducing prune outcomes."""
    with open(path, "w", newline="") as f:
        f.write(f"# version {FORMAT_VERSION}\n")
        writer = csv.writer(f)
        writer.writerow(["i", "j", "l", "W", "c_a", "c_b", "rmax", "d_hat"])
        for (i, j) in sorted(plan.entries):
            for opt in plan.entries[(i, j)].choices:
                writer.writerow(
                    [i, j, opt.l, opt.w, repr(opt.c_a), repr(opt.c_b), opt.rmax,
                     repr(opt.d_hat)]
                )
