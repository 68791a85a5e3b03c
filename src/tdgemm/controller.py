"""Per-kernel constraint controller.

Converts an SNR or acceleration target for each L x L output kernel into
per-subblock packing choices. The planner starts every subblock at its
highest-throughput option and greedily demotes the option with the highest
predicted distortion until the constraint is met.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import packing
from .blocking import reorder_block_major, ROWWISE, COLUMNWISE
from .calibration import (
    CalibrationTable,
    FORMAT_VERSION,
    OfflineSolutionTable,
    SpeedupProfile,
    lookup_nearest_solution,
)
from .errors import CalibrationMissingError, InfeasibleConstraintError, InvalidConfigError
from .noise import InputStats, combined_distortion, optimal_companders


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

    def entry(self, i: int, j: int) -> KernelPlanEntry:
        return self.entries[(i, j)]

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

    def mean_accel_percent(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.accel_percent for e in self.entries.values()) / len(self.entries)


def snr_to_distortion(s_kernel_db: float, sigma_pairs, L: int) -> float:
    """Kernel distortion budget equivalent to an SNR floor.

    ``sigma_pairs`` holds (sigma_a, sigma_b) per inner index l.
    """
    for sa, sb in sigma_pairs:
        if sa < 0 or sb < 0:
            raise InvalidConfigError("sigmas must be >= 0")
    if math.isinf(s_kernel_db):
        return 0.0
    return 10.0 ** (-0.1 * s_kernel_db) * L * sum((sa * sb) ** 2 for sa, sb in sigma_pairs)


def _mac_speedup(w: int) -> float:
    """Idealized gain from operation counting alone: W results per MAC."""
    return (w - 1) * 100.0


def build_options(stats_per_l, solutions: OfflineSolutionTable, mode: str, precision: str,
                  calib: CalibrationTable, profile: SpeedupProfile | None = None,
                  w_set=(2, 3, 4)):
    """Per-subblock option lists, sorted by W descending, W=1 always last.

    For each W the nearest offline solution fixes R_max; companders and the
    distortion prediction are recomputed from the runtime sigmas. Without a
    measured profile the speedup falls back to the MAC-count gain. A W whose
    measured gain is not positive is left out: W=1 dominates it.
    """
    options_per_l = []
    for l, stats in enumerate(stats_per_l):
        opts = []
        degenerate = stats.sigma_a <= 0 or stats.sigma_b <= 0
        if not degenerate:
            for w in sorted(set(w_set), reverse=True):
                if w < 2:
                    continue
                fw = profile.fw(precision, mode, w) if profile is not None else _mac_speedup(w)
                if fw <= 0:
                    continue  # W=1 is at least as fast, at zero distortion
                stored = lookup_nearest_solution(solutions, stats.sigma_a, stats.sigma_b, w)
                rmax = stored.rmax
                s_repr = calib.lookup(precision, mode, w, rmax).rmse
                sol = optimal_companders(stats, rmax, s_repr=s_repr, w=w)
                d_hat = combined_distortion(stats, sol.c_a, sol.c_b, s_repr).total
                opts.append(
                    SubblockOption(
                        l=l, w=w, mode=mode, c_a=sol.c_a, c_b=sol.c_b, rmax=rmax,
                        z=packing.compute_z(rmax), d_hat=d_hat, fw_percent=fw,
                    )
                )
        opts.append(
            SubblockOption(l=l, w=1, mode=mode, c_a=1.0, c_b=1.0, rmax=0, z=0.0,
                           d_hat=0.0, fw_percent=0.0)
        )
        options_per_l.append(opts)
    return options_per_l


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


def kernel_input_stats(a: np.ndarray, b: np.ndarray, L: int) -> dict:
    """Per inner kernel ``(i, j)`` of A @ B, the InputStats of each subblock l."""
    abm = reorder_block_major(a, L, ROWWISE)
    bbm = reorder_block_major(b, L, COLUMNWISE)
    out = {}
    for i in range(abm.block_rows):
        for j in range(bbm.block_cols):
            stats_per_l = []
            for l in range(abm.block_cols):
                sa = abm.tile_stats(i, l)
                sb = bbm.tile_stats(l, j)
                stats_per_l.append(
                    InputStats(sigma_a=sa.sigma, sigma_b=sb.sigma,
                               a_min=sa.vmin, a_max=sa.vmax,
                               b_min=sb.vmin, b_max=sb.vmax, L=L)
                )
            out[(i, j)] = stats_per_l
    return out


def plan_gemm(a: np.ndarray, b: np.ndarray, L: int, constraint: KernelConstraint,
              solutions: OfflineSolutionTable, calib: CalibrationTable, mode: str,
              precision: str, profile: SpeedupProfile | None = None,
              w_set=(2, 3, 4)) -> KernelPlan:
    """Plan every inner kernel of A @ B under a uniform per-kernel constraint."""
    plan = KernelPlan()
    for key, stats_per_l in kernel_input_stats(a, b, L).items():
        options = build_options(stats_per_l, solutions, mode, precision, calib,
                                profile=profile, w_set=w_set)
        if constraint.target_snr_db is not None:
            d_kernel = snr_to_distortion(
                constraint.target_snr_db,
                [(s.sigma_a, s.sigma_b) for s in stats_per_l],
                L,
            )
            plan.entries[key] = plan_kernel_distortion(options, d_kernel)
        else:
            plan.entries[key] = plan_kernel_throughput(
                options, constraint.target_accel_percent
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
