"""Closed-form error model: quantization noise power, combined distortion
and companders, the optimal pair and the separable one the planner runs.

The model treats subblock entries as zero-mean iid variables; rounding after
companding adds uniform noise of standard deviation 1/(c*sqrt(12)) per
operand. The representation-induced error enters as a per-element RMSE
``s(R_max, W)`` measured by the calibration module, mapped back to the output
domain through the reverse companding.

The formulas take a BatchStats, one entry per subblock, and arrays that
broadcast with its shape, and return plain arrays: a noise power, or a
compander pair ``(c_a, c_b)``. Squares are written ``t * t``, which is
correctly rounded, while ``t ** 2`` of a scalar calls libm ``pow``, which is
not always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidConfigError

_SQRT12 = math.sqrt(12.0)
STATS_FIELDS = ("sigma_a", "sigma_b", "a_min", "a_max", "b_min", "b_max")


@dataclass(frozen=True)
class BatchStats:
    """Second moments and extremes of many subblock pairs: each field an
    array of one shape, one entry per subblock, all of tile side L."""

    sigma_a: np.ndarray
    sigma_b: np.ndarray
    a_min: np.ndarray
    a_max: np.ndarray
    b_min: np.ndarray
    b_max: np.ndarray
    L: int

    def __post_init__(self):
        if (self.sigma_a < 0).any() or (self.sigma_b < 0).any():
            raise InvalidConfigError("sigmas must be >= 0")
        if (self.a_min > self.a_max).any() or (self.b_min > self.b_max).any():
            raise InvalidConfigError("inconsistent extremes (min > max)")

    @property
    def shape(self) -> tuple:
        return self.sigma_a.shape

    def take(self, flat_index) -> "BatchStats":
        """The entries at ``flat_index`` of the flattened batch, as a 1-D batch."""
        return BatchStats(**{f: getattr(self, f).reshape(-1)[flat_index]
                             for f in STATS_FIELDS}, L=self.L)

    @property
    def a_absmax(self) -> np.ndarray:
        return np.maximum(np.abs(self.a_min), np.abs(self.a_max))

    @property
    def b_absmax(self) -> np.ndarray:
        return np.maximum(np.abs(self.b_min), np.abs(self.b_max))


def quant_noise_power(stats, c_a, c_b):
    """Expected per-element squared error from companding and rounding."""
    if np.any((c_a <= 0) | (c_b <= 0)):
        raise InvalidConfigError("companders must be positive")
    nv_a = 1.0 / (c_a * _SQRT12)
    nv_b = 1.0 / (c_b * _SQRT12)
    e_a = stats.sigma_a * nv_b
    e_b = stats.sigma_b * nv_a
    e_ab = nv_a * nv_b
    return stats.L * (e_a * e_a + e_b * e_b + e_ab * e_ab)


def signal_power(stats):
    p = stats.sigma_a * stats.sigma_b
    return stats.L * (p * p)


def combined_distortion(stats, c_a, c_b, s_repr):
    """Quantization plus representation noise power per output element: the
    total, ``quant_noise_power`` plus the representation term.

    ``s_repr`` is the per-element RMSE measured at the (R_max, W) the
    companders imply, expressed in the quantized domain; reverse companding
    maps it to the output domain.
    """
    if np.any(s_repr < 0):
        raise InvalidConfigError("s_repr must be >= 0")
    e_repr = s_repr / (c_a * c_b)
    return quant_noise_power(stats, c_a, c_b) + e_repr * e_repr


def c_tot(L: int, a_absmax, b_absmax, rmax):
    """Compander-independent ratio linking R_max to the input extremes."""
    if np.any(rmax < 1):
        raise InvalidConfigError(f"rmax must be >= 1, got {rmax}")
    return L * a_absmax * b_absmax / rmax


def optimal_companders(stats: BatchStats, rmax) -> tuple:
    """Minimum-distortion companders ``(c_a, c_b)`` at a fixed R_max.

    On the constraint c_a * c_b = 1/c_tot the distortion is minimized by
    balancing the two linear quantization terms, giving
    c_a = sqrt(sigma_b / (sigma_a * c_tot)) and its mirror.
    """
    if np.any((stats.sigma_a <= 0) | (stats.sigma_b <= 0)):
        raise DegenerateInputError("optimal companders undefined for zero-sigma input")
    ct = c_tot(stats.L, stats.a_absmax, stats.b_absmax, rmax)
    return (np.sqrt(stats.sigma_b / (stats.sigma_a * ct)),
            np.sqrt(stats.sigma_a / (stats.sigma_b * ct)))


def separable_companders(stats: BatchStats, rmax) -> tuple:
    """Per-operand companders ``(c_a, c_b)`` at a fixed R_max:
    c_a = sqrt(R_max / L) / a_absmax and c_b = sqrt(R_max / L) / b_absmax.

    They meet the constraint c_a * c_b = 1/c_tot of ``optimal_companders`` on
    every pairing, and each depends on its own tile alone, so one quantized
    tile serves every subblock it enters. They equal the optimum where the
    two tiles' crest factors (absmax / sigma) are equal. These are the
    per-tensor absmax scales of integer inference (Jacob et al., CVPR 2018).
    """
    a_abs, b_abs = stats.a_absmax, stats.b_absmax
    if np.any((a_abs <= 0) | (b_abs <= 0)):
        raise DegenerateInputError("separable companders undefined for an all-zero tile")
    if np.any(rmax < 1):
        raise InvalidConfigError(f"rmax must be >= 1, got {rmax}")
    root = np.sqrt(np.divide(rmax, stats.L))
    return root / a_abs, root / b_abs
