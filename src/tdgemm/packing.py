"""Companding, floating-point packing, and the packed subblock multiply.

Quantized inputs are folded W at a time into one native float using powers of
the packing coefficient z, so a single multiply-accumulate advances W partial
results. Symmetric mode packs both operands (rows of A against columns of B);
asymmetric mode packs W rows of A and leaves B unpacked. The packed operands
are multiplied by the BLAS GEMM behind ``np.matmul``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocking import plain_subblock_gemm
from .config import mantissa_bits, precision_of_dtype, u_sys_of
from .errors import DimensionError, InvalidConfigError, QuantizerOverflowError

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
MODES = (SYMMETRIC, ASYMMETRIC)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, half-way ties away from zero.

    The arithmetic runs in the input dtype and is exact: the fractional part
    ``x - trunc(x)`` is representable, so comparing it with one half decides
    the rounding without the rounding error of ``floor(|x| + 0.5)``. Signed
    zeros and infinities pass through.
    """
    arr = np.asarray(x)
    t = np.trunc(arr)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        up = np.abs(arr - t) >= 0.5
    return t + np.copysign(up, arr)


@dataclass(frozen=True)
class PackingConfig:
    """Operating point for one subblock-pair multiply."""

    mode: str
    w: int
    z: float
    c_a: float
    c_b: float
    rmax: int

    def validate(self, u_safe: int = 50) -> None:
        if self.mode not in MODES:
            raise InvalidConfigError(f"unknown mode {self.mode!r}")
        if self.w < 1:
            raise InvalidConfigError(f"W must be >= 1, got {self.w}")
        if self.c_a <= 0 or self.c_b <= 0:
            raise InvalidConfigError("companders must be positive")
        if self.w > 1:
            if not 0.0 < self.z < 1.0:
                raise InvalidConfigError(f"z must be in (0, 1), got {self.z}")
            # overlapping packed fields cause catastrophic unpacking errors,
            # so violating the z bound is rejected outright
            if self.rmax >= 1 and self.z > 1.0 / (2 * self.rmax + u_safe):
                raise InvalidConfigError(
                    f"z={self.z} exceeds the packing bound 1/(2*{self.rmax}+{u_safe})"
                )


@dataclass(frozen=True)
class PackedTile:
    values: np.ndarray
    mode: str
    w: int
    z: float


def quantize_subblock(tile: np.ndarray, c: float) -> np.ndarray:
    """Scale by the compander and round to integer-valued native floats."""
    if c <= 0:
        raise InvalidConfigError(f"compander must be positive, got {c}")
    precision = precision_of_dtype(tile.dtype)
    limit = 2.0 ** mantissa_bits(precision)
    peak = c * float(np.abs(tile).max()) if tile.size else 0.0
    if peak >= limit:
        raise QuantizerOverflowError(
            f"companded amplitude {peak:.4g} exceeds exact-integer range {limit:.4g} "
            f"of {precision} precision"
        )
    return round_half_away(np.asarray(c * tile.astype(np.float64), dtype=tile.dtype))


def dequantize(value, c_a: float, c_b: float):
    """Reverse companding: divide by the product of both companders."""
    if c_a <= 0 or c_b <= 0:
        raise InvalidConfigError("companders must be positive")
    return value / (c_a * c_b)


def compute_rmax(c_a: float, c_b: float, L: int, a_absmax: float, b_absmax: float) -> int:
    """Ceiling bound on the amplitude of any packed partial result."""
    return math.ceil(c_a * c_b * L * a_absmax * b_absmax)


def compute_z(rmax: int, u_safe: int = 50) -> float:
    """Largest power of two not exceeding 1/(2*rmax + u_safe).

    A power of two keeps z and 1/z exact in binary floating point, so the
    packing scale itself adds no rounding noise.
    """
    if rmax < 1:
        raise InvalidConfigError(f"rmax must be >= 1, got {rmax}")
    return 2.0 ** math.floor(math.log2(1.0 / (2 * rmax + u_safe)))


def compute_wef(z: float, rmax: int, u_sys: float) -> int:
    """Packing-count bound of the error-free unpacking proposition."""
    if not 0.0 < z < 1.0:
        raise InvalidConfigError(f"z must be in (0, 1), got {z}")
    bound = math.ceil(math.log((2 * rmax + 1) * u_sys) / math.log(z) + 1)
    return max(1, bound)


def exact_packing_limit(rmax: int, z: float, mode: str, precision: str, max_w: int = 4) -> int:
    """Largest W for which the pack-multiply-unpack pipeline is exact.

    The published bound (``compute_wef``) is necessary but not sufficient: it
    ignores the dynamic range the packed fields occupy during accumulation.
    This conservative limit requires every intermediate value to keep the
    wanted field above the representation granularity:

    - symmetric: the integer content R + (R/W) * sum(z^-k) must stay within
      half the exact-integer range;
    - asymmetric: the accumulated rounding at amplitude ~R must stay below
      half the smallest field scale z^(W-1).
    """
    p = mantissa_bits(precision)
    best = 1
    for w in range(2, max_w + 1):
        if mode == SYMMETRIC:
            mag = rmax + (rmax / w) * sum(z ** -k for k in range(1, w))
            ok = mag <= 2.0 ** (p - 1)
        elif mode == ASYMMETRIC:
            ok = z ** -(w - 1) * (2 * rmax + 1) * u_sys_of(precision) <= 0.5
        else:
            raise InvalidConfigError(f"unknown mode {mode!r}")
        if not ok:
            break
        best = w
    return best


def exact_w_limit(rmax: int, z: float, mode: str, precision: str, max_w: int = 4) -> int:
    """Largest W of the exact region: the intersection of ``compute_wef`` and
    ``exact_packing_limit``. There every unpacked field is an exact integer,
    so the output does not depend on the GEMM's summation order."""
    return min(compute_wef(z, rmax, u_sys_of(precision)),
               exact_packing_limit(rmax, z, mode, precision, max_w))


def _check_quantized_pair(at, bt):
    if at.shape != bt.shape or at.ndim != 2 or at.shape[0] != at.shape[1]:
        raise DimensionError(f"expected square tiles of equal side, got {at.shape}, {bt.shape}")
    if at.dtype != bt.dtype:
        raise DimensionError(f"mixed precisions {at.dtype} and {bt.dtype}")


def pack_symmetric(at: np.ndarray, bt: np.ndarray, w: int, z: float):
    """Fold W row-neighbours of A with z^i and W column-neighbours of B with z^-i."""
    _check_quantized_pair(at, bt)
    L = at.shape[0]
    if L % w != 0:
        raise DimensionError(f"tile side {L} not divisible by W={w}")
    dtype = at.dtype
    zf = dtype.type(z)
    zinv = dtype.type(1.0 / z)
    abar = np.zeros((L, L // w), dtype=dtype)
    bbar = np.zeros((L // w, L), dtype=dtype)
    for i in range(w):
        abar += zf ** i * at[:, i::w]
        bbar += zinv ** i * bt[i::w, :]
    return PackedTile(abar, SYMMETRIC, w, z), PackedTile(bbar, SYMMETRIC, w, z)


def multiply_packed_symmetric(abar: PackedTile, bbar: PackedTile) -> np.ndarray:
    if abar.mode != SYMMETRIC or bbar.mode != SYMMETRIC:
        raise DimensionError("operands are not symmetric-packed")
    if abar.w != bbar.w or abar.z != bbar.z:
        raise DimensionError(
            f"packing mismatch: W {abar.w}/{bbar.w}, z {abar.z}/{bbar.z}"
        )
    return np.matmul(abar.values, bbar.values)


def unpack_symmetric(rbar: np.ndarray, z: float) -> np.ndarray:
    """Strip side results: rounding drops the low side, the z^-1 peel the high."""
    dtype = rbar.dtype
    zf = dtype.type(z)
    zinv = dtype.type(1.0 / z)
    u = round_half_away(rbar)
    return u - zinv * round_half_away(zf * u)


def pack_asymmetric(at: np.ndarray, w: int, z: float) -> PackedTile:
    """Fold W consecutive rows of A with ascending powers of z; B stays unpacked."""
    L = at.shape[0]
    if at.ndim != 2 or at.shape[0] != at.shape[1]:
        raise DimensionError(f"expected a square tile, got {at.shape}")
    if L % w != 0:
        raise DimensionError(f"tile side {L} not divisible by W={w}")
    dtype = at.dtype
    zf = dtype.type(z)
    abar = np.zeros((L // w, L), dtype=dtype)
    for i in range(w):
        abar += zf ** i * at[i::w, :]
    return PackedTile(abar, ASYMMETRIC, w, z)


def multiply_packed_asymmetric(abar: PackedTile, bt: np.ndarray) -> np.ndarray:
    if abar.mode != ASYMMETRIC:
        raise DimensionError("operand is not asymmetric-packed")
    return np.matmul(abar.values, bt)


def unpack_asymmetric(rbar: np.ndarray, z: float, w: int) -> np.ndarray:
    """Iteratively peel the W stacked row-results out of each packed element.

    The i-th peeled result lands on output row W*mbar + i.
    """
    dtype = rbar.dtype
    zinv = dtype.type(1.0 / z)
    L = rbar.shape[1]
    out = np.empty((rbar.shape[0] * w, L), dtype=dtype)
    resid = rbar
    current = round_half_away(resid)
    out[0::w, :] = current
    for i in range(1, w):
        resid = zinv * (resid - current)
        current = round_half_away(resid)
        out[i::w, :] = current
    return out


def packed_product(at: np.ndarray, bt: np.ndarray, mode: str, w: int, z: float) -> np.ndarray:
    """Product of two quantized tiles through packing: pack, multiply, unpack.

    The packed operands are multiplied by BLAS. Inside the exact region
    (``exact_w_limit``) the result is bitwise the order-matched product;
    outside it the bits depend on the BLAS build. W=1 is the order-matched
    plain product.
    """
    if w == 1:
        return plain_subblock_gemm(at, bt)
    if mode == SYMMETRIC:
        abar, bbar = pack_symmetric(at, bt, w, z)
        return unpack_symmetric(multiply_packed_symmetric(abar, bbar), z)
    if mode == ASYMMETRIC:
        abar = pack_asymmetric(at, w, z)
        return unpack_asymmetric(multiply_packed_asymmetric(abar, bt), z, w)
    raise InvalidConfigError(f"unknown mode {mode!r}")


def packed_subblock_product(a_tile: np.ndarray, b_tile: np.ndarray, cfg: PackingConfig) -> np.ndarray:
    """Full pipeline for one subblock pair: quantize, pack, multiply, unpack,
    reverse-compand. W=1 falls back to quantize-multiply-dequantize."""
    at = quantize_subblock(a_tile, cfg.c_a)
    bt = quantize_subblock(b_tile, cfg.c_b)
    rt = packed_product(at, bt, cfg.mode, cfg.w, cfg.z)
    return np.asarray(dequantize(rt, cfg.c_a, cfg.c_b), dtype=a_tile.dtype)
