"""Companding, floating-point packing, and the packed subblock multiply.

Quantized inputs are folded W at a time into one native float using powers of
the packing coefficient z, so a single multiply-accumulate advances W partial
results. Symmetric mode packs both operands (rows of A against columns of B);
asymmetric mode packs W rows of A and leaves B unpacked. The packed operands
are multiplied by the BLAS GEMM behind ``np.matmul``.

Every rounding goes half away from zero: one ``np.rint`` pass, and a fix
of the ties found in its exact remainder. At L=48 a stage costs more in
NumPy calls than in arithmetic, so ``packed_subblock_product`` quantizes
and checks both tiles at once and runs the later stages on one buffer per
subblock, under one ``np.errstate``; it and the public stage functions
share the cores that do the arithmetic (``_quantize_into``, ``_fold``,
``_unpack_symmetric``, ``_unpack_asymmetric``, ``_round_into``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocking import plain_subblock_gemm
from .config import mantissa_bits, precision_of_dtype, u_sys_of
from .errors import DimensionError, InvalidConfigError, QuantizerOverflowError

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
MODES = (SYMMETRIC, ASYMMETRIC)

# companded amplitudes must stay below this to round to exact integers
_EXACT_INT_LIMIT = {np.dtype(dt): 2.0 ** mantissa_bits(p)
                    for p, dt in (("single", np.float32), ("double", np.float64))}


def _fix_ties(out, rem):
    """Turn the ties of a ``rint`` into ties away from zero.

    ``out`` holds ``rint(x)`` and ``rem`` the exact ``x - out``, which is
    ±0.5 at a tie. A tie goes to ``x + copysign(0.5, x)`` with
    ``x = out + rem`` rebuilt exactly, and its remainder to
    ``-copysign(0.5, x)``; both are exact: a float that holds a half has
    room for the integer next to it.
    """
    ties = np.flatnonzero(np.abs(rem) == 0.5)
    xt = out.flat[ties] + rem.flat[ties]
    half = np.copysign(0.5, xt)
    out.flat[ties] = xt + half
    rem.flat[ties] = -half


def _fix_any_ties(out, rem):
    """``_fix_ties`` if ``rem`` holds a tie. One ``np.fmax`` and one
    ``np.fmin`` reduction find whether any remainder is ±0.5; both skip
    NaN, so the ``inf - inf`` of an infinite entry cannot hide a tie."""
    if rem.size and (np.fmax.reduce(rem, axis=None) == 0.5
                     or np.fmin.reduce(rem, axis=None) == -0.5):
        _fix_ties(out, rem)


def _round_into(x, out, rem):
    """Write ``x`` rounded half away from zero to ``out`` and the exact
    remainder ``x - out`` to ``rem``; ``rem`` may be ``x`` itself.

    ``np.rint`` rounds every entry but the ties this way; it sends a tie to
    the even side, and ``_fix_any_ties`` then moves the ties. Signed zeros,
    ±inf and NaN pass through ``rint`` as they are. An infinite entry makes
    ``inf - inf``: the caller sets ``np.errstate``.
    """
    np.rint(x, out=out)
    np.subtract(x, out, out=rem)
    _fix_any_ties(out, rem)


def round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round a float array to nearest integer, half-way ties away from zero.

    One ``np.rint`` pass writes the result and one subtraction the remainder
    that finds the ties (``_round_into``). Runs in the input dtype; ``out``
    may be ``x`` itself, or overlap it, in which case the integers go
    through a temporary, since ``x`` is needed until the remainder is taken.
    """
    arr = np.asarray(x)
    res = out
    if out is None or np.may_share_memory(arr, out):
        res = np.empty_like(arr)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        _round_into(arr, res, np.empty_like(arr))
    if out is None:
        return res
    if res is not out:
        out[...] = res
    return out


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


def _check_peak(tile, c: float) -> None:
    """The quantizer's overflow guard, on one tile: the companded amplitude
    ``c * max|tile|`` must be below the dtype's exact-integer limit; NaN
    compares false."""
    limit = _EXACT_INT_LIMIT[tile.dtype]
    peak = c * float(np.abs(tile).max()) if tile.size else 0.0
    if not peak < limit:
        bound = ("is not finite" if not math.isfinite(peak)
                 else f"exceeds exact-integer range {limit:.4g}")
        raise QuantizerOverflowError(
            f"companded amplitude {peak:.4g} {bound} of "
            f"{precision_of_dtype(tile.dtype)} precision"
        )


def _quantize_into(tiles, cs, work) -> None:
    """Quantize equally sized tiles together, with their checks.

    ``work`` has shape ``(2, len(tiles), n)``. Each tile, which may be any
    view (such as its W parts), is scaled in float64 and rounded once to
    the dtype into ``work[1]`` in the view's order; one ``rint`` pass
    writes the integers of all of them to ``work[0]``, and the exact
    remainders overwrite ``work[1]``. One max and one min reduction over
    each row find both the ties, which are fixed, and the peaks. Rounding
    is monotone, so a tile's largest |integer| is below the exact-integer
    limit only if ``c * max|tile|`` is, and above it only if that is too:
    only a tile whose integers reach the limit, or are not finite, is
    checked on the tile itself (``_check_peak``), which raises or lets it
    pass. The caller sets ``np.errstate``.
    """
    ints, rems = work
    for tile, c, q in zip(tiles, cs, rems):
        np.multiply(tile, c, out=q.reshape(tile.shape), dtype=np.float64, casting="unsafe")
    np.rint(rems, out=ints)
    np.subtract(rems, ints, out=rems)
    if not ints.size:
        return
    k = len(tiles)
    hi, lo = _extremes(work.reshape(2 * k, -1))
    limit = _EXACT_INT_LIMIT[ints.dtype]
    for tile, c, top, bottom in zip(tiles, cs, hi, lo):
        if not (top < limit and -bottom < limit):  # NaN fails too
            _check_peak(tile, c)
    if 0.5 in hi[k:] or -0.5 in lo[k:]:
        _fix_ties(ints, rems)


def _extremes(rows):
    """Max and min of each row, as lists; NaN if the row holds one."""
    return np.maximum.reduce(rows, axis=1).tolist(), np.minimum.reduce(rows, axis=1).tolist()


def quantize_subblock(tile: np.ndarray, c: float) -> np.ndarray:
    """Scale by the compander in float64, round once to the tile's dtype, and
    round that to integer-valued native floats.

    Raises QuantizerOverflowError when the companded amplitude is not finite
    or not below the exact-integer range of the dtype (``_quantize_into``).
    """
    if c <= 0:
        raise InvalidConfigError(f"compander must be positive, got {c}")
    precision_of_dtype(tile.dtype)  # raises for an unsupported dtype
    work = np.empty((2, 1, tile.size), tile.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # a tile it then rejects
        _quantize_into((tile,), (c,), work)
    return work[0, 0].reshape(tile.shape)


def dequantize(value, c_a: float, c_b: float, out=None):
    """Reverse companding: divide by the product of both companders."""
    if c_a <= 0 or c_b <= 0:
        raise InvalidConfigError("companders must be positive")
    return np.divide(value, c_a * c_b, out=out)


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


def _check_side(L: int, w: int) -> None:
    if L % w != 0:
        raise DimensionError(f"tile side {L} not divisible by W={w}")


def _col_parts(t, w):
    """``t[:, i::w]`` for i < W, stacked on a first axis (a view)."""
    L = t.shape[0]
    return t.reshape(L, L // w, w).transpose(2, 0, 1)


def _row_parts(t, w):
    """``t[i::w, :]`` for i < W, stacked on a first axis (a view)."""
    L = t.shape[0]
    return t.reshape(L // w, w, L).transpose(1, 0, 2)


@lru_cache(maxsize=256)
def _powers(dtype: np.dtype, z: float, w: int) -> np.ndarray:
    """z^i (row 0) and z^-i (row 1) for i < W, shape ``(2, W, 1)``, in the
    dtype: the scalar powers the folds multiply by, computed once per
    (dtype, z, W) by the dtype's own power."""
    zf, zinv = dtype.type(z), dtype.type(1.0 / z)
    powers = np.array([[s ** i for i in range(w)] for s in (zf, zinv)], dtype).reshape(2, w, 1)
    powers.flags.writeable = False  # one array serves every caller
    return powers


def _fold(parts, scales, out, scratch):
    """``out = (((0 + p_0) + s_1 p_1) + s_2 p_2) + ...`` over the W parts
    stacked on the first axis of ``parts``, with s_0 = 1; ``scratch`` is a
    flat buffer of at least ``parts.size`` elements.

    One multiply writes every scaled part to a C-ordered ``(W, ...)``
    buffer, and one add-reduce over its outermost axis, started from
    ``initial=0``, adds them one after another in ascending i: the order of
    the one-part-at-a-time fold. A fold starts at 0 + p_0, so -0 turns +0
    as in a sum from zeros.
    """
    scaled = np.multiply(parts, scales.reshape(-1, 1, 1),
                         out=scratch[:parts.size].reshape(parts.shape))
    return np.add.reduce(scaled, axis=0, out=out, initial=0)


def pack_symmetric(at: np.ndarray, bt: np.ndarray, w: int, z: float):
    """Fold W row-neighbours of A with z^i and W column-neighbours of B with z^-i."""
    _check_quantized_pair(at, bt)
    L = at.shape[0]
    _check_side(L, w)
    zpow, zinvpow = _powers(at.dtype, z, w)
    scratch = np.empty(L * L, at.dtype)
    abar = _fold(_col_parts(at, w), zpow, np.empty((L, L // w), at.dtype), scratch)
    bbar = _fold(_row_parts(bt, w), zinvpow, np.empty((L // w, L), at.dtype), scratch)
    return PackedTile(abar, SYMMETRIC, w, z), PackedTile(bbar, SYMMETRIC, w, z)


def multiply_packed_symmetric(abar: PackedTile, bbar: PackedTile) -> np.ndarray:
    if abar.mode != SYMMETRIC or bbar.mode != SYMMETRIC:
        raise DimensionError("operands are not symmetric-packed")
    if abar.w != bbar.w or abar.z != bbar.z:
        raise DimensionError(f"packing mismatch: W {abar.w}/{bbar.w}, z {abar.z}/{bbar.z}")
    return np.matmul(abar.values, bbar.values)


def _unpack_symmetric(rbar, z, out, rem2):
    """``unpack_symmetric`` into ``out``. The remainders of the first
    rounding overwrite ``rbar``, and those of the second go to ``rem2``;
    the caller sets ``np.errstate``."""
    zf, zinv = _powers(rbar.dtype, z, 2)[:, 1, 0]
    _round_into(rbar, out, rbar)
    _round_into(np.multiply(out, zf, out=rem2), out, rem2)
    return np.multiply(rem2, zinv, out=out)


def unpack_symmetric(rbar: np.ndarray, z: float) -> np.ndarray:
    """Strip side results: rounding drops the low side, the z^-1 peel the high.

    With u = round(rbar) the result is u - z^-1 round(z u). For a power of
    two z, z u is exact, so this equals z^-1 (z u - round(z u)): the
    remainder of the second rounding, scaled back.
    """
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        return _unpack_symmetric(rbar.copy(), z, np.empty_like(rbar), np.empty_like(rbar))


def pack_asymmetric(at: np.ndarray, w: int, z: float) -> PackedTile:
    """Fold W consecutive rows of A with ascending powers of z; B stays unpacked."""
    L = at.shape[0]
    if at.ndim != 2 or at.shape[0] != at.shape[1]:
        raise DimensionError(f"expected a square tile, got {at.shape}")
    _check_side(L, w)
    abar = _fold(_row_parts(at, w), _powers(at.dtype, z, w)[0],
                 np.empty((L // w, L), at.dtype), np.empty(L * L, at.dtype))
    return PackedTile(abar, ASYMMETRIC, w, z)


def multiply_packed_asymmetric(abar: PackedTile, bt: np.ndarray) -> np.ndarray:
    if abar.mode != ASYMMETRIC:
        raise DimensionError("operand is not asymmetric-packed")
    return np.matmul(abar.values, bt)


def _unpack_asymmetric(rbar, z, w, out, rems):
    """``unpack_asymmetric`` into ``out``. ``rems`` is a flat buffer of W
    times rbar's size; slot i receives the remainders of the i-th rounding,
    whose input is slot i-1 scaled by z^-1. The caller sets
    ``np.errstate``."""
    zinv = _powers(rbar.dtype, z, 2)[1, 1, 0]
    slots = rems.reshape(w, *rbar.shape)
    _round_into(rbar, out[0::w, :], slots[0])
    for i in range(1, w):
        _round_into(np.multiply(slots[i - 1], zinv, out=slots[i]), out[i::w, :], slots[i])
    return out


def unpack_asymmetric(rbar: np.ndarray, z: float, w: int) -> np.ndarray:
    """Iteratively peel the W stacked row-results out of each packed element.

    The i-th peeled result lands on output row W*mbar + i. Each residual is
    the remainder of the rounding before it, scaled by z^-1.
    """
    out = np.empty((rbar.shape[0] * w, rbar.shape[1]), dtype=rbar.dtype)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        return _unpack_asymmetric(rbar, z, w, out, np.empty(out.size, rbar.dtype))


def packed_product(at: np.ndarray, bt: np.ndarray, mode: str, w: int, z: float) -> np.ndarray:
    """Product of two quantized tiles through packing: pack, multiply, unpack.

    The packed operands are multiplied by BLAS. Inside the exact region
    (``exact_w_limit``) the result is bitwise the order-matched product;
    outside it the bits depend on the BLAS build. W=1 is the order-matched
    plain product.
    """
    if w == 1:
        return plain_subblock_gemm(at, bt)
    if mode not in MODES:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    _check_quantized_pair(at, bt)
    L = at.shape[0]
    _check_side(L, w)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        return _pack_multiply_unpack(*_parts(at, bt, mode, w), mode, w, z,
                                     np.empty((L, L), at.dtype),
                                     np.empty(2 * L * L + 2 * (L * L // w), at.dtype))


def _parts(at, bt, mode, w):
    """The operands as ``_pack_multiply_unpack`` reads them: in symmetric
    mode A's columns i::W and B's rows i::W, otherwise A's rows i::W and
    B itself (views)."""
    if mode == SYMMETRIC:
        return _col_parts(at, w), _row_parts(bt, w)
    return _row_parts(at, w), bt


def _pack_multiply_unpack(a_parts, b_parts, mode, w, z, out, scratch):
    """Pack, multiply and unpack two quantized L x L tiles given as their
    ``_parts``, into ``out``: the arithmetic of ``pack_*``,
    ``multiply_packed_*`` and ``unpack_*``, through the same cores.

    ``scratch`` is a flat buffer of 2 L*L + 2 L*L/W elements: the folds'
    scaled parts, then the packed product and the unpack's remainders, in
    its first 2 L*L; the packed operands after them. ``out`` may share
    memory with the parts, which are read before it is written. The
    caller sets ``np.errstate``.
    """
    L = out.shape[0]
    n = L * L
    zpow, zinvpow = _powers(out.dtype, z, w)
    rems, folds = scratch[:2 * n], scratch[2 * n:].reshape(2, n // w)
    if mode == SYMMETRIC:
        abar = _fold(a_parts, zpow, folds[0].reshape(L, L // w), rems)
        bbar = _fold(b_parts, zinvpow, folds[1].reshape(L // w, L), rems)
        rbar = np.matmul(abar, bbar, out=rems[:n].reshape(L, L))
        return _unpack_symmetric(rbar, z, out, rems[n:].reshape(L, L))
    abar = _fold(a_parts, zpow, folds[0].reshape(L // w, L), rems)
    rbar = np.matmul(abar, b_parts, out=folds[1].reshape(L // w, L))
    return _unpack_asymmetric(rbar, z, w, out, rems[:n])


def packed_subblock_product(a_tile: np.ndarray, b_tile: np.ndarray, cfg: PackingConfig) -> np.ndarray:
    """Full pipeline for one subblock pair: quantize, pack, multiply, unpack,
    reverse-compand. W=1 falls back to quantize-multiply-dequantize.

    Bitwise the public stages run one after another, on one buffer per
    subblock and under one ``np.errstate``: both tiles are quantized in one
    pass and checked together (``_quantize_into``), each packed operand
    written as its W parts one after another, and ``_pack_multiply_unpack``
    takes it from there. The result is a view of the buffer.
    """
    if cfg.w == 1:
        at = quantize_subblock(a_tile, cfg.c_a)
        bt = quantize_subblock(b_tile, cfg.c_b)
        rt = plain_subblock_gemm(at, bt)
        return dequantize(rt, cfg.c_a, cfg.c_b, out=rt)
    if cfg.mode not in MODES:
        raise InvalidConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.c_a <= 0 or cfg.c_b <= 0:
        raise InvalidConfigError("companders must be positive")
    _check_quantized_pair(a_tile, b_tile)
    if a_tile.dtype not in _EXACT_INT_LIMIT:
        precision_of_dtype(a_tile.dtype)  # raises for an unsupported dtype
    L, w = a_tile.shape[0], cfg.w
    _check_side(L, w)
    a_parts, b_parts = _parts(a_tile, b_tile, cfg.mode, w)
    n = L * L
    # rows of n: the quantized tiles (0-1), the result overwriting row 0;
    # the quantizer's remainders (2-3), then the later stages' scratch,
    # followed by the packed operands
    buf = np.empty(4 * n + 2 * (n // w), a_tile.dtype)
    work = buf[:4 * n].reshape(2, 2, n)
    # over and invalid come only from a tile the quantizer rejects, or from
    # packed values beyond the float range of a configuration outside the
    # packing bound
    with np.errstate(over="ignore", invalid="ignore"):
        _quantize_into((a_parts, b_parts), (cfg.c_a, cfg.c_b), work)
        rt = _pack_multiply_unpack(work[0, 0].reshape(a_parts.shape),
                                   work[0, 1].reshape(b_parts.shape), cfg.mode, w, cfg.z,
                                   buf[:n].reshape(L, L), buf[2 * n:])
    return dequantize(rt, cfg.c_a, cfg.c_b, out=rt)
