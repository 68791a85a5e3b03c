"""Companding, floating-point packing, and the packed subblock multiply.

Quantized inputs are folded W at a time into one native float using powers of
the packing coefficient z, so a single multiply-accumulate advances W partial
results. Symmetric mode packs both operands (rows of A against columns of B);
asymmetric mode packs W rows of A and leaves B unpacked. The packed operands
are multiplied by the BLAS GEMM behind ``np.matmul``.

Every rounding goes half away from zero: one ``np.rint`` pass, and a fix
of the ties found in its exact remainder. ``packed_subblock_product`` runs
on a multiply's one ``Workspace``, which keeps each tile's packed operand:
a tile is quantized, checked and folded once per (mode, W, z, c) in a
multiply, and every other subblock it enters (a memo hit) runs only the
packed GEMM, the unpack, whose roundings share one tie search, and one
dequantize pass. It and the public stages share the cores that do the
arithmetic (``_quantize_into``, ``_fold``, ``_unpack_into``, ``_round_into``).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .blocking import plain_subblock_gemm
from .config import mantissa_bits, precision_of_dtype, u_sys_of
from .errors import DimensionError, InvalidConfigError, QuantizerOverflowError

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
MODES = (SYMMETRIC, ASYMMETRIC)
# the margin, in units, between packed fields: z <= 1 / (2 R_max + U_SAFE)
U_SAFE = 50

# companded amplitudes must stay below this to round to exact integers
_EXACT_INT_LIMIT = {np.dtype(dt): 2.0 ** mantissa_bits(p)
                    for p, dt in (("single", np.float32), ("double", np.float64))}
_RANGE = {dt: (float(np.finfo(dt).tiny), float(np.finfo(dt).max)) for dt in _EXACT_INT_LIMIT}
# |packed product of two checked tiles| <= L W N^2 z^(1-W) for 0 < z <= 1, N the
# exact-integer limit: finite, with 2x for rounding, where L W z^(1-W) is below this
_NO_OVERFLOW = {dt: _RANGE[dt][1] / (2 * n ** 2) for dt, n in _EXACT_INT_LIMIT.items()}
_NO_GUARD = nullcontext()


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


def _has_tie(rem) -> bool:
    """Whether a remainder is ±0.5; ``np.fmax``/``np.fmin`` skip an ``inf - inf`` NaN."""
    return rem.size > 0 and (np.fmax.reduce(rem, axis=None) == 0.5
                             or np.fmin.reduce(rem, axis=None) == -0.5)


def _round_into(x, out, rem, fix=True):
    """Write ``x`` rounded half away from zero to ``out`` and the exact
    remainder ``x - out`` to ``rem``; ``rem`` may be ``x`` itself.

    ``np.rint`` rounds every entry but the ties this way; it sends a tie to
    the even side, and ``_fix_ties`` then moves the ties, unless ``fix`` is
    false. Signed zeros, ±inf and NaN pass through ``rint`` as they are. An
    infinite entry makes ``inf - inf``: the caller sets ``np.errstate``.
    """
    np.rint(x, out=out)
    np.subtract(x, out, out=rem)
    if fix and _has_tie(rem):
        _fix_ties(out, rem)


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


class PackingConfig(NamedTuple):
    """Operating point for one subblock-pair multiply."""

    mode: str
    w: int
    z: float
    c_a: float
    c_b: float
    rmax: int

    def validate(self) -> None:
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
            if self.rmax >= 1 and self.z > 1.0 / (2 * self.rmax + U_SAFE):
                raise InvalidConfigError(
                    f"z={self.z} exceeds the packing bound 1/(2*{self.rmax}+{U_SAFE})"
                )


class PackedTile(NamedTuple):
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


def _quantize_into(tile, c, work, dest) -> None:
    """Quantize one tile, with its check.

    ``work`` has shape ``(2, n)``. The tile, which may be any view (such as
    its W parts), is scaled in float64 and rounded once to the dtype into
    ``dest``, a view of ``work[1]``; one ``rint`` pass writes its integers
    to ``work[0]``, and the exact remainders overwrite the scaled values.
    One max and one min reduction over each row find both the ties, which
    are fixed, and the peak. Rounding is monotone, so the largest |integer|
    is below the exact-integer limit only if ``c * max|tile|`` is, and above
    it only if that is too: only integers that reach the limit, or are not
    finite, send the tile itself to ``_check_peak``, which raises or lets it
    pass. The caller sets ``np.errstate``.
    """
    ints, rems = work
    np.multiply(tile, c, out=dest, dtype=np.float64, casting="unsafe")
    np.rint(rems, out=ints)
    np.subtract(rems, ints, out=rems)
    if not ints.size:
        return
    (top, half), (bottom, minus_half) = (np.maximum.reduce(work, axis=1).tolist(),
                                         np.minimum.reduce(work, axis=1).tolist())
    limit = _EXACT_INT_LIMIT[ints.dtype]
    if not (top < limit and -bottom < limit):  # NaN fails too
        _check_peak(tile, c)
    if half == 0.5 or minus_half == -0.5:
        _fix_ties(ints, rems)


def quantize_subblock(tile: np.ndarray, c: float) -> np.ndarray:
    """Scale by the compander in float64, round once to the tile's dtype, and
    round that to integer-valued native floats.

    Raises QuantizerOverflowError when the companded amplitude is not finite
    or not below the exact-integer range of the dtype (``_quantize_into``).
    """
    if c <= 0:
        raise InvalidConfigError(f"compander must be positive, got {c}")
    precision_of_dtype(tile.dtype)  # raises for an unsupported dtype
    work = np.empty((2, tile.size), tile.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # a tile it then rejects
        _quantize_into(tile, c, work, work[1].reshape(tile.shape))
    return work[0].reshape(tile.shape)


def dequantize(value, c_a: float, c_b: float, out=None):
    """Reverse companding: divide by c_a * c_b, a Python float NumPy rounds to the dtype."""
    if c_a <= 0 or c_b <= 0:
        raise InvalidConfigError("companders must be positive")
    return np.divide(value, float(c_a) * float(c_b), out=out)


def compute_rmax(c_a: float, c_b: float, L: int, a_absmax: float, b_absmax: float) -> int:
    """Ceiling bound on the amplitude of any packed partial result."""
    return math.ceil(c_a * c_b * L * a_absmax * b_absmax)


def compute_z(rmax: int) -> float:
    """Largest power of two not exceeding 1/(2*rmax + U_SAFE).

    A power of two keeps z and 1/z exact in binary floating point, so the
    packing scale itself adds no rounding noise.
    """
    if rmax < 1:
        raise InvalidConfigError(f"rmax must be >= 1, got {rmax}")
    return 2.0 ** math.floor(math.log2(1.0 / (2 * rmax + U_SAFE)))


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


def _row_parts(t, w):
    """``t[i::w, :]`` for i < W, stacked on a first axis (a view)."""
    return t.reshape(t.shape[0] // w, w, t.shape[1]).transpose(1, 0, 2)


def _parts(t, side, mode, w):
    """Operand tile ``t`` of side 0 (A) or 1 (B) as the quantizer reads it
    (a view): in symmetric mode A's columns i::W and B's rows i::W,
    otherwise A's rows i::W and B itself."""
    if mode == SYMMETRIC and not side:
        return t.reshape(t.shape[0], -1, w).transpose(2, 0, 1)
    return t if side and mode == ASYMMETRIC else _row_parts(t, w)


@lru_cache(maxsize=256)
def _powers(dtype: np.dtype, z: float, w: int) -> np.ndarray:
    """z^i (row 0) and z^-i (row 1) for i < W, shape ``(2, W, 1)``, in the
    dtype: the scalar powers the folds multiply by, computed once per
    (dtype, z, W) by the dtype's own power."""
    zf, zinv = dtype.type(z), dtype.type(1.0 / z)
    powers = np.array([[s ** i for i in range(w)] for s in (zf, zinv)], dtype).reshape(2, w, 1)
    powers.flags.writeable = False  # one array serves every caller
    return powers


def _fold(parts, powers, out=None, scaled=None):
    """``out[r] = (((0 + p_r0) + s_r1 p_r1) + s_r2 p_r2) + ...`` for the k
    operands of ``parts``, shape ``(k, W, n)``, with s from row r of
    ``powers`` (s_r0 = 1; ``_powers``, or for B alone its rows from 1). One
    multiply writes every scaled part to the C-ordered ``scaled``, and one
    add-reduce over the W axis, started from ``initial=0``, adds them in
    ascending i: the order of the one-part-at-a-time fold. From 0 + p_0, -0
    turns +0 as in a sum from zeros.
    """
    scaled = np.multiply(parts, powers[:len(parts)], out=scaled)
    return np.add.reduce(scaled, axis=1, out=out, initial=0)


class _Views(NamedTuple):
    """The views of a ``Workspace`` that one (mode, W) reads and writes."""

    quant: np.ndarray  # (2, n): a tile's integers, then its remainders
    dests: tuple  # per side, the remainder row shaped as the tile's ``_parts``
    rbar: np.ndarray  # the packed product, then the unpack's residuals
    rems: np.ndarray  # the unpack's other remainders (asymmetric: all W)
    ties: np.ndarray  # flat, every remainder of the unpack
    out: np.ndarray  # the unpacked product, L x L
    rows: np.ndarray  # asymmetric: ``out``'s rows i::W, stacked


class Workspace(dict):
    """One flat buffer of 3 L*L elements of the tile dtype that the packed
    subblocks of one multiply run on, and, keyed by the tiles' (side, dtype,
    mode, W), its ``_Views``, made on first use; a key of another side or
    dtype raises. Rows 0 and 1 hold the integers and remainders of the tile
    being quantized, then the unpack's remainders; row 1 the fold's scaled
    parts and the packed product; row 2 the unpacked product.

    ``operands`` holds A's and B's packed operands, each by (tile index,
    mode, W, z, c), for the calls that name their tiles; ``tiered_gemm``
    clears A's at the end of each block row."""

    def __init__(self, L: int, dtype):
        self.L, self.buf = L, np.empty(3 * L * L, dtype)
        self.operands = ({}, {})

    def __missing__(self, key):
        (L, dtype, mode, w), buf = key, self.buf
        if (L, dtype) != (self.L, buf.dtype):
            raise DimensionError(f"workspace of side {self.L} and {buf.dtype} "
                                 f"for tiles of side {L} and {dtype}")
        rows3 = buf.reshape(3, L * L)
        out = rows3[2].reshape(L, L)
        if mode == SYMMETRIC:
            rbar, rows = rows3[1].reshape(L, L), None
            rems, ties = rows3[0].reshape(L, L), buf[:2 * L * L]
        else:
            rbar, rows = rows3[1, :L * L // w].reshape(L // w, L), _row_parts(out, w)
            rems, ties = rows3[0].reshape(w, L // w, L), rows3[0]
        # the quantizer writes each tile as its _parts, in their shape
        dests = tuple(rows3[1].reshape(_parts(out, side, mode, w).shape) for side in (0, 1))
        self[key] = _Views(rows3[:2], dests, rbar, rems, ties, out, rows)
        return self[key]


def pack_symmetric(at: np.ndarray, bt: np.ndarray, w: int, z: float):
    """Fold W row-neighbours of A with z^i and W column-neighbours of B with z^-i."""
    _check_quantized_pair(at, bt)
    L = at.shape[0]
    _check_side(L, w)
    parts = np.stack([_parts(t, side, SYMMETRIC, w).reshape(w, -1)
                      for side, t in enumerate((at, bt))])
    abar, bbar = _fold(parts, _powers(at.dtype, z, w))
    return (PackedTile(abar.reshape(L, L // w), SYMMETRIC, w, z),
            PackedTile(bbar.reshape(L // w, L), SYMMETRIC, w, z))


def multiply_packed_symmetric(abar: PackedTile, bbar: PackedTile) -> np.ndarray:
    if abar.mode != SYMMETRIC or bbar.mode != SYMMETRIC:
        raise DimensionError("operands are not symmetric-packed")
    if abar.w != bbar.w or abar.z != bbar.z:
        raise DimensionError(f"packing mismatch: W {abar.w}/{bbar.w}, z {abar.z}/{bbar.z}")
    return np.matmul(abar.values, bbar.values)


def _unpack_into(rbar, out, rows, rems, z, fix):
    """The unpack's roundings of ``rbar``, remainders to ``rems``, with a
    Python float ``z``: symmetric (``rows`` None) leaves z u - round(z u),
    u = round(rbar), in ``rbar``; else result i goes to ``rows[i]``. ``fix``
    fixes each rounding's ties before the next; the caller sets errstate."""
    if rows is None:
        _round_into(rbar, out, rems, fix)
        _round_into(np.multiply(out, z, out=rbar), out, rbar, fix)
    else:
        for i, row in enumerate(rows):
            _round_into(np.multiply(rems[i - 1], 1 / z, out=rbar) if i else rbar, row, rems[i], fix)


def unpack_symmetric(rbar: np.ndarray, z: float) -> np.ndarray:
    """Strip side results: rounding drops the low side, the z^-1 peel the high.

    With u = round(rbar) the result is u - z^-1 round(z u). For a power of
    two z, z u is exact, so this equals z^-1 (z u - round(z u)): the
    remainder of the second rounding, scaled back.
    """
    rem, out = rbar.copy(), np.empty_like(rbar)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        _unpack_into(rem, out, None, rem, float(z), True)
    return np.multiply(rem, 1.0 / float(z), out=out)


def pack_asymmetric(at: np.ndarray, w: int, z: float) -> PackedTile:
    """Fold W consecutive rows of A with ascending powers of z; B stays unpacked."""
    L = at.shape[0]
    if at.ndim != 2 or at.shape[0] != at.shape[1]:
        raise DimensionError(f"expected a square tile, got {at.shape}")
    _check_side(L, w)
    (abar,) = _fold(_row_parts(at, w).reshape(1, w, -1), _powers(at.dtype, z, w))
    return PackedTile(abar.reshape(L // w, L), ASYMMETRIC, w, z)


def multiply_packed_asymmetric(abar: PackedTile, bt: np.ndarray) -> np.ndarray:
    if abar.mode != ASYMMETRIC:
        raise DimensionError("operand is not asymmetric-packed")
    return np.matmul(abar.values, bt)


def unpack_asymmetric(rbar: np.ndarray, z: float, w: int) -> np.ndarray:
    """Iteratively peel the W stacked row-results out of each packed element.

    The i-th peeled result lands on output row W*mbar + i. Each residual is
    the remainder of the rounding before it, scaled by z^-1.
    """
    out, r = np.empty((rbar.shape[0] * w, rbar.shape[1]), dtype=rbar.dtype), rbar.copy()
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        _unpack_into(r, None, _row_parts(out, w), (r,) * w, float(z), True)
    return out


def packed_product(at: np.ndarray, bt: np.ndarray, mode: str, w: int, z: float,
                   work: Workspace | None = None) -> np.ndarray:
    """Product of two quantized tiles through packing: pack, multiply, unpack.

    The packed operands are multiplied by BLAS. Inside the exact region
    (``exact_w_limit``) the result is bitwise the order-matched product;
    outside it the bits depend on the BLAS build. W=1 is the plain product
    on the order-matched ``reference`` backend, the oracle of the packed
    path, not the ``blas`` backend ``tdgemm multiply`` runs its W=1
    subblocks on. ``work`` is as in ``packed_subblock_product``.
    """
    if w == 1:
        return plain_subblock_gemm(at, bt)
    if mode not in MODES:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    _check_quantized_pair(at, bt)
    L = at.shape[0]
    _check_side(L, w)
    v = (Workspace(L, at.dtype) if work is None else work)[L, at.dtype, mode, w]
    z, ops = float(z), []
    with np.errstate(invalid="ignore"):  # inf - inf for infinite entries
        for side, t in enumerate((at, bt)):
            tile = _parts(t, side, mode, w)
            np.copyto(v.quant[0].reshape(tile.shape), tile)
            ops.append(_pack_operand(v, side, mode, w, z))
        rt = _multiply_unpack(v, ops, mode, z)
    return np.multiply(rt, 1.0 / z, out=v.out) if mode == SYMMETRIC else rt


def _pack_operand(v, side, mode, w, z):
    """The packed operand of side 0 (A) or 1 (B), as a new array, from the
    integers of its tile in the ``_Views`` ``v``, laid out as the tile's
    ``_parts``: folded (``pack_*``' arithmetic) or, for asymmetric B, the
    tile itself. The fold's scaled parts go over the remainder row."""
    ints = v.quant[0]
    L = v.out.shape[0]
    if mode == ASYMMETRIC and side:
        return ints.reshape(L, L).copy()
    (folded,) = _fold(ints.reshape(1, w, -1), _powers(ints.dtype, z, w)[side:], None,
                      v.quant[1].reshape(1, w, -1))
    return folded.reshape((L, L // w) if mode == SYMMETRIC and not side else (L // w, L))


def _multiply_unpack(v, ops, mode, z):
    """Multiply and unpack ``ops`` into ``v.rbar`` (symmetric, unscaled) or
    ``v.out``, bitwise as ``multiply_packed_*`` and ``unpack_*``: one tie
    search serves every rounding; only after a tie is it redone, fixing each."""
    _unpack_into(np.matmul(*ops, out=v.rbar), v.out, v.rows, v.rems, z, False)
    if _has_tie(v.ties):
        _unpack_into(np.matmul(*ops, out=v.rbar), v.out, v.rows, v.rems, z, True)
    return v.rbar if mode == SYMMETRIC else v.out


def packed_subblock_product(a_tile: np.ndarray, b_tile: np.ndarray, cfg: PackingConfig,
                            work: Workspace | None = None, tiles=None) -> np.ndarray:
    """Full pipeline for one subblock pair: quantize, pack, multiply, unpack,
    reverse-compand, at a W of at least 2 (W=1 is the plain product).

    Bitwise the public stages run one after another: each tile is quantized
    and checked (``_quantize_into``) and packed (``_pack_operand``), A
    first, ``_multiply_unpack`` multiplies and unpacks, and the division is
    ``dequantize``'s. ``tiles`` names the two tiles, ``(A's index, B's index)``: a
    tile's packed operand is then kept in ``work.operands`` under (index,
    mode, W, z, c) for later calls that name it, unless it fails its check.
    The result, a view of ``work`` (a new ``Workspace`` if None), lasts until its next call.

    A memo hit (both operands kept) runs two lookups, the packed GEMM, the
    unpack and one division into the result, with no ``np.errstate`` where
    ``_NO_OVERFLOW`` keeps the product finite. In symmetric mode that division
    also scales by z^-1: z u - round(z u) over the divisor times z, exact
    where z is a power of two at most 1 and that product a normal float.
    """
    mode, w, z, c_a, c_b, _ = cfg
    z = float(z)
    if w < 2:
        raise InvalidConfigError(f"packing needs W >= 2, got {w}")
    if mode not in MODES:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    if c_a <= 0 or c_b <= 0:
        raise InvalidConfigError("companders must be positive")
    _check_quantized_pair(a_tile, b_tile)
    dt, L = a_tile.dtype, a_tile.shape[0]
    if dt not in _EXACT_INT_LIMIT:
        precision_of_dtype(dt)  # raises for an unsupported dtype
    _check_side(L, w)
    work = Workspace(L, dt) if work is None else work
    v = work[L, dt, mode, w]
    memo, (ta, tb) = (work.operands, tiles) if tiles is not None else (({}, {}), (0, 0))
    keys = (ta, mode, w, z, c_a), (tb, mode, w, z, c_b)
    ops = [memo[0].get(keys[0]), memo[1].get(keys[1])]
    if ops[0] is None or ops[1] is None:
        with np.errstate(over="ignore", invalid="ignore"):  # from a tile it rejects
            for side, (t, c) in enumerate(((a_tile, c_a), (b_tile, c_b))):
                if ops[side] is None:
                    _quantize_into(_parts(t, side, mode, w), c, v.quant, v.dests[side])
                    ops[side] = memo[side][keys[side]] = _pack_operand(v, side, mode, w, z)
    d, (tiny, top) = float(c_a) * float(c_b), _RANGE[dt]  # d as in dequantize
    bounded = 0.0 < z <= 1.0 and L * w * z ** (1 - w) < _NO_OVERFLOW[dt]
    with _NO_GUARD if bounded else np.errstate(over="ignore", invalid="ignore"):
        rt = _multiply_unpack(v, ops, mode, z)
    if mode == ASYMMETRIC:
        return np.divide(rt, d, out=rt)
    if tiny <= z <= 1.0 and math.frexp(z)[0] == 0.5 and tiny <= d * z and d <= top:
        return np.divide(rt, d * z, out=v.out)
    return np.divide(np.multiply(rt, 1.0 / z, out=v.out), d, out=v.out)
