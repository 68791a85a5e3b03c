"""Companding, floating-point packing, and the packed subblock multiply.

Quantized inputs are folded W at a time into one native float using powers of
the packing coefficient z, so a single multiply-accumulate advances W partial
results. Symmetric mode packs both operands (rows of A against columns of B);
asymmetric mode packs W rows of A and leaves B unpacked. The packed operands
are multiplied by the BLAS GEMM behind ``np.matmul``.

Every rounding goes half away from zero: one ``np.rint`` pass, and a fix
of the ties found in its exact remainder. ``prepare_operands`` makes every
packed operand a subblock product reads: it quantizes, checks and folds
stacks of tiles of one (side, W, z) into the memo of a ``Workspace``. A
``packed_subblock_product`` call that names its tiles looks both up and
runs only ``_product``: the packed GEMM, the unpack, whose roundings share
one tie search, and one dequantize pass. ``packed_product`` folds integer
tiles as they are and shares that tail. They and the public stages share
the cores that do the arithmetic: ``_quantize_into``, ``_pack_operands``,
``_fold``, ``_unpack_into`` and ``_round_into``.
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
# Elements of both rows of one stacked step of ``prepare_operands``: 14
# tiles at L=48, one at L=288
_PREP_ELEMS = 1 << 16


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


def _quantize_into(tiles, cs, work) -> list:
    """Quantize a stack of k tiles, with their checks: the one quantizer.

    ``work`` has shape ``(2, k, n)``. Tile t, which may be any view (such
    as its W parts), is scaled by ``cs[t]`` in float64 and rounded once to
    the dtype into ``work[1, t]``, in the tile's shape; one ``rint`` pass
    over the stack writes the integers to ``work[0]``, and the exact
    remainders overwrite the scaled values. One max and one min reduction
    over the stack give each tile's extreme integers and remainders (NaN
    if any is): a remainder of ±0.5 marks ties, which are fixed.
    Returns, per tile, whether its integers are finite and below the
    dtype's exact-integer limit. Rounding is monotone, so they are below it
    only if ``c * max|tile|`` is, and at or above it only if that is too: a
    tile that fails goes to ``_check_peak``, which raises or lets it pass.
    The caller sets ``np.errstate``.
    """
    ints, rems = work
    for tile, c, rem in zip(tiles, cs, rems):
        np.multiply(tile, c, out=rem.reshape(tile.shape), dtype=np.float64, casting="unsafe")
    np.rint(rems, out=ints)
    np.subtract(rems, ints, out=rems)
    if not ints.shape[1]:
        return [True] * len(ints)
    (tops, halves), (bottoms, minus_halves) = (np.maximum.reduce(work, axis=2).tolist(),
                                               np.minimum.reduce(work, axis=2).tolist())
    for t, (half, minus_half) in enumerate(zip(halves, minus_halves)):
        if half == 0.5 or minus_half == -0.5:
            _fix_ties(ints[t], rems[t])
    limit = _EXACT_INT_LIMIT[ints.dtype]
    return [top < limit and -bottom < limit for top, bottom in zip(tops, bottoms)]  # NaN fails


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
        if not _quantize_into([tile], [c], work)[0]:
            _check_peak(tile, c)
    return work[0, 0].reshape(tile.shape)


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
    ``powers`` (s_r0 = 1; ``_powers``, or for a stack of one side's operands
    that side's row, which every operand reads). One
    multiply writes every scaled part to the C-ordered ``scaled``, and one
    add-reduce over the W axis, started from ``initial=0``, adds them in
    ascending i: the order of the one-part-at-a-time fold. From 0 + p_0, -0
    turns +0 as in a sum from zeros.
    """
    scaled = np.multiply(parts, powers[:len(parts)], out=scaled)
    return np.add.reduce(scaled, axis=1, out=out, initial=0)


class _Views(NamedTuple):
    """The views of a ``Workspace`` that one (mode, W) reads and writes."""

    rbar: np.ndarray  # the packed product, then the unpack's residuals
    rems: np.ndarray  # the unpack's other remainders (asymmetric: all W)
    ties: np.ndarray  # flat, every remainder of the unpack
    out: np.ndarray  # the unpacked product, L x L
    rows: np.ndarray  # asymmetric: ``out``'s rows i::W, stacked


class Workspace(dict):
    """What the packed subblocks of one multiply, all of tile side L and one
    dtype, run on: one flat buffer ``buf`` of that dtype and, keyed by
    (mode, W), its ``_Views`` of the buffer's first 3 L*L elements, made on
    first use. Rows 0 and 1 hold the unpack's remainders, row 1 the packed
    product, row 2 the unpacked product. ``stack`` gives rows 0 and 1 to the
    k tiles ``prepare_operands`` or ``packed_product`` folds at a time.

    ``operands`` holds A's and B's packed operands, each by (tile index,
    mode, W, z, c), for the calls that name their tiles: ``tiered_gemm``
    puts every one its plan reads there (``prepare_operands``) before its
    first product and keeps them for the whole multiply."""

    def __init__(self, L: int, dtype):
        self.L, self.buf = L, np.empty(3 * L * L, dtype)
        self.operands = ({}, {})

    def stack(self, k: int) -> np.ndarray:
        """Rows 0 and 1 for k tiles, shape ``(2, k, L*L)``, from the start of
        ``buf``, which first grows to hold them if it must; the views made
        on a buffer it replaces are dropped."""
        n = self.L * self.L
        if 2 * k * n > self.buf.size:
            self.buf = np.empty(2 * k * n, self.buf.dtype)
            self.clear()
        return self.buf[:2 * k * n].reshape(2, k, n)

    def __missing__(self, key):
        (mode, w), L, buf = key, self.L, self.buf
        rows3 = buf[:3 * L * L].reshape(3, L * L)
        out = rows3[2].reshape(L, L)
        if mode == SYMMETRIC:
            rbar, rows = rows3[1].reshape(L, L), None
            rems, ties = rows3[0].reshape(L, L), buf[:2 * L * L]
        else:
            rbar, rows = rows3[1, :L * L // w].reshape(L // w, L), _row_parts(out, w)
            rems, ties = rows3[0].reshape(w, L // w, L), rows3[0]
        self[key] = _Views(rbar, rems, ties, out, rows)
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
    subblocks on. ``work`` is as in ``packed_subblock_product``, and the
    result is bitwise its result at unit companders.
    """
    if w == 1:
        return plain_subblock_gemm(at, bt)
    if mode not in MODES:
        raise InvalidConfigError(f"unknown mode {mode!r}")
    work = _workspace_for(at, bt, work)
    _check_side(work.L, w)
    z, (ints, scaled), ops = float(z), work.stack(1), []
    for side, t in enumerate((at, bt)):
        tile = _parts(t, side, mode, w)
        np.copyto(ints[0].reshape(tile.shape), tile)
        ops.append(_pack_operands(ints, scaled, side, mode, w, z)[0])
    return _product(work, ops, mode, w, z, 1.0)


def _pack_operands(ints, scaled, side, mode, w, z):
    """The packed operands of a stack of k tiles of side 0 (A) or 1 (B), as
    one new array of shape ``(k, ...)``, from their integers ``ints``, shape
    ``(k, L*L)``, each laid out as its tile's ``_parts``: folded
    (``pack_*``' arithmetic) or, for asymmetric B, the tiles themselves.
    The fold's scaled parts go to ``scaled``, of the shape of ``ints``."""
    k, n = ints.shape
    L = math.isqrt(n)
    if mode == ASYMMETRIC and side:
        return ints.reshape(k, L, L).copy()
    folded = _fold(ints.reshape(k, w, -1), _powers(ints.dtype, z, w)[side:side + 1], None,
                   scaled.reshape(k, w, -1))
    return folded.reshape(k, *((L, L // w) if mode == SYMMETRIC and not side else (L // w, L)))


def _workspace_for(at, bt, work):
    """``work``, or a new ``Workspace`` if None, checked against the tiles ``at`` and ``bt``."""
    _check_quantized_pair(at, bt)
    L, dt = at.shape[0], at.dtype
    precision_of_dtype(dt)  # raises for an unsupported dtype
    if work is None:
        return Workspace(L, dt)
    if (L, dt) != (work.L, work.buf.dtype):
        raise DimensionError(f"workspace of side {work.L} and {work.buf.dtype} "
                             f"for tiles of side {L} and {dt}")
    return work


def _product(work, ops, mode, w, z, d):
    """The packed GEMM of ``ops`` on ``work``, the unpack and one division
    by ``d`` into a view of ``work``: the tail of ``packed_subblock_product``
    (d = c_a c_b, as in ``dequantize``) and of ``packed_product`` (d = 1).
    Bitwise ``multiply_packed_*``, ``unpack_*`` and the division: one tie
    search serves every rounding of the unpack, redone fixing each only
    after a tie, with no ``np.errstate`` where ``_NO_OVERFLOW`` keeps the
    product of two checked tiles finite. In symmetric mode the division also
    scales by z^-1: z u - round(z u) over d z, exact where z is a power of
    two at most 1 and d z a normal float; at d = 1 it is the multiply by z^-1.
    """
    v, dt, L = work[mode, w], work.buf.dtype, work.L
    tiny, top = _RANGE[dt]
    bounded = 0.0 < z <= 1.0 and L * w * z ** (1 - w) < _NO_OVERFLOW[dt]
    with _NO_GUARD if bounded else np.errstate(over="ignore", invalid="ignore"):
        _unpack_into(np.matmul(*ops, out=v.rbar), v.out, v.rows, v.rems, z, False)
        if _has_tie(v.ties):
            _unpack_into(np.matmul(*ops, out=v.rbar), v.out, v.rows, v.rems, z, True)
    rt = v.rbar if mode == SYMMETRIC else v.out
    if mode == ASYMMETRIC:
        return np.divide(rt, d, out=rt)
    if tiny <= z <= 1.0 and math.frexp(z)[0] == 0.5 and tiny <= d * z and d <= top:
        return np.divide(rt, d * z, out=v.out)
    return np.divide(np.multiply(rt, 1.0 / z, out=v.out), d, out=v.out)


def packed_subblock_product(a_tile: np.ndarray, b_tile: np.ndarray, cfg: PackingConfig,
                            work: Workspace | None = None, tiles=None) -> np.ndarray:
    """Full pipeline for one subblock pair: quantize, pack, multiply, unpack,
    reverse-compand, at a W of at least 2 (W=1 is the plain product).

    ``tiles`` names the two tiles, ``(A's index, B's index)``, whose packed
    operands ``prepare_operands`` put in ``work.operands``: the call then
    runs two lookups and ``_product``, and checks nothing. Without ``tiles``
    it checks its config and tiles, prepares them into a memo of its own
    and raises the error of a tile that fails its check, A's first. Either
    way the result is bitwise the public stages run in turn; it is a view of
    ``work`` (a new ``Workspace`` if None) that lasts until its next call.
    """
    mode, w, z, c_a, c_b, _ = cfg
    z = float(z)
    if tiles is None:
        if w < 2:
            raise InvalidConfigError(f"packing needs W >= 2, got {w}")
        if mode not in MODES:
            raise InvalidConfigError(f"unknown mode {mode!r}")
        if c_a <= 0 or c_b <= 0:
            raise InvalidConfigError("companders must be positive")
        work, tiles, memo = _workspace_for(a_tile, b_tile, work), ((0, 0), (0, 0)), ({}, {})
        errors = prepare_operands(work, mode, (a_tile, b_tile),
                                  ([(tiles[0], w, z, c_a)], [(tiles[1], w, z, c_b)]), memo)
        if errors:
            raise next(iter(errors.values()))
    else:
        memo = work.operands
    ops = memo[0][tiles[0], mode, w, z, c_a], memo[1][tiles[1], mode, w, z, c_b]
    return _product(work, ops, mode, w, z, float(c_a) * float(c_b))


def prepare_operands(work: Workspace, mode: str, mats, keys, memo=None) -> dict:
    """Quantize, check and fold the packed operands of many tiles into
    ``memo`` (``work.operands`` if None): the one place one is made.

    ``keys`` holds, per side (0 for A, 1 for B), ``((r, c), W, z, c)``
    tuples: the L x L tile at block row r and block column c of
    ``mats[side]``, with its W, z and compander c; repeats are dropped. The
    tiles of one (side, W, z) are quantized, checked and folded as stacks
    of as many as ``_PREP_ELEMS`` holds, on ``work.stack``, and each is kept
    under ``((r, c), mode, W, z, c)``. A tile whose integers reach the
    exact-integer limit, or are not finite, goes to ``_check_peak``: one it
    lets pass is kept, and for one it rejects the dict returned holds its
    error under ``(side, key)``, A's first. An unsupported dtype, or a W
    that does not divide L, raises.
    """
    L, dt = work.L, work.buf.dtype
    precision_of_dtype(dt)  # raises for an unsupported dtype
    memo = work.operands if memo is None else memo
    chunk, errors = max(1, _PREP_ELEMS // (2 * L * L)), {}
    with np.errstate(over="ignore", invalid="ignore"):  # from tiles it rejects
        for side, (m, side_keys) in enumerate(zip(mats, keys)):
            groups = {}
            for key in dict.fromkeys(side_keys):
                groups.setdefault((key[1], float(key[2])), []).append(key)
            for (w, z), group in groups.items():
                _check_side(L, w)
                for at in range(0, len(group), chunk):
                    step = group[at:at + chunk]
                    tiles = [_parts(m[i * L:(i + 1) * L, j * L:(j + 1) * L], side, mode, w)
                             for (i, j), *_ in step]
                    work_k = work.stack(len(step))
                    kept = _quantize_into(tiles, [key[3] for key in step], work_k)
                    ops = _pack_operands(*work_k, side, mode, w, z)
                    for key, tile, op, ok in zip(step, tiles, ops, kept):
                        try:
                            if not ok:
                                _check_peak(tile, key[3])
                        except QuantizerOverflowError as exc:
                            errors[side, key] = exc
                        else:
                            memo[side][key[0], mode, w, z, key[3]] = op
    return errors
