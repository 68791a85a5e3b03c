"""Dense matrix tiering: per-tile statistics, the blocked multiply, and the
order-matched plain subblock product.

The accumulation order is fixed everywhere: subblocks accumulate over the
inner index ``l`` in ascending order, and each plain subblock product
accumulates its own inner dimension in ascending order, as one
``np.einsum`` contraction whose inner loop runs over output columns (one
rank-1 loop where the output has a single column). This makes every plain
result bitwise reproducible and testable against an order-matched oracle.
Packed subblocks run through ``packing.packed_subblock_product`` on BLAS;
the plain product stays their reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidConfigError

# Elements per step of the tile-stats pass: many L=48 tiles, one L=288 tile.
_STATS_ELEMS = 1 << 16


@dataclass(frozen=True)
class TileStats:
    """Per-tile statistics of a matrix's full-tile region.

    Each field has shape ``(rows // L, cols // L)``; entry ``[i, j]``
    describes the L x L tile at block row ``i``, block column ``j``. Border
    residue is not covered; ``tiered_gemm`` multiplies it plainly.
    """

    sigma: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray


def reorder_block_major(m: np.ndarray, L: int) -> TileStats:
    """Stats of the L x L tiles of ``m``'s full-tile region.

    Tiles are copied, a block row's worth or ``_STATS_ELEMS`` elements at a
    time, into the rows of one reused contiguous float64 buffer, and each
    row is reduced exactly as ``t.min()``, ``t.max()`` and ``t.std(ddof=1)``
    reduce the tile on its own: sigma is taken about the tile's own sample
    mean, in double precision, by NumPy's ``_var`` steps run on the buffer
    itself. A buffer of every tile at once runs slower at L=288: its passes
    miss the cache.
    """
    if m.ndim != 2 or m.size == 0:
        raise DimensionError("expected a nonempty 2-D matrix")
    if L < 1:
        raise DimensionError(f"tile side must be >= 1, got {L}")
    bi, bj = m.shape[0] // L, m.shape[1] // L
    n = L * L
    sigma, vmin, vmax = np.zeros((bi, bj)), np.empty((bi, bj)), np.empty((bi, bj))
    step = max(1, _STATS_ELEMS // n)  # tiles per step
    buf = np.empty((min(step, bj), L, L))
    for i in range(bi):
        block_row = m[i * L:(i + 1) * L]
        for j in range(0, bj, step):
            g = min(step, bj - j)
            buf[:g] = block_row[:, j * L:(j + g) * L].reshape(L, g, L).swapaxes(0, 1)
            t = buf[:g].reshape(g, n)
            np.minimum.reduce(t, axis=1, out=vmin[i, j:j + g])
            np.maximum.reduce(t, axis=1, out=vmax[i, j:j + g])
            if n > 1:  # t.std(axis=1, ddof=1) by NumPy's own steps, in place on t
                t -= np.add.reduce(t, axis=1, keepdims=True) / n
                np.square(t, out=t)
                sigma[i, j:j + g] = np.sqrt(np.add.reduce(t, axis=1) / (n - 1))
    return TileStats(sigma, vmin, vmax)


def _row_major(x: np.ndarray) -> np.ndarray:
    """``x`` if it is aligned with unit-stride rows laid out in ascending
    order (a C-ordered array or a tile of one), else a C-ordered copy."""
    s0, s1 = x.strides
    if x.flags.aligned and s1 == x.itemsize and s0 >= s1 * x.shape[1]:
        return x
    return np.array(x, order="C")


def plain_subblock_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Native-precision product with ascending-l accumulation.

    It runs every plain subblock (W=1, unplanned, borders) and is the bitwise
    oracle the packed BLAS path is checked against.

    Bitwise equal to the rank-1 loop ``r += a[:, l:l+1] * b[l:l+1, :]`` over
    ascending l from a +0.0 start, and so to the naive triple loop with the
    reduction innermost. It is one ``np.einsum("ik,kj->ij", a, b)`` on
    row-major operands (``_row_major``; a Fortran-ordered, reversed or
    unaligned operand is copied first). On such operands NumPy's iterator
    puts the reduction index l between i and j, with its inner loop over j:
    each step adds one rounded product into every element of an output row,
    which starts zeroed, so each element sees the loop's rounding sequence.
    ``einsum`` is not asked for an order here, and NumPy does not promise
    one; the tests pin it on the running build, fused multiply-adds and
    reordered sums included.

    A ``-0.0`` product added to a ``+0.0`` start gives ``+0.0`` in both the
    loop and ``einsum``, so signed zeros match too.

    A ``b`` of one column keeps the rank-1 loop: with no j axis the iterator
    makes l the inner loop, whose sum is unrolled and so reordered.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise DimensionError(f"mixed precisions {a.dtype} and {b.dtype}")
    if b.shape[1] == 1:
        r = np.zeros((a.shape[0], 1), dtype=a.dtype)
        for l in range(a.shape[1]):
            r += a[:, l][:, None] * b[l, :][None, :]
        return r
    return np.einsum("ik,kj->ij", _row_major(a), _row_major(b))


def tiered_gemm(a: np.ndarray, b: np.ndarray, L: int, plan=None) -> np.ndarray:
    """Blocked A @ B where each L x L subblock product follows its plan entry.

    ``plan`` maps kernel indices ``(i, j)`` to a per-l sequence of chosen
    options (``None`` or W=1 meaning the plain path). Border regions not
    covered by full tiles are always computed with the plain path.
    """
    from . import packing  # deferred: packing imports blocking

    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise DimensionError(f"mixed precisions {a.dtype} and {b.dtype}")
    m, k = a.shape
    n = b.shape[1]
    mf, kf, nf = (m // L) * L, (k // L) * L, (n // L) * L
    entries = {}  # each kernel's choices, read once
    if plan is not None:
        for i in range(m // L):
            for j in range(n // L):
                entry = _plan_entry(plan, i, j)
                if entry is None:
                    continue
                entries[(i, j)] = entry
                if len(entry) != k // L:
                    raise DimensionError(
                        f"plan for kernel ({i},{j}) has {len(entry)} subblock choices, "
                        f"tiling needs {k // L}"
                    )
                for l, choice in enumerate(entry):
                    if choice is not None and choice.w > 1:
                        try:
                            choice.validate()
                        except InvalidConfigError as exc:
                            raise InvalidConfigError(
                                f"kernel ({i},{j}) subblock {l}: {exc}"
                            ) from exc
    r = np.zeros((m, n), dtype=a.dtype)
    for i in range(m // L):
        rows = slice(i * L, (i + 1) * L)
        for j in range(n // L):
            cols = slice(j * L, (j + 1) * L)
            entry = entries.get((i, j))
            acc = np.zeros((L, L), dtype=a.dtype)
            for l in range(k // L):
                at = a[rows, l * L:(l + 1) * L]
                bt = b[l * L:(l + 1) * L, cols]
                choice = entry[l] if entry is not None else None
                if choice is None or choice.w == 1:
                    acc += plain_subblock_gemm(at, bt)
                else:
                    acc += packing.packed_subblock_product(at, bt, choice)
            if kf < k:
                acc += plain_subblock_gemm(a[rows, kf:], b[kf:, cols])
            r[rows, cols] = acc
    if mf < m:
        r[mf:, :] = plain_subblock_gemm(a[mf:, :], b)
    if nf < n:
        r[:mf, nf:] = plain_subblock_gemm(a[:mf, :], b[:, nf:])
    return r


def _plan_entry(plan, i, j):
    if plan is None:
        return None
    get = getattr(plan, "subblock_choices", None)
    if get is not None:
        return get(i, j)
    return plan.get((i, j))
