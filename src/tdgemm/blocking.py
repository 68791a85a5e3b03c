"""Dense matrix tiering: per-tile statistics, the blocked multiply, and the
order-matched plain subblock product.

The accumulation order is fixed everywhere: subblocks accumulate over the
inner index ``l`` in ascending order, and each plain subblock product
accumulates its own inner dimension in ascending order, in batches of
rank-1 products written by ``np.einsum`` (up to ``_STEP_ELEMS`` = 2^17
elements per batch, so all k inner indices in one step for every subblock
at L <= 50). This makes every plain result bitwise reproducible and
testable against an order-matched oracle. Packed subblocks run through
``packing.packed_subblock_product`` on BLAS; the plain product stays their
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidConfigError

# Elements of the product buffer in plain_subblock_gemm: enough inner
# indices per step to amortise NumPy's per-call cost, all of them for every
# subblock at L <= 50 (48^3 < 2^17), and one per step (the plain loop) at
# L=288.
_STEP_ELEMS = 1 << 17
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


def _inner_step(m: int, k: int, n: int) -> int:
    """Inner indices per step of an m x k by k x n ``plain_subblock_gemm``;
    below 2 it runs the rank-1 loop."""
    if m * n <= 1:
        return 0
    return min(k, _STEP_ELEMS // (m * n))


def plain_scratch(L: int, dtype) -> np.ndarray:
    """The product buffer ``plain_subblock_gemm`` uses on an L x L subblock,
    allocated once per multiply by ``tiered_gemm`` and passed to every call.
    Empty where the subblock runs the rank-1 loop (L=288)."""
    c = _inner_step(L, L, L)
    return np.empty(c * L * L if c >= 2 else 0, dtype=dtype)


def plain_subblock_gemm(a: np.ndarray, b: np.ndarray, scratch=None) -> np.ndarray:
    """Native-precision product with ascending-l accumulation.

    It runs every plain subblock (W=1, unplanned, borders) and is the bitwise
    oracle the packed BLAS path is checked against.

    Bitwise equal to the naive triple loop with the reduction innermost. Each
    step takes a batch of c inner indices (``_inner_step``): one ``einsum``
    writes their rank-1 products into a C-ordered ``(c, m, n)`` buffer, and
    an add-reduce over axis 0 folds the batch into the running sum. Reducing
    over the outermost axis of a C-ordered buffer adds the slices one after
    another in ascending ``l``, so every element sees the same rounding
    sequence as the scalar loop.

    The first batch is reduced with ``initial=0``, so the sum starts from
    +0.0, as the loop's does, with no zero-filled accumulator; each later
    batch has the running sum added into its slice 0 before the reduce.
    When k*m*n <= ``_STEP_ELEMS`` the first batch holds all k indices.

    ``einsum`` adds each product into a zeroed output, which is exact except
    that a ``-0.0`` product is written as ``+0.0``. That cannot change a
    sum: the running sum starts at ``+0.0`` and under round-to-nearest is
    never ``-0.0`` (a sum is ``-0.0`` only if both terms are), and
    ``s + 0.0 == s + (-0.0)`` for every ``s`` but ``-0.0``. At L=48
    ``einsum`` writes a batch faster than a broadcast ``np.multiply`` does.

    ``scratch`` is an optional flat buffer of the operands' dtype
    (``plain_scratch``); when it holds at least c*m*n elements the batches
    are written there instead of into a buffer allocated per call. The
    result never shares memory with it.

    A step of one index (c == 1, large tiles) keeps the plain rank-1
    update, which is faster there than going through the buffer. A 1 x 1
    output takes it too: the reduce axis would then be the only one, and
    NumPy sums such an axis pairwise, which changes the order.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise DimensionError(f"mixed precisions {a.dtype} and {b.dtype}")
    (m, k), n = a.shape, b.shape[1]
    c = _inner_step(m, k, n)
    if c < 2:
        r = np.zeros((m, n), dtype=a.dtype)
        for l in range(k):
            r += a[:, l][:, None] * b[l, :][None, :]
        return r
    if scratch is None or scratch.size < c * m * n or scratch.dtype != a.dtype:
        scratch = np.empty(c * m * n, dtype=a.dtype)
    buf = scratch[:c * m * n].reshape(c, m, n)
    r = None
    for l0 in range(0, k, c):
        p = buf[:min(c, k - l0)]
        ls = slice(l0, l0 + len(p))
        np.einsum("li,lj->lij", a[:, ls].T, b[ls, :], out=p)
        if r is None:
            r = np.add.reduce(p, axis=0, initial=0)
        else:
            p[0] += r
            np.add.reduce(p, axis=0, out=r)
    return r


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
    scratch = plain_scratch(L, a.dtype)
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
                    acc += plain_subblock_gemm(at, bt, scratch)
                else:
                    acc += packing.packed_subblock_product(at, bt, choice)
            if kf < k:
                acc += plain_subblock_gemm(a[rows, kf:], b[kf:, cols], scratch)
            r[rows, cols] = acc
    if mf < m:
        r[mf:, :] = plain_subblock_gemm(a[mf:, :], b, scratch)
    if nf < n:
        r[:mf, nf:] = plain_subblock_gemm(a[:mf, :], b[:, nf:], scratch)
    return r


def _plan_entry(plan, i, j):
    if plan is None:
        return None
    get = getattr(plan, "subblock_choices", None)
    if get is not None:
        return get(i, j)
    return plan.get((i, j))
