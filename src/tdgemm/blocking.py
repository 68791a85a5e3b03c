"""Dense matrix tiering: block-major reordering, tile statistics, and the
plain (full-precision) blocked multiply used both standalone and under packed
operands.

The accumulation order is fixed everywhere: subblocks accumulate over the
inner index ``l`` in ascending order, and each subblock product accumulates
its own inner dimension in ascending order. This makes every result bitwise
reproducible and testable against an order-matched oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidConfigError

ROWWISE = "rowwise-raster"
COLUMNWISE = "columnwise-raster"

# Elements of the per-step product buffer in plain_subblock_gemm: enough
# inner indices per step to amortise NumPy's per-call cost at L=48, one index
# per step (the plain loop) at L=288.
_STEP_ELEMS = 1 << 16


@dataclass(frozen=True)
class TileStats:
    vmin: float
    vmax: float
    sigma: float

    @property
    def absmax(self) -> float:
        return max(abs(self.vmin), abs(self.vmax))


@dataclass
class BlockMajorMatrix:
    """L x L tiles of the leading region of a matrix, with per-tile stats.

    ``tiles[i][j]`` is the L x L tile at block row ``i``, block column ``j``.
    Only the top-left region covered by full tiles is represented; border
    residue stays with the original matrix and is handled by ``tiered_gemm``.
    """

    L: int
    orientation: str
    tiles: list
    stats: list
    src_shape: tuple

    @property
    def block_rows(self) -> int:
        return len(self.tiles)

    @property
    def block_cols(self) -> int:
        return len(self.tiles[0]) if self.tiles else 0

    def tile(self, i: int, j: int) -> np.ndarray:
        return self.tiles[i][j]

    def tile_stats(self, i: int, j: int) -> TileStats:
        return self.stats[i][j]


def _tile_stats(tile: np.ndarray) -> TileStats:
    t = tile.astype(np.float64, copy=False)
    # sigma about the tile's own sample mean, computed in double precision
    sigma = float(t.std(ddof=1)) if t.size > 1 else 0.0
    return TileStats(float(t.min()), float(t.max()), sigma)


def reorder_block_major(m: np.ndarray, L: int, orientation: str = ROWWISE) -> BlockMajorMatrix:
    """Cut the full-tile region of ``m`` into L x L tiles and collect stats."""
    if m.ndim != 2 or m.size == 0:
        raise DimensionError("expected a nonempty 2-D matrix")
    if L < 1:
        raise DimensionError(f"tile side must be >= 1, got {L}")
    if orientation not in (ROWWISE, COLUMNWISE):
        raise DimensionError(f"unknown orientation {orientation!r}")
    rows, cols = m.shape
    tiles, stats = [], []
    for i in range(rows // L):
        trow, srow = [], []
        for j in range(cols // L):
            tile = np.ascontiguousarray(m[i * L:(i + 1) * L, j * L:(j + 1) * L])
            trow.append(tile)
            srow.append(_tile_stats(tile))
        tiles.append(trow)
        stats.append(srow)
    return BlockMajorMatrix(L, orientation, tiles, stats, m.shape)


def inverse_reorder(bm: BlockMajorMatrix) -> np.ndarray:
    """Reassemble the region covered by the tiles."""
    L = bm.L
    out = np.empty((bm.block_rows * L, bm.block_cols * L), dtype=bm.tiles[0][0].dtype)
    for i in range(bm.block_rows):
        for j in range(bm.block_cols):
            out[i * L:(i + 1) * L, j * L:(j + 1) * L] = bm.tiles[i][j]
    return out


def plain_subblock_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Native-precision product with ascending-l accumulation.

    Bitwise equal to the naive triple loop with the reduction innermost. Each
    step takes a batch of ``c = min(k, _STEP_ELEMS // (m*n))`` inner indices:
    one multiply writes their rank-1 products into a C-ordered ``(c, m, n)``
    buffer, the running sum is added into slice 0, and an add-reduce over
    axis 0 folds the batch back in. Reducing over the outermost axis of a
    C-ordered buffer adds the slices one after another in ascending ``l``,
    so every element sees the same rounding sequence as the scalar loop.

    A step of one index (``c == 1``, large tiles) keeps the plain rank-1
    update, which is faster there than going through the buffer. A 1 x 1
    output takes it too: the reduce axis would then be the only one, and
    NumPy sums such an axis pairwise, which changes the order.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise DimensionError(f"mixed precisions {a.dtype} and {b.dtype}")
    (m, k), n = a.shape, b.shape[1]
    r = np.zeros((m, n), dtype=a.dtype)
    c = min(k, _STEP_ELEMS // max(1, m * n))
    if c < 2 or m * n <= 1:
        for l in range(k):
            r += a[:, l][:, None] * b[l, :][None, :]
        return r
    buf = np.empty((c, m, n), dtype=a.dtype)
    for l0 in range(0, k, c):
        p = buf[:min(c, k - l0)]
        ls = slice(l0, l0 + len(p))
        np.multiply(a[:, ls].T[:, :, None], b[ls, None, :], out=p)
        p[0] += r
        np.add.reduce(p, axis=0, out=r)
    return r


def tiered_gemm(a: np.ndarray, b: np.ndarray, L: int, plan=None) -> np.ndarray:
    """Blocked A @ B where each L x L subblock product follows its plan entry.

    ``plan`` maps kernel indices ``(i, j)`` to a per-l sequence of chosen
    options (``None`` or W=1 meaning the plain path). Border regions not
    covered by full tiles are always computed with the plain path.
    """
    from . import packing  # deferred: packing multiplies via plain_subblock_gemm

    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise DimensionError(f"mixed precisions {a.dtype} and {b.dtype}")
    m, k = a.shape
    n = b.shape[1]
    mf, kf, nf = (m // L) * L, (k // L) * L, (n // L) * L
    if plan is not None:
        for i in range(m // L):
            for j in range(n // L):
                entry = _plan_entry(plan, i, j)
                if entry is None:
                    continue
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
            entry = _plan_entry(plan, i, j)
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
