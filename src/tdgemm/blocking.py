"""Dense matrix tiering: per-tile statistics, the blocked multiply, and the
plain subblock product on two backends.

The accumulation order across subblocks is fixed everywhere: subblocks
accumulate over the inner index ``l`` in ascending order. Within a plain
subblock the ``backend`` decides. ``reference`` accumulates its inner
dimension in ascending order, as one ``np.einsum`` contraction whose inner
loop runs over output columns (one rank-1 loop where the output has a
single column): every result is bitwise reproducible and testable against
an order-matched oracle. ``blas`` runs ``np.matmul``, whose order is the
BLAS build's choice, so its bits are reproducible per build only.
``tdgemm multiply`` runs its plain products on ``blas``; ``--verify``,
``sweep`` and the tests keep ``reference`` as the oracle. ``tiered_gemm``
runs each subblock as a ``controller.Plan`` chose it: packed subblocks run
through ``packing.packed_subblock_product`` on BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidConfigError, QuantizerOverflowError

# Elements per step of the tile-stats pass: whole block rows at L=48, one tile at L=288.
_STATS_ELEMS = 1 << 17

BACKENDS = ("reference", "blas")
# the backend of the plain products `tdgemm multiply` runs, and so of the
# plain side `tdgemm profile` times
MULTIPLY_BACKEND = "blas"


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
    """Stats of the L x L tiles of ``m``'s full-tile region; an empty or
    narrow ``m`` has none, and its stats are empty arrays of that shape.

    Tiles are copied, as many whole block rows as ``_STATS_ELEMS`` elements
    hold or, where one block row holds more, as many of its tiles, into the
    rows of one reused contiguous float64 buffer, and each row is reduced
    exactly as ``t.min()``, ``t.max()`` and ``t.std(ddof=1)`` reduce the tile
    on its own: sigma is taken about the tile's own sample mean, in double
    precision, by NumPy's ``_var`` steps run on the buffer itself. A buffer
    of every tile at once runs slower at L=288: its passes miss the cache.
    """
    if m.ndim != 2:
        raise DimensionError("expected a 2-D matrix")
    if L < 1:
        raise DimensionError(f"tile side must be >= 1, got {L}")
    bi, bj = m.shape[0] // L, m.shape[1] // L
    n = L * L
    sigma, vmin, vmax = np.zeros(bi * bj), np.empty(bi * bj), np.empty(bi * bj)  # C order
    step = max(1, _STATS_ELEMS // n)  # tiles per step
    rows, cols = (step // bj, bj) if step >= bj > 0 else (1, step)  # block rows, tiles
    buf = np.empty((min(rows, bi) * min(cols, bj), n))
    for i in range(0, bi, rows):
        r = min(rows, bi - i)
        block_rows = m[i * L:(i + r) * L]
        for j in range(0, bj, cols):
            g = min(cols, bj - j)
            t = buf[:r * g]  # tile (i + di, j + dj) on row di * g + dj
            t.reshape(r, g, L, L)[:] = \
                block_rows[:, j * L:(j + g) * L].reshape(r, L, g, L).swapaxes(1, 2)
            at = slice(i * bj + j, i * bj + j + r * g)  # the same tiles
            np.minimum.reduce(t, axis=1, out=vmin[at])
            np.maximum.reduce(t, axis=1, out=vmax[at])
            if n > 1:  # t.std(axis=1, ddof=1) by NumPy's own steps, in place on t
                t -= np.add.reduce(t, axis=1, keepdims=True) / n
                np.square(t, out=t)
                sigma[at] = np.sqrt(np.add.reduce(t, axis=1) / (n - 1))
    return TileStats(*(x.reshape(bi, bj) for x in (sigma, vmin, vmax)))


def _row_major(x: np.ndarray) -> np.ndarray:
    """``x`` if it is aligned with unit-stride rows laid out in ascending
    order (a C-ordered array or a tile of one), else a C-ordered copy."""
    s0, s1 = x.strides
    if x.flags.aligned and s1 == x.itemsize and s0 >= s1 * x.shape[1]:
        return x
    return np.array(x, order="C")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise InvalidConfigError(f"backend must be one of {BACKENDS}, got {backend!r}")


def plain_subblock_gemm(a: np.ndarray, b: np.ndarray, backend: str = "reference") -> np.ndarray:
    """Native-precision product of one plain subblock (W=1, unplanned, borders).

    ``backend="blas"`` is ``np.matmul``: the BLAS build picks the summation
    order, so the result is deterministic per build and within the
    dot-product error bound of the exact product, not bitwise any loop.

    ``backend="reference"`` accumulates in ascending l. It is the bitwise
    oracle the packed BLAS path and the ``blas`` backend are checked
    against. Bitwise equal to the rank-1 loop ``r += a[:, l:l+1] * b[l:l+1, :]``
    over ascending l from a +0.0 start, and so to the naive triple loop with
    the reduction innermost. It is one ``np.einsum("ik,kj->ij", a, b)`` on
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
    _check_backend(backend)
    if backend == "blas":
        return np.matmul(a, b)
    if b.shape[1] == 1:
        r = np.zeros((a.shape[0], 1), dtype=a.dtype)
        for l in range(a.shape[1]):
            r += a[:, l][:, None] * b[l, :][None, :]
        return r
    return np.einsum("ik,kj->ij", _row_major(a), _row_major(b))


def operand_keys(plan) -> tuple:
    """The packed operands that the packed subblocks of a ``controller.Plan``
    read, per side, one per subblock in C order: A's ``((i, l), W, z, c_a)``
    and B's ``((l, j), W, z, c_b)``."""
    i, j, l = (x.tolist() for x in np.nonzero(plan.options["w"] != 1))
    packed = plan.options[i, j, l]
    w, z = packed["w"].tolist(), packed["z"].tolist()
    return (list(zip(zip(i, l), w, z, packed["c_a"].tolist())),
            list(zip(zip(l, j), w, z, packed["c_b"].tolist())))


def tiered_gemm(a: np.ndarray, b: np.ndarray, L: int, plan=None,
                backend: str = "reference") -> np.ndarray:
    """Blocked A @ B where each L x L subblock product follows its plan entry.

    ``plan`` is a ``controller.Plan`` of this tiling, or None for the plain
    path everywhere: subblock l of kernel ``(i, j)`` runs ``plan.options[i,
    j, l]``, packed in ``plan.mode`` where its W is not 1. Before any
    product each distinct (W, z, R_max) is validated once and the
    companders as arrays; a failure names the first subblock whose config
    fails. Border regions not covered by full tiles are always computed
    with the plain path. Every plain product, one ``plain_subblock_gemm``
    call per plain subblock and one per border region, runs on
    ``backend``. Packed subblocks share one ``packing.Workspace`` and name
    their tiles, A's ``(i, l)`` and B's ``(l, j)``. Before the first
    product, ``packing.prepare_operands`` quantizes, checks and folds every
    tile the plan reads once per (W, z, c), stacked per (side, W, z), and
    the workspace keeps them all for the whole multiply, so every packed
    call is a memo hit. If a tile fails its check, the multiply raises
    before any product, with the error a call on its own would raise,
    prefixed with the first packed subblock in C order that reads a failing
    tile, A's before B's.
    """
    from . import packing  # deferred: packing imports blocking

    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"non-conformable operands {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise DimensionError(f"mixed precisions {a.dtype} and {b.dtype}")
    _check_backend(backend)
    if L < 1:
        raise DimensionError(f"tile side must be >= 1, got {L}")
    m, k = a.shape
    n = b.shape[1]
    bi, bl, bj = m // L, k // L, n // L
    mf, kf, nf = bi * L, bl * L, bj * L
    configs = {}  # by subblock in C order; a subblock not in it runs plain

    def where(p):  # the name of subblock p in C order
        ij, l = divmod(p, bl)
        return f"kernel ({ij // bj},{ij % bj}) subblock {l}"

    if plan is not None:
        if plan.options.shape != (bi, bj, bl):
            raise DimensionError(f"plan has {plan.options.shape} subblock options, "
                                 f"tiling needs {(bi, bj, bl)}")
        o = plan.options.reshape(-1)
        packed = np.flatnonzero(o["w"] != 1)
        cfgs = [packing.PackingConfig(plan.mode, *f) for f in
                zip(*(o[f][packed].tolist() for f in ("w", "z", "c_a", "c_b", "rmax")))]
        try:  # each distinct (W, z, R_max) once, the companders as arrays
            for cfg in {(c.w, c.z, c.rmax): c for c in cfgs}.values():
                cfg._replace(c_a=1.0, c_b=1.0).validate()
            if ((o["c_a"][packed] <= 0) | (o["c_b"][packed] <= 0)).any():
                raise InvalidConfigError("companders must be positive")
        except InvalidConfigError:  # name the first subblock whose config fails
            for p, cfg in zip(packed.tolist(), cfgs):
                try:
                    cfg.validate()
                except InvalidConfigError as exc:
                    raise InvalidConfigError(f"{where(p)}: {exc}") from exc
        configs = dict(zip(packed.tolist(), cfgs))
    r = np.zeros((m, n), dtype=a.dtype)
    work = packing.Workspace(L, a.dtype)
    if configs:  # every packed operand the plan reads, before the first product
        keys = operand_keys(plan)
        errors = packing.prepare_operands(work, plan.mode, (a, b), keys)
        for p, key_a, key_b in zip(configs, *keys) if errors else ():  # C order
            exc = errors.get((0, key_a)) or errors.get((1, key_b))  # A's tile first
            if exc:
                raise QuantizerOverflowError(f"{where(p)}: {exc}") from exc
    b_tiles = [[b[l * L:(l + 1) * L, j * L:(j + 1) * L] for j in range(bj)] for l in range(bl)]
    for i in range(bi):
        rows = slice(i * L, (i + 1) * L)
        a_tiles = [a[rows, l * L:(l + 1) * L] for l in range(bl)]
        for j in range(bj):
            acc, p = np.zeros((L, L), dtype=a.dtype), (i * bj + j) * bl
            for l, (at, bt) in enumerate(zip(a_tiles, b_tiles)):
                cfg = configs.get(p + l)
                if cfg is None:
                    acc += plain_subblock_gemm(at, bt[j], backend)
                else:
                    acc += packing.packed_subblock_product(at, bt[j], cfg, work, ((i, l), (l, j)))
            if kf < k:
                acc += plain_subblock_gemm(a[rows, kf:], b[kf:, j * L:(j + 1) * L], backend)
            r[rows, j * L:(j + 1) * L] = acc
    if mf < m:
        r[mf:, :] = plain_subblock_gemm(a[mf:, :], b, backend)
    if nf < n:
        r[:mf, nf:] = plain_subblock_gemm(a[:mf, :], b[:, nf:], backend)
    return r
