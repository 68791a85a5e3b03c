from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdgemm import blocking, packing
from tdgemm.blocking import plain_subblock_gemm, reorder_block_major, tiered_gemm
from tdgemm.config import EngineConfig, compute_L
from tdgemm.errors import DimensionError, InvalidConfigError


def naive_gemm(a, b):
    """Triple loop with ascending-index accumulation, in the input dtype."""
    r = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    for m in range(a.shape[0]):
        for n in range(b.shape[1]):
            acc = a.dtype.type(0)
            for l in range(a.shape[1]):
                acc += a[m, l] * b[l, n]
            r[m, n] = acc
    return r


def rank1_loop(a, b):
    """plain_subblock_gemm before batching: one rank-1 update per inner index."""
    r = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    for l in range(a.shape[1]):
        r += a[:, l][:, None] * b[l, :][None, :]
    return r


LAYOUTS = ["c", "fortran", "reversed", "slice", "unaligned"]


def _layout(x, kind):
    """The same values as ``x`` in a C, Fortran, reversed-stride, sliced or
    unaligned array."""
    if kind == "unaligned":
        # a view at a 1-byte offset into a byte buffer
        y = np.zeros(x.nbytes + 1, np.uint8)[1:].view(x.dtype).reshape(x.shape)
        y[...] = x
        assert not y.flags.aligned or x.size == 0
        return y
    if kind == "fortran":
        return np.asfortranarray(x)
    if kind == "reversed":
        return np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]
    if kind == "slice":
        # a tile of a wider matrix, as tiered_gemm passes its subblocks
        wide = np.zeros((x.shape[0] + 2, 3 * x.shape[1] + 1), dtype=x.dtype)
        wide[1:-1, x.shape[1]:2 * x.shape[1]] = x
        return wide[1:-1, x.shape[1]:2 * x.shape[1]]
    return x


class TestComputeL:
    def test_benchmark_scale(self):
        assert compute_L(EngineConfig(k=6)) == 288

    def test_desk_scale(self):
        assert compute_L(EngineConfig(k=1)) == 48

    def test_minimal(self):
        assert compute_L(EngineConfig(b_repr=8, max_w=2)) == 4

    @given(st.sampled_from([4, 8]), st.integers(1, 4), st.integers(1, 8))
    def test_divisible_by_every_w(self, b_repr, max_w, k):
        cfg = EngineConfig(simd_bytes=16, b_repr=b_repr, max_w=max_w, k=k)
        L = compute_L(cfg)
        for w in range(1, max_w + 1):
            assert L % w == 0

    def test_invalid_b_repr(self):
        with pytest.raises(InvalidConfigError):
            EngineConfig(b_repr=3)

    def test_b_repr_must_divide_simd(self):
        with pytest.raises(InvalidConfigError):
            EngineConfig(simd_bytes=12, b_repr=8)


def tile_stats_loop(m, L):
    """Tile stats as computed before the batched pass: one tile at a time."""
    out = []
    for i in range(m.shape[0] // L):
        row = []
        for j in range(m.shape[1] // L):
            t = np.ascontiguousarray(m[i * L:(i + 1) * L, j * L:(j + 1) * L])
            t = t.astype(np.float64, copy=False)
            sigma = float(t.std(ddof=1)) if t.size > 1 else 0.0
            row.append((sigma, float(t.min()), float(t.max())))
        out.append(row)
    return out


class TestReorder:
    def test_structure_and_stats(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        stats = reorder_block_major(m, 4)
        for arr in (stats.sigma, stats.vmin, stats.vmax):
            assert arr.shape == (2, 2) and arr.dtype == np.float64
        tile = m[0:4, 4:8]
        assert stats.vmin[0, 1] == tile.min() and stats.vmax[0, 1] == tile.max()
        assert stats.sigma[0, 1] == tile.std(ddof=1)

    def test_constant_tile_stats(self):
        stats = reorder_block_major(np.full((4, 4), 5.0), 4)
        assert stats.vmin[0, 0] == stats.vmax[0, 0] == 5.0 and stats.sigma[0, 0] == 0.0

    def test_uniform_sigma(self):
        rng = np.random.default_rng(1)
        a = 7.0
        stats = reorder_block_major(rng.uniform(-a, a, size=(288, 288)), 288)
        assert stats.sigma[0, 0] == pytest.approx(a / np.sqrt(3), rel=0.05)

    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 13),
           st.integers(0, 3), st.integers(0, 4), st.integers(0, 5), st.integers(0, 5),
           st.sampled_from(["c", "fortran", "reversed", "slice"]),
           st.sampled_from([1 << 16, 64, 1]), st.integers(0, 2 ** 31))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_tile_loop_bitwise(self, dtype, L, bi, bj, extra_r, extra_c,
                                           layout, stats_elems, seed):
        """Bitwise equal to per-tile ``std(ddof=1)``, min and max, whatever the
        border residue, operand layout, and number of tiles per step."""
        rng = np.random.default_rng(seed)
        shape = (bi * L + extra_r, bj * L + extra_c)
        if 0 in shape:
            return
        scale = 10.0 ** rng.integers(-4, 5)
        m = _layout((rng.normal(size=shape) * scale + rng.normal() * scale).astype(dtype),
                    layout)
        with mock.patch.object(blocking, "_STATS_ELEMS", stats_elems):
            stats = reorder_block_major(m, L)
        want = tile_stats_loop(m, L)
        assert stats.sigma.shape == (shape[0] // L, shape[1] // L)
        got = [[(s, lo, hi) for s, lo, hi in zip(*rows)]
               for rows in zip(stats.sigma.tolist(), stats.vmin.tolist(), stats.vmax.tolist())]
        assert got == want

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            reorder_block_major(np.empty((0, 4)), 2)


class TestPlainGemm:
    def test_identity(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(6, 6)).astype(np.float32)
        out = plain_subblock_gemm(np.eye(6, dtype=np.float32), b)
        np.testing.assert_array_equal(out, b)

    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(
            plain_subblock_gemm(a, b), [[19.0, 22.0], [43.0, 50.0]]
        )

    def test_matches_naive_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(48, 48)).astype(np.float32)
        b = rng.normal(size=(48, 48)).astype(np.float32)
        np.testing.assert_array_equal(plain_subblock_gemm(a, b), naive_gemm(a, b))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(16, 16)).astype(np.float32)
        b = rng.normal(size=(16, 16)).astype(np.float32)
        r1 = plain_subblock_gemm(a, b)
        r2 = plain_subblock_gemm(a, b)
        np.testing.assert_array_equal(r1, r2)

    @given(
        st.sampled_from([np.float32, np.float64]),
        # a side of 1 (m = 1, n = 1, 1 x 1 outputs) about half the time
        st.one_of(st.just(1), st.integers(1, 64)),
        st.one_of(st.just(1), st.integers(1, 64)),
        st.one_of(st.integers(1, 64), st.integers(1, 300)),
        st.sampled_from(LAYOUTS),
        st.sampled_from(LAYOUTS),
        st.booleans(),
        st.integers(0, 2 ** 31),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_rank1_loop_bitwise(self, dtype, m, n, k, lay_a, lay_b, integer, seed):
        rng = np.random.default_rng(seed)
        if integer:
            # integer-valued with signed zeros, as on the packed path
            a = rng.integers(-3, 4, size=(m, k)) * rng.choice([-1.0, 1.0], size=(m, k))
            b = rng.integers(-3, 4, size=(k, n)) * rng.choice([-1.0, 1.0], size=(k, n))
        else:
            a = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-4, 5, size=(m, k))
            b = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-4, 5, size=(k, n))
        a = _layout(a.astype(dtype), lay_a)
        b = _layout(b.astype(dtype), lay_b)
        got = plain_subblock_gemm(a, b)
        want = rank1_loop(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_order_is_the_loops(self, n):
        """Each column of the product holds two sums of 8 products. Row 0 is
        a -1 product followed by (1 + 2^-12)^2, which the loop rounds to
        1 + 2^-11 before the add and so sums to 2^-11; a fused multiply-add
        keeps the square's 2^-24 and gives 2^-11 + 2^-24. Row 1 is 1e8,
        1 + 2^-12 and, four places on, -1e8: 0 in ascending order, and
        1 + 2^-12 in the unrolled sum NumPy runs when the inner index is the
        inner loop. n = 1 is the one-column fallback, n = 3 the einsum."""
        e = np.float32(1 + 2 ** -12)
        a = np.zeros((2, 8), np.float32)
        a[0, :2] = -1.0, e
        a[1, [0, 1, 4]] = 1e8, 1.0, -1e8
        b = np.zeros((8, n), np.float32)
        b[[0, 1, 4]] = np.array([1.0, e, 1.0], np.float32)[:, None]
        want = rank1_loop(a, b)
        assert (want[0] == 2 ** -11).all() and (want[1] == 0.0).all()
        got = plain_subblock_gemm(a, b)
        assert got.tobytes() == want.tobytes(), (
            f"plain_subblock_gemm gave {got.tolist()}, the rank-1 loop {want.tolist()}: "
            "this NumPy build's einsum loop fuses the multiply-add or reorders the sum"
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_products_past_first_slice(self, dtype):
        """-0.0 products at l = 1..3 land on running sums of +0.0, of an exact
        cancellation and of a nonzero value, and the result keeps the loop's
        bits, in the einsum (two columns) and in the one-column loop."""
        a = np.array([[1.0, -1.0, -0.0, -2.0],
                      [-0.0, -3.0, 3.0, -1.0]], dtype)
        b = np.array([[1.0, 2.0],
                      [1.0, 0.0],
                      [1.0, -0.0],
                      [0.0, 5.0]], dtype)
        want = rank1_loop(a, b)
        assert want.tolist() == [[0.0, -8.0], [0.0, -5.0]]
        assert not np.signbit(want[:, 0]).any()
        assert plain_subblock_gemm(a, b).tobytes() == want.tobytes()
        assert plain_subblock_gemm(a, b[:, :1]).tobytes() == want[:, :1].tobytes()

    def test_empty_inner_dimension_gives_zeros(self):
        for dtype in (np.float32, np.float64):
            out = plain_subblock_gemm(np.zeros((3, 0), dtype), np.zeros((0, 4), dtype))
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            plain_subblock_gemm(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_mixed_precision_rejected(self):
        with pytest.raises(DimensionError):
            plain_subblock_gemm(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.float64))


class TestTieredGemm:
    def test_all_plain_matches_per_tile_sum(self):
        rng = np.random.default_rng(5)
        L = 4
        a = rng.normal(size=(2 * L, 3 * L)).astype(np.float32)
        b = rng.normal(size=(3 * L, 2 * L)).astype(np.float32)
        got = tiered_gemm(a, b, L)
        want = np.zeros((2 * L, 2 * L), dtype=np.float32)
        for i in range(2):
            for j in range(2):
                acc = np.zeros((L, L), dtype=np.float32)
                for l in range(3):
                    acc += plain_subblock_gemm(
                        a[i * L:(i + 1) * L, l * L:(l + 1) * L],
                        b[l * L:(l + 1) * L, j * L:(j + 1) * L],
                    )
                want[i * L:(i + 1) * L, j * L:(j + 1) * L] = acc
        np.testing.assert_array_equal(got, want)

    def test_borders_match_naive(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5)).astype(np.float64)
        b = rng.normal(size=(5, 5)).astype(np.float64)
        got = tiered_gemm(a, b, 4)
        # borders are computed by the same ascending-order plain path
        np.testing.assert_allclose(got, naive_gemm(a, b), rtol=1e-12)

    def test_plan_shape_mismatch(self):
        a = np.zeros((8, 8), np.float32)
        with pytest.raises(DimensionError):
            tiered_gemm(a, a, 4, plan={(0, 0): [None], (0, 1): [None],
                                       (1, 0): [None], (1, 1): [None, None, None]})

    def test_invalid_packing_choice_rejected_before_any_product(self):
        a = np.ones((8, 8), np.float32)
        ok = packing.PackingConfig(
            mode=packing.SYMMETRIC, w=2, z=2.0 ** -8, c_a=1.0, c_b=1.0, rmax=10
        )
        oversized = packing.PackingConfig(
            mode=packing.SYMMETRIC, w=2, z=0.25, c_a=1.0, c_b=1.0, rmax=10
        )
        plan = {(i, j): [ok, ok] for i in range(2) for j in range(2)}
        plan[(1, 1)] = [ok, oversized]
        with mock.patch.object(blocking, "plain_subblock_gemm") as plain, \
                mock.patch.object(packing, "packed_subblock_product") as packed:
            with pytest.raises(InvalidConfigError, match=r"kernel \(1,1\) subblock 1: .*bound"):
                tiered_gemm(a, a, 4, plan)
        plain.assert_not_called()
        packed.assert_not_called()

    def test_none_plan_entries_mean_plain(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)).astype(np.float32)
        b = rng.normal(size=(8, 8)).astype(np.float32)
        plan = {(i, j): [None, None] for i in range(2) for j in range(2)}
        np.testing.assert_array_equal(tiered_gemm(a, b, 4, plan), tiered_gemm(a, b, 4))
