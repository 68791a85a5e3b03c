from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import plan_of
from tdgemm import blocking, packing
from tdgemm.blocking import plain_subblock_gemm, reorder_block_major, tiered_gemm
from tdgemm.errors import DimensionError, InvalidConfigError, QuantizerOverflowError


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
           st.sampled_from([1 << 17, 64, 1]), st.integers(0, 2 ** 31))
    # steps of two whole block rows of 3 tiles of 16 elements, the last of one
    @example(np.float32, 4, 5, 3, 1, 2, "c", 2 * 3 * 16, 7)
    @example(np.float64, 4, 3, 3, 3, 0, "fortran", 2 * 3 * 16 + 15, 8)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_tile_loop_bitwise(self, dtype, L, bi, bj, extra_r, extra_c,
                                           layout, stats_elems, seed):
        """Bitwise equal to per-tile ``std(ddof=1)``, min and max, whatever the
        border residue, operand layout, and number of tiles or whole block
        rows per step, empty matrices included."""
        rng = np.random.default_rng(seed)
        shape = (bi * L + extra_r, bj * L + extra_c)
        scale = 10.0 ** rng.integers(-4, 5)
        m = _layout((rng.normal(size=shape) * scale + rng.normal() * scale).astype(dtype),
                    layout)
        with mock.patch.object(blocking, "_STATS_ELEMS", stats_elems):
            stats = reorder_block_major(m, L)
        want = oracles.tile_stats(m, L)
        assert stats.sigma.shape == (shape[0] // L, shape[1] // L)
        got = [[(s, lo, hi) for s, lo, hi in zip(*rows)]
               for rows in zip(stats.sigma.tolist(), stats.vmin.tolist(), stats.vmax.tolist())]
        assert got == want

    def test_takes_empty_rejects_non_2d(self):
        """A matrix with no full tile, empty or not, has empty stats of
        shape ``(rows // L, cols // L)``; only a matrix that is not 2-D is
        rejected."""
        for shape in ((0, 4), (4, 0), (0, 0), (1, 4), (0, 9)):
            stats = reorder_block_major(np.empty(shape), 2)
            for arr in (stats.sigma, stats.vmin, stats.vmax):
                assert arr.shape == (shape[0] // 2, shape[1] // 2) and arr.size == 0
        for m in (np.empty(4), np.empty((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(DimensionError, match="expected a 2-D matrix"):
                reorder_block_major(m, 2)


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
        np.testing.assert_array_equal(plain_subblock_gemm(a, b), oracles.naive_gemm(a, b))

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
        """The rank-1 loop's operations, each product rounded and added in
        ascending l from +0.0, as ``naive_gemm`` runs them."""
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
        want = oracles.naive_gemm(a, b)
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
        want = oracles.naive_gemm(a, b)
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
        want = oracles.naive_gemm(a, b)
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

    def test_unknown_backend_rejected(self):
        a = np.zeros((2, 2), np.float32)
        with pytest.raises(InvalidConfigError, match="backend must be one of"):
            plain_subblock_gemm(a, a, "einsum")
        with pytest.raises(InvalidConfigError, match="backend must be one of"):
            tiered_gemm(a, a, 2, backend="einsum")


class TestBlasBackend:
    """``backend="blas"`` is the fast path ``tdgemm multiply`` runs: gated
    against the float64 product by the float32 dot-product error bound, and
    deterministic on rerun."""

    # (m, k, n): a full tile, a one-column b, and the k, m and n borders
    # ``tiered_gemm`` runs at L=48
    SHAPES = [(48, 48, 48), (48, 48, 1), (48, 5, 48), (7, 384, 384), (384, 384, 11),
              (1, 48, 1)]

    @given(st.sampled_from(SHAPES), st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS),
           st.floats(-3.0, 3.0), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_rerun_bitwise_and_within_dot_product_bound(self, shape, lay_a, lay_b, mean,
                                                        seed):
        """|fl(AB) - AB| <= gamma_k |A||B| elementwise, gamma_k = k u / (1 - k u)
        with u = 2^-24, whatever the summation order and fused multiply-adds.
        Products of float32 values are exact in float64 and the float64 sums
        of k <= 384 of them err by at most gamma_k(2^-53) |A||B|, which the
        bound takes in."""
        m, k, n = shape
        rng = np.random.default_rng(seed)
        a = _layout((rng.normal(size=(m, k)) + mean).astype(np.float32), lay_a)
        b = _layout((rng.normal(size=(k, n)) + mean).astype(np.float32), lay_b)
        got = plain_subblock_gemm(a, b, "blas")
        assert got.dtype == np.float32 and got.shape == (m, n)
        assert plain_subblock_gemm(a, b, "blas").tobytes() == got.tobytes()
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        gamma = lambda u: k * u / (1 - k * u)  # noqa: E731
        bound = (gamma(2.0 ** -24) + gamma(2.0 ** -53)) * (np.abs(a64) @ np.abs(b64))
        assert (np.abs(got - a64 @ b64) <= bound).all()

    def test_tiered_gemm_runs_every_plain_product_on_the_backend(self):
        """Each plain subblock, the k border of each kernel and the m and n
        borders are one ``plain_subblock_gemm`` call on the chosen backend."""
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2 * 4 + 1, 3 * 4 + 2)).astype(np.float32)
        b = rng.normal(size=(3 * 4 + 2, 2 * 4 + 3)).astype(np.float32)
        backends = []

        def plain(x, y, backend):
            backends.append(backend)
            return plain_subblock_gemm(x, y, backend)

        with mock.patch.object(blocking, "plain_subblock_gemm", plain):
            got = tiered_gemm(a, b, 4, backend="blas")
        assert backends == ["blas"] * (2 * 2 * (3 + 1) + 2)
        np.testing.assert_array_equal(got, tiered_gemm(a, b, 4, backend="blas"))
        np.testing.assert_allclose(got, tiered_gemm(a, b, 4), rtol=1e-5, atol=1e-5)


class TestTieredGemm:
    def test_all_plain_matches_per_tile_sum(self):
        rng = np.random.default_rng(5)
        L = 4
        a = rng.normal(size=(2 * L, 3 * L)).astype(np.float32)
        b = rng.normal(size=(3 * L, 2 * L)).astype(np.float32)
        got = tiered_gemm(a, b, L)
        np.testing.assert_array_equal(got, oracles.tiered_gemm(a, b, L, [[[None] * 3] * 2] * 2))

    def test_borders_match_naive(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5)).astype(np.float64)
        b = rng.normal(size=(5, 5)).astype(np.float64)
        got = tiered_gemm(a, b, 4)
        # borders are computed by the same ascending-order plain path
        np.testing.assert_allclose(got, oracles.naive_gemm(a, b), rtol=1e-12)

    def test_plan_shape_mismatch(self):
        a = np.zeros((8, 8), np.float32)
        with pytest.raises(DimensionError):
            tiered_gemm(a, a, 4, plan_of(packing.SYMMETRIC, [[[None]] * 2] * 2))

    def test_invalid_packing_choice_rejected_before_any_product(self):
        a = np.ones((8, 8), np.float32)
        ok = packing.PackingConfig(
            mode=packing.SYMMETRIC, w=2, z=2.0 ** -8, c_a=1.0, c_b=1.0, rmax=10
        )
        oversized = packing.PackingConfig(
            mode=packing.SYMMETRIC, w=2, z=0.25, c_a=1.0, c_b=1.0, rmax=10
        )
        plan = plan_of(packing.SYMMETRIC, [[[ok, ok], [ok, ok]], [[ok, ok], [ok, oversized]]])
        with mock.patch.object(blocking, "plain_subblock_gemm") as plain, \
                mock.patch.object(packing, "packed_subblock_product") as packed:
            with pytest.raises(InvalidConfigError, match=r"kernel \(1,1\) subblock 1: .*bound"):
                tiered_gemm(a, a, 4, plan)
        plain.assert_not_called()
        packed.assert_not_called()

    @pytest.mark.parametrize("L", [0, -3])
    def test_tile_side_below_1_rejected(self, L):
        a = np.ones((8, 8), np.float32)
        with pytest.raises(DimensionError, match=f"tile side must be >= 1, got {L}"):
            tiered_gemm(a, a, L)

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_failing_tile_raises_before_any_product(self, mode):
        """A tile that fails its overflow check stops the multiply before
        its first product, plain or packed, though only the last block row
        reads it."""
        a = np.ones((3 * 4, 2 * 4), np.float32)
        a[2 * 4 + 1, 4 + 2] = np.inf  # A's tile (2, 1)
        cfg = packing.PackingConfig(mode, 2, 2.0 ** -20, 1.0, 1.0, 1)
        plan = plan_of(mode, [[[None, cfg]] * 3] * 3)
        with mock.patch.object(blocking, "plain_subblock_gemm",
                               wraps=plain_subblock_gemm) as plain, \
                mock.patch.object(packing, "packed_subblock_product",
                                  wraps=packing.packed_subblock_product) as packed:
            with pytest.raises(QuantizerOverflowError,
                               match=r"^kernel \(2,0\) subblock 1: companded amplitude inf"):
                tiered_gemm(a, np.ones((2 * 4, 3 * 4), np.float32), 4, plan)
        plain.assert_not_called()
        packed.assert_not_called()

    def test_overflow_names_its_kernel_and_subblock(self):
        """A packed product's overflow is raised again with the type it had,
        chained, and with the prefix of the plan checks."""
        a = np.ones((24, 24), np.float32)
        big = packing.PackingConfig(packing.SYMMETRIC, 2, 2.0 ** -20, 1e8, 1.0, 1000)
        with pytest.raises(QuantizerOverflowError) as info:
            tiered_gemm(a, a, 12, plan_of(packing.SYMMETRIC,
                                          [[[None, None]] * 2, [[None, big], [None, None]]]))
        cause = info.value.__cause__
        assert type(info.value) is type(cause) is QuantizerOverflowError
        assert str(info.value) == f"kernel (1,0) subblock 1: {cause}"
        assert str(cause) == ("companded amplitude 1e+08 exceeds exact-integer range 1.678e+07 "
                              "of single precision")

    def test_none_plan_entries_mean_plain(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)).astype(np.float32)
        b = rng.normal(size=(8, 8)).astype(np.float32)
        plan = plan_of(packing.SYMMETRIC, [[[None, None]] * 2] * 2)
        np.testing.assert_array_equal(tiered_gemm(a, b, 4, plan), tiered_gemm(a, b, 4))
