import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tdgemm import calibration, packing
from tdgemm.blocking import plain_subblock_gemm
from tdgemm.config import dtype_of, u_sys_of
from tdgemm.errors import DimensionError, InvalidConfigError, QuantizerOverflowError


def _round_via_float64(x):
    """The float64 round trip round_half_away used before it ran in-dtype."""
    arr = np.asarray(x)
    r = np.copysign(np.floor(np.abs(arr.astype(np.float64)) + 0.5), arr.astype(np.float64))
    return r.astype(arr.dtype)


def _round_exact(v):
    """Ties-away rounding of a float64 in exact rational arithmetic."""
    return math.copysign(float(math.floor(abs(Fraction(v)) + Fraction(1, 2))), v)


def _f32_values():
    """float32 values from every magnitude class 2^-30..2^30 (so [2^23, 2^24)
    too), the half-integer ties, both neighbours of each tie, signed zeros
    and infinities."""
    sign = st.sampled_from([1.0, -1.0])
    by_class = st.builds(
        lambda s, e, frac: s * float(np.float32(2.0 ** e * (1 + frac / 2 ** 23))),
        sign, st.integers(-30, 30), st.integers(0, 2 ** 23 - 1),
    )

    def near_tie(s, i, step):
        tie = np.float32(i + 0.5)
        return s * float(np.nextafter(tie, np.float32(step * np.inf)) if step else tie)

    ties = st.builds(near_tie, sign, st.integers(0, 2 ** 23 - 1), st.sampled_from([-1, 0, 1]))
    return st.one_of(
        by_class, ties, st.floats(width=32, allow_nan=False),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    )


class TestRounding:
    def test_ties_away_from_zero(self):
        x = np.array([2.5, -2.5, 0.5, -0.5, 1.4, -1.4])
        np.testing.assert_array_equal(
            packing.round_half_away(x), [3.0, -3.0, 1.0, -1.0, 1.0, -1.0]
        )

    def test_preserves_dtype(self):
        out = packing.round_half_away(np.array([1.6], dtype=np.float32))
        assert out.dtype == np.float32

    @given(st.floats(-1e6, 1e6))
    def test_within_half(self, v):
        r = float(packing.round_half_away(np.array([v]))[0])
        assert abs(r - v) <= 0.5
        assert r == int(r)

    @given(st.lists(_f32_values(), min_size=1, max_size=32))
    @settings(max_examples=300)
    def test_float32_matches_float64_round_trip(self, values):
        x = np.array(values, dtype=np.float32)
        got = packing.round_half_away(x)
        assert got.dtype == np.float32
        assert got.tobytes() == _round_via_float64(x).tobytes()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_float64_matches_exact_oracle(self, v):
        got = packing.round_half_away(np.array([v]))
        assert got.dtype == np.float64
        want = np.array([_round_exact(v)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("v, want", [
        (0.49999999999999994, 0.0),
        (-0.49999999999999994, -0.0),
        (4503599627370497.0, 4503599627370497.0),
        (-4503599627370497.0, -4503599627370497.0),
        (9007199254740991.0, 9007199254740991.0),
    ])
    def test_float64_pinned(self, v, want):
        got = packing.round_half_away(np.array([v]))
        assert got.tobytes() == np.array([want]).tobytes()

    def test_signed_zeros_and_infinities_pass_through(self):
        for dtype in (np.float32, np.float64):
            x = np.array([0.0, -0.0, -0.25, np.inf, -np.inf], dtype=dtype)
            want = np.array([0.0, -0.0, -0.0, np.inf, -np.inf], dtype=dtype)
            assert packing.round_half_away(x).tobytes() == want.tobytes()


class TestQuantize:
    @given(st.floats(0.01, 100.0), st.integers(0, 2 ** 31))
    @settings(max_examples=30)
    def test_error_bounded_by_half_step(self, c, seed):
        tile = np.random.default_rng(seed).uniform(-50, 50, size=(8, 8)).astype(np.float64)
        q = packing.quantize_subblock(tile, c)
        assert np.all(np.abs(q - c * tile) <= 0.5 + 1e-9)

    def test_overflow_raises(self):
        tile = np.full((2, 2), 2.0 ** 25, dtype=np.float32)
        with pytest.raises(QuantizerOverflowError):
            packing.quantize_subblock(tile, 1.0)

    def test_nan_raises(self):
        tile = np.ones((4, 4), np.float32)
        tile[1, 2] = np.nan
        with pytest.raises(QuantizerOverflowError, match="not finite"):
            packing.quantize_subblock(tile, 1.0)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinity_raises(self, inf):
        tile = np.ones((4, 4), np.float64)
        tile[3, 0] = inf
        with pytest.raises(QuantizerOverflowError, match="not finite"):
            packing.quantize_subblock(tile, 1.0)

    def test_dequantize_inverts_scaling(self):
        assert packing.dequantize(6.0, 2.0, 3.0) == 1.0

    def test_ties_of_one_sign(self):
        """A tie is found whichever side ``rint`` rounds it to."""
        for ties, want in (([-2.5, -0.5], [-3.0, -1.0]), ([2.5, 0.5], [3.0, 1.0])):
            tile = np.array([ties, [0.25, 1.0]], np.float32)
            got = packing.quantize_subblock(tile, 1.0)
            np.testing.assert_array_equal(got, [want, [0.0, 1.0]])

    def test_nonpositive_compander_rejected(self):
        with pytest.raises(InvalidConfigError):
            packing.quantize_subblock(np.zeros((2, 2), np.float32), 0.0)


class TestCoefficients:
    def test_rmax_ceiling(self):
        assert packing.compute_rmax(1.0, 1.0, 48, 22, 3) == 48 * 22 * 3
        assert packing.compute_rmax(0.3, 0.7, 10, 1.0, 1.0) == math.ceil(2.1)

    def test_z_is_power_of_two_below_bound(self):
        for rmax in (48, 1000, 32768, 316800):
            z = packing.compute_z(rmax)
            assert math.log2(z) == int(math.log2(z))
            assert z <= 1.0 / (2 * rmax + 50)
            assert 2 * z > 1.0 / (2 * rmax + 50)

    def test_wef_reference_values(self):
        z = packing.compute_z(32768)
        assert packing.compute_wef(z, 32768, u_sys_of("single")) == 2
        assert packing.compute_wef(z, 32768, u_sys_of("double")) == 4

    def test_wef_at_least_one(self):
        assert packing.compute_wef(0.5, 10 ** 9, u_sys_of("single")) == 1

    def test_config_validation_rejects_oversized_z(self):
        cfg = packing.PackingConfig(
            mode=packing.SYMMETRIC, w=2, z=0.25, c_a=1.0, c_b=1.0, rmax=1000
        )
        with pytest.raises(InvalidConfigError):
            cfg.validate()


def _exact_int_product(at, bt):
    return at.astype(np.int64) @ bt.astype(np.int64)


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("mode", packing.MODES)
def test_exact_region_round_trip(precision, mode):
    """Small-amplitude integer tiles come back bit-exact after the pipeline."""
    L, amax, bmax = 12, 2, 2
    dtype = dtype_of(precision)
    rmax = packing.compute_rmax(1.0, 1.0, L, amax, bmax)
    z = packing.compute_z(rmax)
    w_top = min(
        packing.compute_wef(z, rmax, u_sys_of(precision)),
        packing.exact_packing_limit(rmax, z, mode, precision),
        4,
    )
    assert w_top >= 2
    rng = np.random.default_rng(11)
    for w in range(2, w_top + 1):
        for _ in range(20):
            at = rng.integers(-amax, amax + 1, size=(L, L)).astype(dtype)
            bt = rng.integers(-bmax, bmax + 1, size=(L, L)).astype(dtype)
            got = packing.packed_product(at, bt, mode, w, z)
            np.testing.assert_array_equal(got.astype(np.int64), _exact_int_product(at, bt))


def _order_matched(at, bt, mode, w, z):
    """pack -> order-matched plain_subblock_gemm -> unpack: the packed product
    with the rank-1 loop's summation order."""
    if mode == packing.SYMMETRIC:
        abar, bbar = packing.pack_symmetric(at, bt, w, z)
        return packing.unpack_symmetric(plain_subblock_gemm(abar.values, bbar.values), z)
    abar = packing.pack_asymmetric(at, w, z)
    return packing.unpack_asymmetric(plain_subblock_gemm(abar.values, bt), z, w)


def _integer_tiles(rng, L, amax, bmax, dtype):
    at = rng.integers(-amax, amax + 1, size=(L, L)).astype(dtype)
    bt = rng.integers(-bmax, bmax + 1, size=(L, L)).astype(dtype)
    return at, bt


class TestPackedProductAgainstOrderMatched:
    """The BLAS packed product against the order-matched oracle."""

    @given(st.sampled_from(["single", "double"]), st.sampled_from(packing.MODES),
           st.sampled_from([12, 24, 48]), st.integers(1, 16), st.integers(1, 16),
           st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_inside_exact_region(self, precision, mode, L, amax, bmax, seed, data):
        rmax = packing.compute_rmax(1.0, 1.0, L, amax, bmax)
        z = packing.compute_z(rmax)
        w_top = packing.exact_w_limit(rmax, z, mode, precision)
        assume(w_top >= 2)
        w = data.draw(st.sampled_from([w for w in range(2, w_top + 1) if L % w == 0]))
        at, bt = _integer_tiles(np.random.default_rng(seed), L, amax, bmax,
                                dtype_of(precision))
        got = packing.packed_product(at, bt, mode, w, z)
        assert got.tobytes() == _order_matched(at, bt, mode, w, z).tobytes()
        np.testing.assert_array_equal(got.astype(np.int64), _exact_int_product(at, bt))

    @staticmethod
    def _rmse_pair(L, amax, bmax, precision, mode, w, seed, trials):
        """RMSE against the float64 product of the BLAS and order-matched
        packed products, over ``trials`` tile pairs of one calibration point."""
        rmax = packing.compute_rmax(1.0, 1.0, L, amax, bmax)
        z = packing.compute_z(rmax)
        assert packing.exact_w_limit(rmax, z, mode, precision) < w  # outside the exact region
        rng = np.random.default_rng(seed)
        sq_blas = sq_oracle = 0.0
        for _ in range(trials):
            at, bt = _integer_tiles(rng, L, amax, bmax, dtype_of(precision))
            exact = at.astype(np.float64) @ bt.astype(np.float64)
            sq_blas += float(((packing.packed_product(at, bt, mode, w, z) - exact) ** 2).sum())
            sq_oracle += float(((_order_matched(at, bt, mode, w, z) - exact) ** 2).sum())
        count = trials * L * L
        return math.sqrt(sq_blas / count), math.sqrt(sq_oracle / count)

    # the upper half of the L=48 calibration sweep, where unpacking errors hit
    # most elements; near the exact-region boundary they are rare events and
    # a five-trial RMSE ratio is noise
    @given(st.sampled_from(["single", "double"]), st.sampled_from(packing.MODES),
           st.sampled_from([2, 3, 4]),
           st.sampled_from(calibration.amplitude_sweep(48)[31:]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rmse_outside_exact_region_l48(self, precision, mode, w, point, seed):
        amax, bmax = point
        rmax = packing.compute_rmax(1.0, 1.0, 48, amax, bmax)
        assume(packing.exact_w_limit(rmax, packing.compute_z(rmax), mode, precision) < w)
        blas, oracle = self._rmse_pair(48, amax, bmax, precision, mode, w, seed, trials=5)
        assert blas <= 1.15 * oracle

    @pytest.mark.parametrize("mode", packing.MODES)
    @pytest.mark.parametrize("bmax", [8, 32, 63])
    def test_rmse_outside_exact_region_l288(self, mode, bmax):
        blas, oracle = self._rmse_pair(288, 22, bmax, "single", mode, 2, seed=bmax, trials=2)
        assert blas <= 1.15 * oracle


class TestPackShapes:
    def test_symmetric_shapes(self):
        at = np.zeros((12, 12), np.float32)
        abar, bbar = packing.pack_symmetric(at, at, 3, 2.0 ** -10)
        assert abar.values.shape == (12, 4)
        assert bbar.values.shape == (4, 12)

    def test_asymmetric_shape(self):
        abar = packing.pack_asymmetric(np.zeros((12, 12), np.float32), 4, 2.0 ** -10)
        assert abar.values.shape == (3, 12)

    def test_indivisible_side_rejected(self):
        at = np.zeros((10, 10), np.float32)
        with pytest.raises(DimensionError):
            packing.pack_symmetric(at, at, 3, 2.0 ** -10)

    def test_mismatched_packing_rejected(self):
        at = np.zeros((12, 12), np.float32)
        a2, _ = packing.pack_symmetric(at, at, 2, 2.0 ** -10)
        _, b3 = packing.pack_symmetric(at, at, 3, 2.0 ** -10)
        with pytest.raises(DimensionError):
            packing.multiply_packed_symmetric(a2, b3)


def test_full_pipeline_w1_equals_plain_on_quantized():
    rng = np.random.default_rng(12)
    a = rng.uniform(-5, 5, size=(12, 12)).astype(np.float32)
    b = rng.uniform(-5, 5, size=(12, 12)).astype(np.float32)
    cfg = packing.PackingConfig(
        mode=packing.SYMMETRIC, w=1, z=0.0, c_a=2.0, c_b=2.0, rmax=0
    )
    got = packing.packed_subblock_product(a, b, cfg)
    at = packing.quantize_subblock(a, 2.0)
    bt = packing.quantize_subblock(b, 2.0)
    want = (plain_subblock_gemm(at, bt) / 4.0).astype(np.float32)
    np.testing.assert_array_equal(got, want)


def test_full_pipeline_packed_close_to_exact():
    rng = np.random.default_rng(13)
    L = 12
    a = rng.uniform(-5, 5, size=(L, L)).astype(np.float32)
    b = rng.uniform(-5, 5, size=(L, L)).astype(np.float32)
    c = 4.0
    rmax = packing.compute_rmax(c, c, L, 5, 5)
    cfg = packing.PackingConfig(
        mode=packing.SYMMETRIC, w=2, z=packing.compute_z(rmax), c_a=c, c_b=c, rmax=rmax
    )
    cfg.validate()
    got = packing.packed_subblock_product(a, b, cfg)
    exact = a.astype(np.float64) @ b.astype(np.float64)
    # quantization step 1/c on each operand bounds the per-element error
    tol = L * (5 / c + 5 / c + 0.25 / c ** 2) * 0.5 + 1.0
    assert np.max(np.abs(got - exact)) < tol


# Reference copies of the elementwise stages in their allocating form, with
# trunc-based rounding: the in-place, rint-based stages must match them bit
# for bit.
def _frozen_round(x):
    arr = np.asarray(x)
    t = np.trunc(arr)
    with np.errstate(invalid="ignore"):
        up = np.abs(arr - t) >= 0.5
    return t + np.copysign(up, arr)


def _frozen_quantize(tile, c):
    return _frozen_round(np.asarray(c * tile.astype(np.float64), dtype=tile.dtype))


def _frozen_pack_symmetric(at, bt, w, z):
    L, dtype = at.shape[0], at.dtype
    zf, zinv = dtype.type(z), dtype.type(1.0 / z)
    abar = np.zeros((L, L // w), dtype=dtype)
    bbar = np.zeros((L // w, L), dtype=dtype)
    for i in range(w):
        abar += zf ** i * at[:, i::w]
        bbar += zinv ** i * bt[i::w, :]
    return abar, bbar


def _frozen_unpack_symmetric(rbar, z):
    zf, zinv = rbar.dtype.type(z), rbar.dtype.type(1.0 / z)
    u = _frozen_round(rbar)
    return u - zinv * _frozen_round(zf * u)


def _frozen_pack_asymmetric(at, w, z):
    L, dtype = at.shape[0], at.dtype
    zf = dtype.type(z)
    abar = np.zeros((L // w, L), dtype=dtype)
    for i in range(w):
        abar += zf ** i * at[i::w, :]
    return abar


def _frozen_unpack_asymmetric(rbar, z, w):
    zinv = rbar.dtype.type(1.0 / z)
    out = np.empty((rbar.shape[0] * w, rbar.shape[1]), dtype=rbar.dtype)
    resid = rbar
    current = _frozen_round(resid)
    out[0::w, :] = current
    for i in range(1, w):
        resid = zinv * (resid - current)
        current = _frozen_round(resid)
        out[i::w, :] = current
    return out


def _frozen_packed_subblock_product(a_tile, b_tile, cfg):
    at = _frozen_quantize(a_tile, cfg.c_a)
    bt = _frozen_quantize(b_tile, cfg.c_b)
    if cfg.mode == packing.SYMMETRIC:
        abar, bbar = _frozen_pack_symmetric(at, bt, cfg.w, cfg.z)
        rt = _frozen_unpack_symmetric(np.matmul(abar, bbar), cfg.z)
    else:
        abar = _frozen_pack_asymmetric(at, cfg.w, cfg.z)
        rt = _frozen_unpack_asymmetric(np.matmul(abar, bt), cfg.z, cfg.w)
    return np.asarray(rt / (cfg.c_a * cfg.c_b), dtype=a_tile.dtype)


def _planted(rng, L, dtype, scale, special=True):
    """Gaussian entries times ``scale`` (almost never a tie), with ties,
    signed zeros and, if ``special``, NaN of both signs and infinities
    planted at random places."""
    x = (rng.standard_normal((L, L)) * scale).astype(dtype)
    flat = x.reshape(-1)
    ties = rng.integers(-1000, 1000, 8) + 0.5
    plants = [*ties, 0.5, -0.5, 1.5, -2.5, -0.0, -0.25, 0.0, -3.0]
    if special:
        plants += [np.nan, -np.nan, np.inf, -np.inf]
    flat[rng.choice(flat.size, len(plants), replace=False)] = plants
    return x


_DTYPES = [np.float32, np.float64]


class TestStagesMatchFrozenCopy:
    """The in-place, rint-based stages against frozen copies of the stages
    they replaced, on whole tiles: tie detection is one reduction over the
    whole array, so a tie must be found among many non-ties."""

    @pytest.mark.parametrize("L", [48, 288])
    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_round(self, L, dtype):
        rng = np.random.default_rng(L)
        for scale in (1.0, 1e3, 1e7):
            x = _planted(rng, L, dtype, scale)
            want = _frozen_round(x).tobytes()
            assert packing.round_half_away(x).tobytes() == want
            strided = np.empty((2 * L, L), dtype)[::2]
            assert packing.round_half_away(x, out=strided).tobytes() == want
            assert packing.round_half_away(x.T).tobytes() == _frozen_round(x.T).tobytes()
            packing.round_half_away(x, out=x)
            assert x.tobytes() == want

    def test_round_without_ties(self):
        x = np.array([[0.49999999999999994, -0.2, 3.0], [np.nan, np.inf, -7.75]])
        assert packing.round_half_away(x).tobytes() == _frozen_round(x).tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_round_zero_d_and_empty(self, dtype):
        for v in (2.5, -0.5, -0.0, 0.25, np.inf):
            got = packing.round_half_away(dtype(v))
            assert np.asarray(got).tobytes() == np.asarray(_frozen_round(dtype(v))).tobytes()
        empty = np.empty((0, 3), dtype)
        assert packing.round_half_away(empty).shape == (0, 3)

    @pytest.mark.parametrize("L", [48, 288])
    def test_quantize_matches_float64_round_trip(self, L):
        rng = np.random.default_rng(L + 1)
        for dtype in _DTYPES:
            for c in (*rng.uniform(0.05, 40.0, 6), 2.0, 0.5):
                tile = _planted(rng, L, dtype, 3.0, special=False)
                # entries whose companded value lands at or next to a tie,
                # where the product's precision decides the rounding
                near = ((rng.integers(-300, 300, L) + 0.5) / c).astype(dtype)
                tile[:3] = [near, np.nextafter(near, dtype(np.inf)),
                            np.nextafter(near, dtype(-np.inf))]
                got = packing.quantize_subblock(tile, float(c))
                assert got.tobytes() == _frozen_quantize(tile, float(c)).tobytes()

    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_pack_turns_negative_zero_positive(self, w, dtype):
        rng = np.random.default_rng(w)
        at = rng.integers(-9, 10, (48, 48)).astype(dtype)
        bt = rng.integers(-9, 10, (48, 48)).astype(dtype)
        at[:, 0::2] = -0.0
        bt[0::2, :] = -0.0
        at[5, 1::2] = -0.0  # row 5 and column 1 are all -0.0
        bt[1::2, 1] = -0.0
        z = 2.0 ** -12
        abar, bbar = packing.pack_symmetric(at, bt, w, z)
        want_a, want_b = _frozen_pack_symmetric(at, bt, w, z)
        assert abar.values.tobytes() == want_a.tobytes()
        assert bbar.values.tobytes() == want_b.tobytes()
        assert abar.values.flags.c_contiguous and bbar.values.flags.c_contiguous
        for packed in (abar.values, bbar.values):  # 0 + (-0) is +0
            assert (packed == 0).any() and not np.signbit(packed[packed == 0]).any()
        asym = packing.pack_asymmetric(bt, w, z)
        assert asym.values.tobytes() == _frozen_pack_asymmetric(bt, w, z).tobytes()

    @pytest.mark.parametrize("L", [48, 288])
    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_unpack(self, L, dtype):
        rng = np.random.default_rng(L + 2)
        z = 2.0 ** -10
        for scale in (1e2, 1e5):
            rbar = _planted(rng, L, dtype, scale)
            # entries whose high field z*u is a tie
            rbar[3, :8] = (2 * rng.integers(-50, 50, 8) + 1) * (0.5 / z)
            with np.errstate(invalid="ignore"):
                got = packing.unpack_symmetric(rbar, z)
                want = _frozen_unpack_symmetric(rbar, z)
                assert got.tobytes() == want.tobytes()
                for w in (2, 3, 4):
                    got = packing.unpack_asymmetric(rbar, z, w)
                    assert got.tobytes() == _frozen_unpack_asymmetric(rbar, z, w).tobytes()

    @pytest.mark.parametrize("L", [48, 288])
    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("mode", packing.MODES)
    def test_packed_subblock_product(self, L, dtype, mode):
        rng = np.random.default_rng(L + 3)
        for w in (2, 3, 4):
            # c = 2 turns the planted quarter-integers into ties
            for c_a, c_b in ((3.2110535885461537, 3.2143586241124074), (2.0, 2.0)):
                a = _planted(rng, L, dtype, 1.0, special=False)
                b = _planted(rng, L, dtype, 1.0, special=False)
                a[7, :6] = rng.integers(-20, 20, 6) + 0.25
                rmax = packing.compute_rmax(c_a, c_b, L, 2500.0, 2500.0)
                cfg = packing.PackingConfig(mode, w, packing.compute_z(rmax), c_a, c_b, rmax)
                got = packing.packed_subblock_product(a, b, cfg)
                assert got.dtype == dtype
                assert got.tobytes() == _frozen_packed_subblock_product(a, b, cfg).tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("mode", packing.MODES)
    def test_consecutive_products_keep_their_results(self, dtype, mode):
        """Results of earlier calls survive later ones: each call's buffer is
        its own, and no scratch carries over into the next product."""
        rng = np.random.default_rng(7)
        L = 48
        runs = []
        for w in (2, 2, 3, 3, 4, 4):
            c_a, c_b = rng.uniform(1.5, 4.0, 2)
            a = _planted(rng, L, dtype, 1.0, special=False)
            b = _planted(rng, L, dtype, 1.0, special=False)
            rmax = packing.compute_rmax(c_a, c_b, L, 2500.0, 2500.0)
            cfg = packing.PackingConfig(mode, w, packing.compute_z(rmax), c_a, c_b, rmax)
            runs.append((packing.packed_subblock_product(a, b, cfg), a, b, cfg))
        for got, a, b, cfg in runs:
            assert got.tobytes() == _frozen_packed_subblock_product(a, b, cfg).tobytes()
            assert not any(np.shares_memory(got, other) for other, *_ in runs if other is not got)

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("mode", packing.MODES)
    @pytest.mark.parametrize("main", [0.0, 1.0])  # the tie's remainder is +0.5, -0.5
    def test_unpack_tie(self, dtype, mode, main):
        """A tie in the unpack's first rounding goes away from zero, as in
        the stages run one at a time."""
        L, w, z = 12, 2, 2.0 ** -16
        cfg = packing.PackingConfig(mode, w, z, 1.0, 1.0, 100)
        rng = np.random.default_rng(8)
        a = rng.integers(-3, 4, (L, L)).astype(dtype)
        b = rng.integers(-3, 4, (L, L)).astype(dtype)
        # element (0, 0) of the packed product is main + z * 2^15, the only tie
        a[:2], b[0], b[:, 0] = 0, 0, 0
        if mode == packing.SYMMETRIC:  # A's pairs are columns, B's rows
            a[0, 1], b[0, 0], a[0, 2], b[2, 0] = 2.0 ** 15, 1, main, 1
        else:  # A's pairs are rows
            a[1, 0], b[0, 0], a[0, 1], b[1, 0] = 2.0 ** 15, 1, main, 1
        got = packing.packed_subblock_product(a, b, cfg)
        assert got.tobytes() == _frozen_packed_subblock_product(a, b, cfg).tobytes()
        assert got[0, 0] == main + 1  # the tie main + 1/2 rounded up

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("mode", packing.MODES)
    @pytest.mark.parametrize("bad", [3e7, -3e7, np.nan, -np.inf])
    def test_overflow_raises(self, dtype, mode, bad):
        """Every companded amplitude out of the exact-integer range, of
        either sign, is rejected as by ``quantize_subblock``."""
        rng = np.random.default_rng(11)
        for operand in (0, 1):
            # no ties: only the peak check can stop the product
            tiles = [rng.standard_normal((12, 12)).astype(dtype) for _ in range(2)]
            tiles[operand][5, 6] = bad * (1.0 if dtype == np.float32 else 1e9)
            cfg = packing.PackingConfig(mode, 2, 2.0 ** -20, 1.0, 1.0, 100)
            with pytest.raises(QuantizerOverflowError):
                packing.packed_subblock_product(*tiles, cfg)


class TestRoundingOutputs:
    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_out_separate_in_place_and_strided(self, dtype):
        rng = np.random.default_rng(9)
        x = _planted(rng, 48, dtype, 1e3)
        x[0, :8] = [2.5, -2.5, 0.5, -0.5, 0.0, -0.0, np.inf, -np.inf]
        x[1, :2] = [np.nan, -np.nan]
        want = _frozen_round(x).tobytes()
        separate = np.empty_like(x)
        assert packing.round_half_away(x, out=separate) is separate
        assert separate.tobytes() == want
        strided = np.full((96, 48), 7.0, dtype)
        assert packing.round_half_away(x, out=strided[1::2]).tobytes() == want
        assert (strided[0::2] == 7.0).all()  # the rows between stay as they were
        packing.round_half_away(x[::-1], out=x[::-1])  # in place, through a view
        assert x.tobytes() == want

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_no_warnings(self, dtype):
        rng = np.random.default_rng(10)
        a = _planted(rng, 48, dtype, 1.0, special=False)
        b = _planted(rng, 48, dtype, 1.0, special=False)
        rmax = packing.compute_rmax(3.0, 3.0, 48, 2500.0, 2500.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packing.round_half_away(np.array([np.inf, -np.inf, 2.5, np.nan], dtype))
            for mode in packing.MODES:
                for c in (3.0, 2.0):
                    cfg = packing.PackingConfig(mode, 2, packing.compute_z(rmax), c, c, rmax)
                    packing.packed_subblock_product(a, b, cfg)
