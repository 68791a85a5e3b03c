import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import plan_of
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
           st.sampled_from(calibration.amplitude_sweep()[31:]),
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


def test_full_pipeline_rejects_w_below_2():
    """W=1 is the plain product, which ``tiered_gemm`` runs itself."""
    a = np.ones((12, 12), np.float32)
    for w in (1, 0, -2):
        cfg = packing.PackingConfig(mode=packing.SYMMETRIC, w=w, z=0.0, c_a=2.0, c_b=2.0, rmax=0)
        with pytest.raises(InvalidConfigError, match=f"W >= 2, got {w}"):
            packing.packed_subblock_product(a, a, cfg)


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
    # the divisor is the companders' float64 product rounded to the tile
    # dtype, whatever their scalar type
    return rt / a_tile.dtype.type(float(cfg.c_a) * float(cfg.c_b))


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


def _frozen_fold(parts, scales):
    """The one-operand fold the symmetric pack ran twice: every part of
    ``parts`` (W, ...) times its scale, add-reduced over axis 0 from 0."""
    scaled = np.multiply(parts, scales.reshape(-1, *[1] * (parts.ndim - 1)))
    return np.add.reduce(scaled, axis=0, initial=0)


def _col_parts(t, w):
    return t.reshape(t.shape[0], -1, w).transpose(2, 0, 1)


def _row_parts(t, w):
    return t.reshape(-1, w, t.shape[1]).transpose(1, 0, 2)


class TestOnePassFold:
    """Both symmetric operands folded by one multiply and one add-reduce
    (``pack_symmetric``), and each folded on its own as the executor folds
    it (``_pack_operand``), equal the two one-operand folds, bit for bit."""

    @pytest.mark.parametrize("w", [2, 3, 4])
    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_equals_two_folds(self, w, dtype):
        rng = np.random.default_rng(40 + w)
        L = 48
        for z in (2.0 ** -12, 2.0 ** -30, 0.375):  # 0.375: powers that round
            at = _planted(rng, L, dtype, 1e4, special=False)
            bt = _planted(rng, L, dtype, 1e4, special=False)
            at[:, 0::w], bt[1::w, :] = -0.0, -0.0  # whole parts of -0.0
            at[3, :] = -0.0
            zpow, zinvpow = packing._powers(np.dtype(dtype), z, w)
            want_a = _frozen_fold(_col_parts(at, w), zpow)
            want_b = _frozen_fold(_row_parts(bt, w), zinvpow)
            work = packing.Workspace(L, dtype)
            v = work[L, np.dtype(dtype), packing.SYMMETRIC, w]
            for side, (part, want) in enumerate(((_col_parts(at, w), want_a),
                                                 (_row_parts(bt, w), want_b))):
                v.quant[0].reshape(part.shape)[...] = part
                op = packing._pack_operand(v, side, packing.SYMMETRIC, w, z)
                assert op.tobytes() == want.tobytes()
            abar, bbar = packing.pack_symmetric(at, bt, w, z)
            assert abar.values.tobytes() == want_a.tobytes()
            assert bbar.values.tobytes() == want_b.tobytes()
            assert not np.signbit(abar.values[abar.values == 0]).any()
            (asym,) = packing._fold(_row_parts(at, w).reshape(1, w, -1),
                                    packing._powers(np.dtype(dtype), z, w))
            assert asym.tobytes() == _frozen_fold(_row_parts(at, w), zpow).tobytes()


def _cfg_tiles(data, L, dtype):
    """A drawn configuration and two tiles, with ties of the quantizer planted."""
    mode = data.draw(st.sampled_from(packing.MODES))
    w = data.draw(st.sampled_from([2, 3, 4]))
    z = 2.0 ** -data.draw(st.integers(6, 40))
    c_a, c_b = (data.draw(st.one_of(st.floats(0.05, 60.0), st.sampled_from([0.5, 1.0, 2.0])))
                for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = (rng.standard_normal((L, L)) * data.draw(st.sampled_from([0.5, 4.0, 50.0]))).astype(dtype)
    b = (rng.standard_normal((L, L)) * 3.0).astype(dtype)
    ties = data.draw(st.integers(0, 6))
    a.flat[rng.choice(L * L, ties, replace=False)] = (rng.integers(-40, 40, ties) + 0.5) / c_a
    b.flat[rng.choice(L * L, ties, replace=False)] = (rng.integers(-40, 40, ties) + 0.5) / c_b
    return packing.PackingConfig(mode, w, z, c_a, c_b, 1), a, b


class TestWorkspace:
    """Packed products on one reused workspace equal products on a buffer
    of their own, bit for bit, and raise as they do."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_consecutive_calls_equal_calls_without(self, data):
        L = data.draw(st.sampled_from([12, 24]))
        dtype = data.draw(st.sampled_from(_DTYPES))
        work = packing.Workspace(L, dtype)
        done = []
        for _ in range(data.draw(st.integers(2, 5))):
            cfg, a, b = _cfg_tiles(data, L, dtype)
            if data.draw(st.booleans()):  # a peak at the exact-integer limit
                (a, b)[data.draw(st.integers(0, 1))][1, 2] = packing._EXACT_INT_LIMIT[a.dtype]
                cfg = packing.PackingConfig(cfg.mode, cfg.w, cfg.z, 1.0, 1.0, 1)
                with pytest.raises(QuantizerOverflowError) as alone:
                    packing.packed_subblock_product(a, b, cfg)
                with pytest.raises(QuantizerOverflowError) as shared:
                    packing.packed_subblock_product(a, b, cfg, work)
                assert str(shared.value) == str(alone.value)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                want = packing.packed_subblock_product(a, b, cfg)
                got = packing.packed_subblock_product(a, b, cfg, work)
            assert np.shares_memory(got, work.buf) and not np.shares_memory(want, work.buf)
            assert got.tobytes() == want.tobytes()
            done.append((want, want.tobytes()))
        for want, bits in done:  # results without a workspace are their own
            assert want.tobytes() == bits

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_tiered_gemm_equals_subblock_calls(self, mode):
        """``tiered_gemm`` adds each packed result on its one workspace as
        the sum of calls on buffers of their own."""
        from tdgemm.blocking import tiered_gemm

        rng = np.random.default_rng(12)
        L = 12
        a = rng.standard_normal((2 * L, 3 * L)).astype(np.float32)
        b = rng.standard_normal((3 * L, 2 * L)).astype(np.float32)
        rmax = packing.compute_rmax(3.0, 3.0, L, 5.0, 5.0)
        cfgs = [packing.PackingConfig(mode, w, packing.compute_z(rmax), 3.0, 3.0, rmax)
                for w in (2, 3, 4)]
        configs = [[[cfgs[(i + j + l) % 3] if (i + l) % 2 == 0 else None for l in range(3)]
                    for j in range(2)] for i in range(2)]
        got = tiered_gemm(a, b, L, plan_of(mode, configs))
        for i, j in np.ndindex(2, 2):
            acc = np.zeros((L, L), np.float32)
            for l, cfg in enumerate(configs[i][j]):
                at = a[i * L:(i + 1) * L, l * L:(l + 1) * L]
                bt = b[l * L:(l + 1) * L, j * L:(j + 1) * L]
                acc += (plain_subblock_gemm(at, bt) if cfg is None
                        else packing.packed_subblock_product(at, bt, cfg))
            assert got[i * L:(i + 1) * L, j * L:(j + 1) * L].tobytes() == acc.tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tiered_gemm_memo_equals_calls_without_workspace(self, data):
        """On plans of mixed W, each tile's packed operand kept in the
        workspace gives the bits of per-subblock calls that share nothing:
        with companders per operand tile, as the planner plans them, and with
        companders that vary with the other operand's index, where the same
        tile must be quantized again."""
        from tdgemm.blocking import tiered_gemm

        L = 12
        mode = data.draw(st.sampled_from(packing.MODES))
        dtype = data.draw(st.sampled_from(_DTYPES))
        bi, bj, bl = (data.draw(st.integers(1, 3)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a = (rng.standard_normal((bi * L + data.draw(st.integers(0, 2)), bl * L))
             * data.draw(st.sampled_from([0.5, 4.0, 50.0]))).astype(dtype)
        b = rng.standard_normal((bl * L, bj * L + data.draw(st.integers(0, 2)))).astype(dtype)
        z_of = {w: 2.0 ** -data.draw(st.integers(6, 30)) for w in (2, 3, 4)}
        w = rng.choice([1, 2, 2, 3, 4], size=(bi, bj, bl))
        c_a = np.broadcast_to(rng.uniform(0.5, 30.0, (bi, 1, bl)), w.shape)
        c_b = np.broadcast_to(rng.uniform(0.5, 30.0, (1, bj, bl)), w.shape)
        if not data.draw(st.booleans()):  # not separable: c_a moves with j, c_b with i
            c_a = c_a * rng.choice([1.0, 1.5], size=w.shape)
            c_b = c_b * rng.choice([1.0, 0.75], size=w.shape)
        configs = [[[packing.PackingConfig(mode, int(w[i, j, l]), z_of[int(w[i, j, l])],
                                           float(c_a[i, j, l]), float(c_b[i, j, l]), 1)
                     if w[i, j, l] > 1 else None for l in range(bl)]
                    for j in range(bj)] for i in range(bi)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = tiered_gemm(a, b, L, plan_of(mode, configs))
            for i, j in np.ndindex(bi, bj):
                acc = np.zeros((L, L), dtype)
                for l, cfg in enumerate(configs[i][j]):
                    at = a[i * L:(i + 1) * L, l * L:(l + 1) * L]
                    bt = b[l * L:(l + 1) * L, j * L:(j + 1) * L]
                    acc += (plain_subblock_gemm(at, bt) if cfg is None
                            else packing.packed_subblock_product(at, bt, cfg))
                assert got[i * L:(i + 1) * L, j * L:(j + 1) * L].tobytes() == acc.tobytes()

    @pytest.mark.parametrize("mode", packing.MODES)
    @pytest.mark.parametrize("side", [0, 1])
    def test_overflowing_shared_tile_names_its_first_subblock(self, mode, side):
        """A tile that fails its overflow check is not kept: ``tiered_gemm``
        raises the message of the call alone, prefixed with the first
        subblock that reads the tile."""
        from tdgemm.blocking import tiered_gemm

        L = 12
        rng = np.random.default_rng(14)
        a, b = (rng.standard_normal((2 * L, 2 * L)).astype(np.float32) for _ in range(2))
        (a, b)[side][L + 2, L + 3] = packing._EXACT_INT_LIMIT[a.dtype]  # in tile (1, 1)
        cfg = packing.PackingConfig(mode, 2, 2.0 ** -20, 1.0, 1.0, 1)
        i, j = (1, 0) if side == 0 else (0, 1)  # the first kernel that reads tile (1, 1)
        with pytest.raises(QuantizerOverflowError) as alone:
            packing.packed_subblock_product(a[i * L:(i + 1) * L, L:], b[L:, j * L:(j + 1) * L], cfg)
        with pytest.raises(QuantizerOverflowError) as got:
            tiered_gemm(a, b, L, plan_of(mode, [[[cfg] * 2] * 2] * 2))
        assert str(got.value) == f"kernel ({i},{j}) subblock 1: {alone.value}"

    @pytest.mark.parametrize("side,dtype", [(24, np.float32), (12, np.float64)])
    def test_other_side_or_dtype_rejected(self, side, dtype):
        rng = np.random.default_rng(13)
        a, b = (rng.standard_normal((12, 12)).astype(np.float32) for _ in range(2))
        cfg = packing.PackingConfig(packing.SYMMETRIC, 2, 2.0 ** -20, 1.0, 1.0, 100)
        with pytest.raises(DimensionError, match="workspace"):
            packing.packed_subblock_product(a, b, cfg, packing.Workspace(side, dtype))


def _frozen_tiered(a, b, L, configs):
    """The blocked product as the frozen per-subblock pipeline runs it: each
    kernel sums its subblocks from zeros in ascending l, packed ones through
    ``_frozen_packed_subblock_product``, plain ones and borders on the
    order-matched ``plain_subblock_gemm``."""
    r = np.zeros((a.shape[0], b.shape[1]), a.dtype)
    bi, bj = len(configs), len(configs[0])
    for i, j in np.ndindex(bi, bj):
        acc = np.zeros((L, L), a.dtype)
        for l, cfg in enumerate(configs[i][j]):
            at = a[i * L:(i + 1) * L, l * L:(l + 1) * L]
            bt = b[l * L:(l + 1) * L, j * L:(j + 1) * L]
            acc += (plain_subblock_gemm(at, bt) if cfg is None
                    else _frozen_packed_subblock_product(at, bt, cfg))
        r[i * L:(i + 1) * L, j * L:(j + 1) * L] = acc
    if bi * L < a.shape[0]:
        r[bi * L:] = plain_subblock_gemm(a[bi * L:], b)
    if bj * L < b.shape[1]:
        r[:bi * L, bj * L:] = plain_subblock_gemm(a[:bi * L], b[:, bj * L:])
    return r


def _overflow(data, tile):
    """Plant, if drawn, an entry whose companded amplitude no compander of
    ``_cfg_tiles`` keeps below the exact-integer limit; True if planted."""
    bad = data.draw(st.sampled_from([None, 1e30, -1e30, np.inf, np.nan]))
    if bad is not None:
        tile.flat[data.draw(st.integers(0, tile.size - 1))] = bad
    return bad is not None


class TestMemoHitPath:
    """The memo-hit path (one tie search over every rounding of the unpack,
    the last z^-1 scaling folded into the dequantize, no ``np.errstate`` on
    a bounded product) against the frozen per-subblock pipeline, bit for
    bit: over memo hits and misses, both modes, W 2-4 and both dtypes, with
    planted quantizer ties, configurations outside the packing bound (whose
    unpacks meet ties and overflow) and tiles that overflow the quantizer."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_calls_on_one_workspace(self, data):
        L = data.draw(st.sampled_from([12, 24]))
        dtype = data.draw(st.sampled_from(_DTYPES))
        work = packing.Workspace(L, dtype)
        cases = []
        for tile in range(data.draw(st.integers(1, 3))):
            cfg, a, b = _cfg_tiles(data, L, dtype)
            bad = _overflow(data, (a, b)[data.draw(st.integers(0, 1))])
            cases.append((cfg, a, b, ((tile, 0), (0, tile)), bad))
        for cfg, a, b, names, bad in data.draw(st.lists(st.sampled_from(cases), min_size=1,
                                                         max_size=6)):
            if bad:  # each call raises as the call alone: a failing tile is not kept
                with pytest.raises(QuantizerOverflowError) as alone:
                    packing.packed_subblock_product(a, b, cfg)
                with pytest.raises(QuantizerOverflowError) as got:
                    packing.packed_subblock_product(a, b, cfg, work, names)
                assert str(got.value) == str(alone.value)
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # the frozen copy's
                want = _frozen_packed_subblock_product(a, b, cfg)
            got = packing.packed_subblock_product(a, b, cfg, work, names)
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tiered_gemm(self, data):
        """A plan of mixed W on one workspace; companders per tile, as the
        planner chooses them (memo hits), or moving with the other operand
        (misses); an overflowing tile names the first subblock that reads it
        with a packed config, with the message of that call alone."""
        from tdgemm.blocking import tiered_gemm

        L = 12
        mode = data.draw(st.sampled_from(packing.MODES))
        dtype = data.draw(st.sampled_from(_DTYPES))
        bi, bj, bl = (data.draw(st.integers(1, 3)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a = (rng.standard_normal((bi * L + data.draw(st.integers(0, 2)), bl * L))
             * data.draw(st.sampled_from([0.5, 4.0, 50.0]))).astype(dtype)
        b = rng.standard_normal((bl * L, bj * L + data.draw(st.integers(0, 2)))).astype(dtype)
        a[rng.random(a.shape) < 0.05] = rng.integers(-40, 40) + 0.5  # ties if c is 1 or 2
        # R_max 1 admits these z, whatever the tiles: the larger ones put the
        # products outside the packing bound
        z_of = {w: 2.0 ** -data.draw(st.integers(6, 40)) for w in (2, 3, 4)}
        w = rng.choice([1, 2, 2, 3, 4], size=(bi, bj, bl))
        c_a = np.broadcast_to(rng.choice([0.5, 1.0, 2.0, 7.3, 60.0], (bi, 1, bl)), w.shape)
        c_b = np.broadcast_to(rng.choice([0.5, 1.0, 2.0, 0.31, 45.0], (1, bj, bl)), w.shape)
        if not data.draw(st.booleans()):
            c_a = c_a * rng.choice([1.0, 1.5], size=w.shape)
        configs = [[[packing.PackingConfig(mode, int(w[i, j, l]), z_of[int(w[i, j, l])],
                                           float(c_a[i, j, l]), float(c_b[i, j, l]), 1)
                     if w[i, j, l] > 1 else None for l in range(bl)]
                    for j in range(bj)] for i in range(bi)]
        # a tile that may overflow: A's (t, tl) or B's (tl, t)
        side = data.draw(st.integers(0, 1))
        t, tl = data.draw(st.integers(0, (bi, bj)[side] - 1)), data.draw(st.integers(0, bl - 1))
        planted = _overflow(data, a[t * L:(t + 1) * L, tl * L:(tl + 1) * L] if side == 0
                            else b[tl * L:(tl + 1) * L, t * L:(t + 1) * L])
        reads = [(i, j, l) for i, j, l in np.ndindex(bi, bj, bl)
                 if configs[i][j][l] and l == tl and (i, j)[side] == t]
        plan = plan_of(mode, configs)
        if planted and reads:
            i, j, l = reads[0]
            at, bt = a[i * L:(i + 1) * L, l * L:(l + 1) * L], b[l * L:(l + 1) * L, j * L:(j + 1) * L]
            with pytest.raises(QuantizerOverflowError) as alone:
                packing.packed_subblock_product(at, bt, configs[i][j][l])
            with pytest.raises(QuantizerOverflowError) as got:
                tiered_gemm(a, b, L, plan)
            assert str(got.value) == f"kernel ({i},{j}) subblock {l}: {alone.value}"
            return
        with np.errstate(over="ignore", invalid="ignore"):
            want = _frozen_tiered(a, b, L, configs)
            got = tiered_gemm(a, b, L, plan)
        assert got.tobytes() == want.tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_public_stages_with_any_z(self, data):
        """Where z is not a power of two the unpack's last z^-1 scaling is
        not exact and stays out of the dequantize's division: a miss and a
        memo hit both give the bits of the public stages run in turn."""
        L, dtype = 12, data.draw(st.sampled_from(_DTYPES))
        cfg, a, b = _cfg_tiles(data, L, dtype)
        cfg = cfg._replace(z=cfg.z * data.draw(st.sampled_from([1.0, 0.75, 0.625, 1.5])))
        at, bt = packing.quantize_subblock(a, cfg.c_a), packing.quantize_subblock(b, cfg.c_b)
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.mode == packing.SYMMETRIC:
                abar, bbar = packing.pack_symmetric(at, bt, cfg.w, cfg.z)
                rt = packing.unpack_symmetric(packing.multiply_packed_symmetric(abar, bbar),
                                              cfg.z)
            else:
                abar = packing.pack_asymmetric(at, cfg.w, cfg.z)
                rt = packing.unpack_asymmetric(packing.multiply_packed_asymmetric(abar, bt),
                                               cfg.z, cfg.w)
            want = packing.dequantize(rt, cfg.c_a, cfg.c_b).tobytes()
        work = packing.Workspace(L, dtype)
        for _ in range(2):  # a miss, then a memo hit
            assert packing.packed_subblock_product(a, b, cfg, work,
                                                   ((0, 0), (0, 0))).tobytes() == want

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_memo_hit_runs_no_quantizer_and_no_parts(self, mode, monkeypatch):
        """A call whose operands are kept runs neither ``_quantize_into`` nor
        ``_parts``; a miss views and quantizes only the tile it misses. In
        ``tiered_gemm`` the tiles quantized, counted through the stacked
        quantizer, are ``packed_operand_tiles``, all before the first
        product: every ``packed_subblock_product`` call is a memo hit."""
        from tdgemm import cli
        from tdgemm.blocking import tiered_gemm

        L = 12
        work = packing.Workspace(L, np.float32)
        work[L, np.dtype(np.float32), mode, 2]  # its views, made before the counts
        counts = {"_quantize_into": 0, "_parts": 0}
        for name in counts:
            def counting(*args, _fn=getattr(packing, name), _name=name):
                counts[_name] += len(args[0]) if _name == "_quantize_into" else 1  # tiles
                return _fn(*args)
            monkeypatch.setattr(packing, name, counting)
        rng = np.random.default_rng(15)
        a, b = (rng.standard_normal((3 * L, 3 * L)).astype(np.float32) for _ in range(2))
        cfg = packing.PackingConfig(mode, 2, 2.0 ** -20, 3.0, 2.0, 1)
        at, bt = a[:L, :L], b[:L, :L]
        for names, want in ((((0, 0), (0, 0)), (2, 2)), (((0, 0), (0, 0)), (2, 2)),
                            (((0, 0), (0, 1)), (3, 3)), (((0, 0), (0, 1)), (3, 3))):
            packing.packed_subblock_product(at, bt, cfg, work, names)
            assert (counts["_quantize_into"], counts["_parts"]) == want
        configs = [[[cfg if (i + j + l) % 3 else None for l in range(3)] for j in range(3)]
                   for i in range(3)]
        plan = plan_of(mode, configs)
        inside = []  # per packed_subblock_product call, the tiles it quantized

        def product(*args, _fn=packing.packed_subblock_product):
            before = counts["_quantize_into"]
            result = _fn(*args)
            inside.append(counts["_quantize_into"] - before)
            return result

        monkeypatch.setattr(packing, "packed_subblock_product", product)
        counts.update(_quantize_into=0)
        tiered_gemm(a, b, L, plan)
        assert counts["_quantize_into"] == cli._packed_operand_tiles(plan) == 3 * 3 + 3 * 3
        assert inside == [0] * int((plan.options["w"] > 1).sum()) == [0] * 18


class TestPrepareOperands:
    """``prepare_operands``, the stacked quantize, check and fold that
    ``tiered_gemm`` runs before its first product, against the frozen
    per-tile pipeline, bit for bit: both modes and sides, W 2-4, both
    dtypes, planted quantizer ties, several companders in one (W, z) group
    and groups longer than one stacked step. A tile whose integers reach the
    exact-integer limit, or are not finite, never enters the memo."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_stacked_equals_frozen_per_tile(self, data):
        L = 12
        mode = data.draw(st.sampled_from(packing.MODES))
        dtype = data.draw(st.sampled_from(_DTYPES))
        limit = packing._EXACT_INT_LIMIT[np.dtype(dtype)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        mats = tuple((rng.standard_normal((2 * L, 3 * L))
                      * data.draw(st.sampled_from([0.5, 4.0, 50.0]))).astype(dtype)
                     for _ in range(2))
        z_of = {w: 2.0 ** -data.draw(st.integers(6, 40)) for w in (2, 3, 4)}
        cs = [data.draw(st.sampled_from([0.5, 1.0, 2.0, 7.3, 60.0])) for _ in range(3)]
        keys = ([], [])
        for _ in range(data.draw(st.integers(1, 12))):  # repeats included
            w = data.draw(st.sampled_from([2, 3, 4]))
            rc = (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2)))
            keys[data.draw(st.integers(0, 1))].append((rc, w, z_of[w], data.draw(st.sampled_from(cs))))

        def tile(side, rc):
            return mats[side][rc[0] * L:(rc[0] + 1) * L, rc[1] * L:(rc[1] + 1) * L]

        for side in (0, 1):
            for rc, _, _, c in keys[side]:  # quantizer ties at this compander
                tile(side, rc).flat[rng.choice(L * L, 3, replace=False)] = \
                    (rng.integers(-40, 40, 3) + 0.5) / c
        for side in (0, 1):  # entries at, near or past the exact-integer limit
            for rc, _, _, c in keys[side]:
                bad = data.draw(st.sampled_from([None, None, "limit", 1e30, np.inf, -np.inf,
                                                 np.nan]))
                if bad is not None:
                    tile(side, rc).flat[data.draw(st.integers(0, L * L - 1))] = (
                        -limit / c if bad == "limit" else bad)
        chunk = data.draw(st.sampled_from([1, 2, 3, 1000]))
        work = packing.Workspace(L, dtype)
        with mock.patch.object(packing, "_PREP_ELEMS", 2 * L * L * chunk):
            packing.prepare_operands(work, mode, mats, (iter(keys[0]), iter(keys[1])))
        for side in (0, 1):
            kept = {}
            for rc, w, z, c in keys[side]:
                with np.errstate(over="ignore", invalid="ignore"):
                    q = _frozen_quantize(tile(side, rc), c)
                if not np.abs(q).max() < limit:  # NaN fails too
                    continue
                if mode == packing.SYMMETRIC:
                    want = _frozen_pack_symmetric(q, q, w, z)[side]
                else:
                    want = _frozen_pack_asymmetric(q, w, z) if side == 0 else q
                kept[rc, mode, w, z, c] = want.tobytes()
            memo = work.operands[side]
            assert {k: op.tobytes() for k, op in memo.items()} == kept

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_first_failing_subblock_in_a_later_block_row(self, mode):
        """Tiles that fail their check are quantized before the first product
        but not kept: ``tiered_gemm`` still raises at the first failing
        subblock in C order, kernel (1,1) subblock 1 here, where block row 0
        runs plain, with the message of that call alone. A's tile (2, 0)
        fails too, in a later subblock."""
        from tdgemm.blocking import tiered_gemm

        L = 12
        rng = np.random.default_rng(16)
        a, b = (rng.standard_normal((3 * L, 3 * L)).astype(np.float32) for _ in range(2))
        a[2 * L + 1, 3] = 1e30  # A's tile (2, 0)
        b[L + 4, L + 5] = np.inf  # B's tile (1, 1)
        cfg = packing.PackingConfig(mode, 2, 2.0 ** -20, 1.0, 1.0, 1)
        plan = plan_of(mode, [[[None if i == 0 else cfg] * 3] * 3 for i in range(3)])
        with pytest.raises(QuantizerOverflowError) as alone:
            packing.packed_subblock_product(a[L:2 * L, L:2 * L], b[L:2 * L, L:2 * L], cfg)
        with pytest.raises(QuantizerOverflowError) as got:
            tiered_gemm(a, b, L, plan)
        assert str(got.value) == f"kernel (1,1) subblock 1: {alone.value}"
        assert "not finite" in str(alone.value)

    @pytest.mark.parametrize("w,dtype,error", [(5, np.float32, DimensionError),
                                               (2, np.float16, InvalidConfigError)])
    def test_what_a_call_rejects_is_left_to_it(self, w, dtype, error):
        """A W that does not divide L, or an unsupported dtype, is not
        prepared: ``tiered_gemm`` raises the error of its first packed call."""
        from tdgemm.blocking import tiered_gemm

        L = 12
        a = np.ones((2 * L, 2 * L), dtype)
        cfg = packing.PackingConfig(packing.SYMMETRIC, w, 2.0 ** -20, 1.0, 1.0, 1)
        with pytest.raises(error) as alone:
            packing.packed_subblock_product(a[:L, :L], a[:L, :L], cfg)
        with pytest.raises(error) as got:
            tiered_gemm(a, a, L, plan_of(packing.SYMMETRIC, [[[cfg] * 2] * 2] * 2))
        assert str(got.value) == str(alone.value)


class TestCompanderScalarTypes:
    """The dequantize divides by the companders' float64 product rounded to
    the tile dtype, whatever their scalar type: Python floats, ``np.float64``
    and ``np.float32`` of the same values give the same bits."""

    @pytest.mark.parametrize("dtype", _DTYPES)
    @pytest.mark.parametrize("mode", packing.MODES)
    def test_same_bits_for_each_scalar_type(self, dtype, mode):
        rng = np.random.default_rng(21)
        L = 48
        for _ in range(20):
            a = _planted(rng, L, dtype, 1.0, special=False)
            b = _planted(rng, L, dtype, 1.0, special=False)
            c_a, c_b = (float(np.float32(c)) for c in rng.uniform(0.5, 40.0, 2))
            rmax = packing.compute_rmax(c_a, c_b, L, 2500.0, 2500.0)
            z = packing.compute_z(rmax)
            got = {kind(c_a).__class__: packing.packed_subblock_product(
                       a, b, packing.PackingConfig(mode, 2, z, kind(c_a), kind(c_b), rmax)
                   ).tobytes() for kind in (float, np.float64, np.float32)}
            want = _frozen_packed_subblock_product(
                a, b, packing.PackingConfig(mode, 2, z, c_a, c_b, rmax)).tobytes()
            assert set(got.values()) == {want}

    def test_dequantize(self):
        x = np.float32([1.0, 3.0, -7.0])
        c_a, c_b = 1.1, 3.3  # their float64 product rounds to float32 differently
        for kind in (float, np.float64, np.float32):
            got = packing.dequantize(x, kind(np.float32(c_a)), kind(np.float32(c_b)))
            want = x / np.float32(float(np.float32(c_a)) * float(np.float32(c_b)))
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
