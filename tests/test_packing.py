import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdgemm import packing
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

    def test_dequantize_inverts_scaling(self):
        assert packing.dequantize(6.0, 2.0, 3.0) == 1.0

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
            exact = _exact_int_product(at, bt)
            if mode == packing.SYMMETRIC:
                abar, bbar = packing.pack_symmetric(at, bt, w, z)
                got = packing.unpack_symmetric(
                    packing.multiply_packed_symmetric(abar, bbar), z
                )
            else:
                abar = packing.pack_asymmetric(at, w, z)
                got = packing.unpack_asymmetric(
                    packing.multiply_packed_asymmetric(abar, bt), z, w
                )
            np.testing.assert_array_equal(got.astype(np.int64), exact)


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
