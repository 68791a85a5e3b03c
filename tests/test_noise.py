import math

import numpy as np
import pytest

from helpers import batch_stats
from tdgemm import noise
from tdgemm.calibration import CalibEntry, CalibrationTable, build_offline_solutions
from tdgemm.controller import subblock_stats
from tdgemm.errors import CalibrationMissingError, DegenerateInputError, InvalidConfigError


def stats(sa=2.0, sb=3.0, aext=4.0, bext=6.0, L=48):
    return batch_stats([(sa, sb, -aext, aext, -bext, bext)], L)


class TestQuantNoise:
    def test_closed_form_value(self):
        st = stats(sa=1.0, sb=1.0, L=4)
        # L * (sa^2 + sb^2 + 1/12) / (12 c^2) at c_a = c_b = c
        want = 4 * (1.0 / 12 + 1.0 / 12 + 1.0 / 144)
        assert noise.quant_noise_power(st, 1.0, 1.0).item() == pytest.approx(want)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(21)
        L, c = 48, 3.0
        st = stats(sa=2.0, sb=5.0, L=L)
        a = rng.uniform(-2.0 * math.sqrt(3), 2.0 * math.sqrt(3), size=(400, L))
        b = rng.uniform(-5.0 * math.sqrt(3), 5.0 * math.sqrt(3), size=(L, 400))
        exact = a @ b
        qa = np.round(c * a) / c
        qb = np.round(c * b) / c
        err = qa @ qb - exact
        measured = float((err ** 2).mean())
        assert measured == pytest.approx(noise.quant_noise_power(st, c, c).item(), rel=0.05)

    def test_degenerate_snr(self):
        """A zero sigma has no signal, so no SNR and no optimal companders."""
        assert noise.signal_power(stats(sa=0.0)).item() == 0.0
        with pytest.raises(DegenerateInputError):
            noise.optimal_companders(stats(sa=0.0), 1000)


class TestCompanders:
    def test_product_invariant(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        ct = noise.c_tot(st.L, st.a_absmax, st.b_absmax, 1000)
        assert (sol.c_a * sol.c_b * ct).item() == pytest.approx(1.0)

    def test_balances_linear_terms(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        # the two first-order distortion terms are equal at the optimum
        t1 = (st.sigma_a / sol.c_b) ** 2
        t2 = (st.sigma_b / sol.c_a) ** 2
        assert t1.item() == pytest.approx(t2.item())

    def test_optimum_beats_perturbations(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        best = noise.combined_distortion(st, sol.c_a, sol.c_b, 0.0).total
        ct = noise.c_tot(st.L, st.a_absmax, st.b_absmax, 1000)
        for f in (0.5, 0.9, 1.1, 2.0):
            ca = sol.c_a * f
            other = noise.combined_distortion(st, ca, 1.0 / (ct * ca), 0.0).total
            assert best.item() <= other.item() + 1e-12

    def test_repr_noise_lowers_snr(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        snr = []
        for s_repr in (0.0, 5.0):
            total = noise.combined_distortion(st, sol.c_a, sol.c_b, s_repr).total
            snr.append(10 * math.log10((noise.signal_power(st) / total).item()))
        assert snr[1] < snr[0]


class TestSeparableCompanders:
    """Per-operand companders: each from R_max, L and its own tile's absmax."""

    def test_product_meets_the_rmax_constraint(self):
        rng = np.random.default_rng(24)
        rows = [(1.0, 1.0, -hi_a, lo_a, -lo_b, hi_b)
                for lo_a, hi_a, lo_b, hi_b in rng.uniform(1e-3, 1e3, size=(200, 4))]
        st = batch_stats(rows, 48)
        rmax = rng.integers(1, 2 ** 40, size=200)
        sol = noise.separable_companders(st, rmax, w=2)
        got = sol.c_a * sol.c_b * st.L * st.a_absmax * st.b_absmax
        np.testing.assert_allclose(got, rmax, rtol=8 * np.finfo(float).eps)
        assert (sol.rmax, sol.w, sol.expected_snr_db) == (rmax, 2, None)

    def test_each_compander_reads_only_its_own_tile(self):
        rng = np.random.default_rng(25)
        a_rows = rng.uniform(0.1, 10.0, size=(50, 3))  # sigma, -min, max of A
        pair = [(sa, sb, -a_lo, a_hi, -b_lo, b_hi)
                for (sa, a_lo, a_hi), (sb, b_lo, b_hi)
                in zip(a_rows, rng.uniform(0.1, 10.0, size=(50, 3)))]
        other_b = [(sa, 7.0 * sb, a_lo, a_hi, -3.0 * b_hi, 0.5 * b_hi)
                   for sa, sb, a_lo, a_hi, _, b_hi in pair]
        one, two = (noise.separable_companders(batch_stats(rows, 48), 5000)
                    for rows in (pair, other_b))
        assert one.c_a.tobytes() == two.c_a.tobytes()
        assert not np.array_equal(one.c_b, two.c_b)

    def test_equal_crest_factors_give_the_optimum(self):
        rng = np.random.default_rng(26)
        sa, sb, crest = rng.uniform(0.01, 100.0, size=(3, 300))
        crest += 1.0
        st = noise.BatchStats(sa, sb, -crest * sa, crest * sa, -crest * sb, crest * sb, 48)
        rmax = rng.integers(1, 2 ** 20, size=300)
        sep, opt = noise.separable_companders(st, rmax), noise.optimal_companders(st, rmax)
        np.testing.assert_array_max_ulp(sep.c_a, opt.c_a, maxulp=4)
        np.testing.assert_array_max_ulp(sep.c_b, opt.c_b, maxulp=4)

    def test_quantization_noise_near_the_optimum(self):
        """Over the optimum, the noise is at most (x + 1/x) / 2 with x the
        ratio of the two tiles' crest factors (the linear terms' ratio; the
        product term is the same for both). On N(0, 1) tiles of L = 48,
        whose crest factors differ little, the median is within 0.5% and
        99 of 100 subblocks within 6%."""
        rng = np.random.default_rng(27)
        L = 48
        a, b = (rng.standard_normal((8 * L, 8 * L)).astype(np.float32) for _ in range(2))
        st = subblock_stats(a, b, L)
        sep, opt = (f(st, 2 ** 15) for f in (noise.separable_companders,
                                             noise.optimal_companders))
        ratio = (noise.quant_noise_power(st, sep.c_a, sep.c_b)
                 / noise.quant_noise_power(st, opt.c_a, opt.c_b))
        x = (st.sigma_a / st.a_absmax) / (st.sigma_b / st.b_absmax)
        assert (ratio >= 1.0 - 1e-12).all()
        assert (ratio <= (x + 1.0 / x) / 2.0 * (1.0 + 1e-12)).all()
        assert np.median(ratio) <= 1.005
        assert np.percentile(ratio, 99) <= 1.06

    def test_rejects_a_zero_tile_and_rmax_below_1(self):
        with pytest.raises(DegenerateInputError):
            noise.separable_companders(stats(aext=0.0), 1000)
        with pytest.raises(InvalidConfigError):
            noise.separable_companders(stats(), np.array([0]))


class TestOptimizeRmax:
    """The R_max search of ``build_offline_solutions`` for one sigma pair."""

    def _calib(self, rmse_by_rmax):
        t = CalibrationTable()
        for rmax, s in rmse_by_rmax.items():
            t.add(CalibEntry("single", "symmetric", 2, rmax, 0.0, s, 5, 0))
        return t

    def _rmax(self, calib, w=2, sigmas=(2.0, 3.0), L=48):
        table = build_offline_solutions([sigmas], calib, "single", "symmetric", L, w_set=(w,))
        return int(table.data["rmax"][0])

    def test_picks_best_tradeoff(self):
        # large rmax shrinks quantization noise but brings representation noise
        calib = self._calib({1000: 0.0, 10000: 0.0, 100000: 5000.0})
        assert self._rmax(calib) == 10000

    def test_missing_slice(self):
        with pytest.raises(CalibrationMissingError):
            self._rmax(self._calib({100: 0.0}), w=3)

    def test_first_max_on_tie(self):
        calib = self._calib({1000: 0.0, 1000000000: 0.0})
        assert self._rmax(calib) == 1000000000  # zero s: bigger rmax means less quant noise
        # at these sigmas 10^15 and 10^15 + 1 give the same SNR: the first wins
        calib = self._calib({10 ** 15 + 1: 0.0, 10 ** 15: 0.0})
        assert self._rmax(calib, sigmas=(1.0, 2.0), L=12) == 10 ** 15


class TestValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidConfigError):
            stats(sa=-1.0)

    def test_from_tiles(self):
        """The planner's stats of one tile pair."""
        rng = np.random.default_rng(22)
        a = rng.uniform(-3, 3, size=(16, 16))
        st = subblock_stats(a, a, 16)
        assert st.shape == (1, 1, 1)
        assert st.a_absmax.item() == pytest.approx(np.abs(a).max())
        assert st.sigma_a.item() == pytest.approx(a.std(ddof=1))


class TestBatchForm:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            batch_stats([(1.0, -1.0, 0.0, 1.0, 0.0, 1.0)], 4)
        batch = batch_stats([(1.0, 3.0, -4.0, 4.0, -6.0, 6.0), (0.0, 3.0, -4.0, 4.0, -6.0, 6.0)],
                            48)
        with pytest.raises(DegenerateInputError):
            noise.optimal_companders(batch, np.array([100, 100]))
        with pytest.raises(InvalidConfigError):
            noise.optimal_companders(batch.take([0]), np.array([0]))
        with pytest.raises(InvalidConfigError):
            noise.combined_distortion(batch, np.array([1.0, 1.0]), np.array([1.0, 1.0]),
                                      np.array([0.0, -1.0]))
        with pytest.raises(InvalidConfigError):
            noise.quant_noise_power(batch, np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestSquares:
    def test_model_squares_by_multiplication(self):
        """The model squares as ``t * t``: each of 20000 entries is the
        correctly rounded square Python's ``x * x`` gives. ``t ** 2`` of a
        scalar calls libm ``pow``, which is not always correctly rounded (on
        glibc it differs for about 1 in 1200 doubles)."""
        t = np.random.default_rng(23).uniform(1, 2, size=20000)
        ones = np.ones_like(t)
        batch = noise.BatchStats(t, ones, -2 * ones, 2 * ones, -ones, ones, 1)
        squares = [x * x for x in t.tolist()]
        assert noise.signal_power(batch).tolist() == squares
        assert noise.combined_distortion(batch, 1.0, 1.0, t).repr_power.tolist() == squares
