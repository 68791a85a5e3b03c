import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdgemm import noise
from tdgemm.calibration import CalibEntry, CalibrationTable, build_offline_solutions
from tdgemm.errors import CalibrationMissingError, DegenerateInputError, InvalidConfigError


def stats(sa=2.0, sb=3.0, aext=4.0, bext=6.0, L=48):
    return noise.InputStats(sigma_a=sa, sigma_b=sb, a_min=-aext, a_max=aext,
                            b_min=-bext, b_max=bext, L=L)


class TestQuantNoise:
    def test_closed_form_value(self):
        st = stats(sa=1.0, sb=1.0, L=4)
        # L * (sa^2 + sb^2 + 1/12) / (12 c^2) at c_a = c_b = c
        want = 4 * (1.0 / 12 + 1.0 / 12 + 1.0 / 144)
        assert noise.quant_noise_power(st, 1.0, 1.0) == pytest.approx(want)

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
        assert measured == pytest.approx(noise.quant_noise_power(st, c, c), rel=0.05)

    def test_degenerate_snr(self):
        with pytest.raises(DegenerateInputError):
            noise.expected_snr(stats(sa=0.0), 1.0, 1.0)


class TestCompanders:
    def test_product_invariant(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        ct = noise.c_tot(st.L, st.a_absmax, st.b_absmax, 1000)
        assert sol.c_a * sol.c_b * ct == pytest.approx(1.0)

    def test_balances_linear_terms(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        # the two first-order distortion terms are equal at the optimum
        t1 = (st.sigma_a / sol.c_b) ** 2
        t2 = (st.sigma_b / sol.c_a) ** 2
        assert t1 == pytest.approx(t2)

    def test_optimum_beats_perturbations(self):
        st = stats()
        sol = noise.optimal_companders(st, rmax=1000)
        best = noise.combined_distortion(st, sol.c_a, sol.c_b, 0.0).total
        ct = noise.c_tot(st.L, st.a_absmax, st.b_absmax, 1000)
        for f in (0.5, 0.9, 1.1, 2.0):
            ca = sol.c_a * f
            other = noise.combined_distortion(st, ca, 1.0 / (ct * ca), 0.0).total
            assert best <= other + 1e-12

    def test_repr_noise_lowers_snr(self):
        st = stats()
        clean = noise.optimal_companders(st, rmax=1000, s_repr=0.0)
        noisy = noise.optimal_companders(st, rmax=1000, s_repr=5.0)
        assert noisy.expected_snr_db < clean.expected_snr_db


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
            noise.InputStats(sigma_a=-1, sigma_b=1, a_min=0, a_max=1, b_min=0, b_max=1, L=4)

    def test_from_tiles(self):
        rng = np.random.default_rng(22)
        a = rng.uniform(-3, 3, size=(16, 16))
        st = noise.InputStats.from_tiles(a, a)
        assert st.a_absmax == pytest.approx(np.abs(a).max())
        assert st.sigma_a == pytest.approx(a.std(ddof=1))


class TestBatchForm:
    @given(st.integers(0, 2 ** 31), st.integers(1, 30), st.sampled_from([12, 48, 288]))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_scalar_calls(self, seed, n, L):
        """Each entry of an array call equals the scalar call on that entry."""
        rng = np.random.default_rng(seed)
        sa, sb = 10.0 ** rng.uniform(-3, 4, size=(2, n))
        a_min, b_min = -np.abs(rng.normal(size=(2, n))) * [sa, sb] * 2
        a_max, b_max = np.abs(rng.normal(size=(2, n))) * [sa, sb] * 2
        batch = noise.BatchStats(sa, sb, a_min, a_max, b_min, b_max, L)
        rmax = rng.integers(1, 10 ** 6, size=n)
        s_repr = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-3, 4, size=n))
        sol = noise.optimal_companders(batch, rmax, s_repr=s_repr, w=2)
        assert sol.expected_snr_db is None and sol.w == 2
        budget = noise.combined_distortion(batch, sol.c_a, sol.c_b, s_repr)
        for k in range(n):
            one = noise.InputStats(sa[k], sb[k], a_min[k], a_max[k], b_min[k], b_max[k], L)
            want = noise.optimal_companders(one, int(rmax[k]), s_repr=float(s_repr[k]), w=2)
            assert (sol.c_a[k], sol.c_b[k]) == (want.c_a, want.c_b)
            want_budget = noise.combined_distortion(one, want.c_a, want.c_b, float(s_repr[k]))
            assert budget.quant_power[k] == want_budget.quant_power
            assert budget.repr_power[k] == want_budget.repr_power
            assert budget.total[k] == want_budget.total
            assert noise.signal_power(batch)[k] == noise.signal_power(one)

    def test_of_stacks_input_stats(self):
        rows = [stats(sa=1.0, sb=2.0), stats(sa=3.0, sb=0.0)]
        batch = noise.BatchStats.of(rows)
        assert batch.shape == (2,) and batch.L == 48
        assert batch.sigma_b.tolist() == [2.0, 0.0]
        assert batch.a_absmax.tolist() == [4.0, 4.0]
        assert batch.take([1]).sigma_a.tolist() == [3.0]

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            noise.BatchStats.of([stats(L=12), stats(L=48)])
        with pytest.raises(InvalidConfigError):
            noise.BatchStats(*np.array([[1.0], [-1.0], [0.0], [1.0], [0.0], [1.0]]), L=4)
        batch = noise.BatchStats.of([stats(sa=1.0), stats(sa=0.0)])
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
        """The model squares as ``t * t``, which NumPy arrays compute the same
        way; CPython's ``t ** 2`` calls libm ``pow``, which is not always
        correctly rounded (on glibc it differs for about 1 in 1200 doubles)."""
        for t in np.random.default_rng(23).uniform(1, 2, size=20000).tolist():
            one = noise.InputStats(t, 1.0, -2.0, 2.0, -1.0, 1.0, 1)
            assert noise.signal_power(one) == t * t
            assert noise.combined_distortion(one, 1.0, 1.0, t).repr_power == t * t
