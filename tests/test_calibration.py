import csv
import itertools
import math
import time
from dataclasses import astuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import batch_stats
from tdgemm import calibration as cal, packing
from tdgemm.config import u_sys_of
from tdgemm.errors import (
    CalibrationMissingError, InvalidConfigError, TableFormatError, TimerResolutionError,
)
from tdgemm.noise import combined_distortion, optimal_companders, signal_power

SMALL_SWEEP = [(2, b) for b in (1, 2, 4, 8, 16)]


@pytest.fixture(scope="module")
def small_table():
    return cal.CalibrationTable([e for mode in packing.MODES for e in cal.measure_repr_noise(
        12, "single", mode, 2, sweep=SMALL_SWEEP, trials=3, seed=5)])


class TestMeasurement:
    def test_deterministic(self):
        a = cal.measure_repr_noise(12, "single", "symmetric", 2,
                                   sweep=SMALL_SWEEP[:2], trials=2, seed=9)
        b = cal.measure_repr_noise(12, "single", "symmetric", 2,
                                   sweep=SMALL_SWEEP[:2], trials=2, seed=9)
        assert a == b

    def test_exact_region_floor(self, small_table):
        for e in small_table.entries:
            z = packing.compute_z(e.rmax)
            wef = packing.compute_wef(z, e.rmax, u_sys_of(e.precision))
            limit = packing.exact_packing_limit(e.rmax, z, e.mode, e.precision)
            if e.w <= min(wef, limit):
                assert e.mean_err == 0.0 and e.rmse == 0.0

    def test_mode_ordering(self, small_table):
        for e_sym in small_table.slice("single", "symmetric", 2):
            e_asym = small_table.lookup("single", "asymmetric", 2, e_sym.rmax)
            assert e_sym.rmse <= e_asym.rmse + 1e-9

    def test_monotone_rmse(self, small_table):
        for mode in packing.MODES:
            rmses = [e.rmse for e in small_table.slice("single", mode, 2)]
            # non-decreasing after isotonic smoothing: running max equals a
            # non-decreasing fit within measurement slack
            fit = np.maximum.accumulate(rmses)
            assert np.all(np.asarray(rmses) >= 0.8 * fit)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("mode", packing.MODES)
    def test_matches_float64_reference_loop(self, precision, mode):
        """Entries equal a frozen copy of the loop that took every reference
        in float64, on a sweep whose single-precision R_max runs from small,
        through the exact-integer limit 2^24, to where a float32 product rounds."""
        L, sweep = 16, [(2, 1), (22, 63), (1024, 1023), (1024, 1024), (8000, 8000)]
        assert [packing.compute_rmax(1.0, 1.0, L, a, b) for a, b in sweep[2:4]] == [
            2 ** 24 - 2 ** 14, 2 ** 24]
        assert cal.measure_repr_noise(L, precision, mode, 2, sweep=sweep, trials=4, seed=3) == \
            oracles.repr_noise(L, precision, mode, 2, sweep, trials=4, seed=3)

    def test_w1_rejected(self):
        with pytest.raises(InvalidConfigError):
            cal.measure_repr_noise(12, "single", "symmetric", 1)

    def test_admission_filters_bias_and_cap(self):
        t = cal.CalibrationTable([
            cal.CalibEntry("double", "symmetric", 4, 1000, 0.0, 1.0, 5, 0),
            cal.CalibEntry("double", "symmetric", 4, 2000, 5.0, 9.0, 5, 0),  # biased
            cal.CalibEntry("double", "symmetric", 4, 200000, 0.0, 2.0, 5, 0),  # over the cap
        ])
        assert cal.DEFAULT_RMAX_CAPS[("double", 4)] < 200000
        assert [e.rmax for e in t.admitted("double", "symmetric", 4)] == [1000]


class TestSpeedupProfile:
    def test_w1_gain_zero(self):
        assert cal.SpeedupProfile().fw("single", "symmetric", 1, 48) == 0.0

    def test_profile_measurement(self):
        p = cal.measure_speedup_profile(48, "single", "symmetric", w_set=(2,),
                                        repetitions=3, seed=1)
        e = p.entries[0]
        assert e.mac_ratio == 2.0 and e.L == 48 and e.reps == 3

    def test_missing_entry(self):
        """No entry, or none at the tile side asked for: a gain measured at
        one side is not another's, and the error names the side."""
        prof = cal.SpeedupProfile([cal.ProfileEntry("single", "symmetric", 2, 12, -83.0, 2.0, 5)])
        assert prof.fw("single", "symmetric", 2, 12) == -83.0
        for profile in (cal.SpeedupProfile(), prof):
            with pytest.raises(CalibrationMissingError, match="W=2, L=48"):
                profile.fw("single", "symmetric", 2, 48)

    def test_profile_times_the_calls_tiered_gemm_makes(self, monkeypatch):
        """Each timed side is what ``tiered_gemm`` runs per subblock: the
        packed call with unit companders on one workspace, on named tiles
        whose packed operands ``prepare_operands`` put in the memo, so every
        packed call is a memo hit, and the two-operand plain product on the
        backend ``multiply`` runs, on the same tiles. The warm-up runs calls
        until ``_SAMPLE_S`` has passed, and each sample times a batch of as
        many calls. A fake clock advances 0.3 ms per plain call and 0.45 ms
        per packed call, so the batches are 4 and 3 calls."""
        calls, now_ns = [], [0]

        def counted(name, fn, cost_ns):
            def wrapper(*args, **kwargs):
                calls.append((name, args, kwargs))
                now_ns[0] += cost_ns
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cal, "time", SimpleNamespace(
            perf_counter=lambda: now_ns[0] * 1e-9, get_clock_info=time.get_clock_info))
        monkeypatch.setattr(cal.packing, "packed_subblock_product",
                            counted("packed", cal.packing.packed_subblock_product, 450_000))
        monkeypatch.setattr(cal.packing, "packed_product",
                            counted("packed_product", cal.packing.packed_product, 0))
        monkeypatch.setattr(cal, "plain_subblock_gemm",
                            counted("plain", cal.plain_subblock_gemm, 300_000))
        quantized, quantize = [], cal.packing._quantize_into

        def counting(*args):  # the number of the call that quantizes
            quantized.append(len(calls))
            return quantize(*args)

        monkeypatch.setattr(cal.packing, "_quantize_into", counting)
        profile = cal.measure_speedup_profile(48, "single", "asymmetric", w_set=(2, 3),
                                              repetitions=3, seed=1)
        names = [name for name, *_ in calls]
        assert names == ["plain"] * (4 + 3 * 4) + ["packed"] * 2 * (3 + 3 * 3)
        # only prepare_operands quantizes, both tiles, before each W's first call
        assert quantized == [16, 16, 28, 28]
        at, bt = calls[0][1]
        assert at.shape == bt.shape == (48, 48) and at.dtype == bt.dtype == np.float32
        for _, args, kwargs in calls[:16]:
            assert len(args) == 2 and args[0] is at and args[1] is bt
            assert kwargs == {"backend": "blas"}  # the W=1 product multiply runs
        ws, work = [], calls[16][1][3]
        for _, (a, b, cfg, w_space, tiles), kwargs in calls[16:]:
            assert a is at and b is bt and kwargs == {} and tiles == ((0, 0), (0, 0))
            assert (cfg.mode, cfg.c_a, cfg.c_b) == ("asymmetric", 1.0, 1.0)
            ws.append(cfg.w)
            assert w_space is work  # one workspace, as tiered_gemm runs them
        assert ws == [2] * 12 + [3] * 12
        assert isinstance(work, cal.packing.Workspace) and work.L == 48
        for e in profile.entries:
            assert e.fw_percent == pytest.approx((0.3 / 0.45 - 1.0) * 100.0)

    def test_profile_checks_the_sample_not_the_call(self, monkeypatch):
        """The timer guard compares a whole batch sample, not one call's mean,
        with the timer resolution: a 0.3 ms call in a batch of 4 passes a
        10 us timer and fails a 100 us one."""
        now_ns = [0]

        def plain(*args, **kwargs):
            now_ns[0] += 300_000

        monkeypatch.setattr(cal, "time", SimpleNamespace(
            perf_counter=lambda: now_ns[0] * 1e-9, get_clock_info=time.get_clock_info))
        monkeypatch.setattr(cal, "plain_subblock_gemm", plain)
        monkeypatch.setattr(cal.packing, "packed_subblock_product", plain)
        monkeypatch.setattr(cal, "_timer_resolution", lambda: 1e-5)
        cal.measure_speedup_profile(48, "single", "symmetric", w_set=(2,), repetitions=3)
        monkeypatch.setattr(cal, "_timer_resolution", lambda: 1e-4)
        with pytest.raises(TimerResolutionError, match="sample of 4 plain calls"):
            cal.measure_speedup_profile(48, "single", "symmetric", w_set=(2,), repetitions=3)


def _solution_data(specs):
    """A table's structured array from (sigma_a, sigma_b, W) specs. Each row
    gets a distinct rmax, which names it."""
    return np.array([(sa, sb, w, i, 1.0, 1.0, 0.0) for i, (sa, sb, w) in enumerate(specs)],
                    dtype=cal.SOLUTION_DTYPE)


def _picked(row):
    """A 0-d lookup result as plain values, in the order of ``_row``."""
    return tuple(row[f].item() for f in ("rmax", "c_a", "c_b", "snr_db", "w"))


def _row(data, i):
    r = data[i]
    return (int(r["rmax"]), float(r["c_a"]), float(r["c_b"]), float(r["snr_db"]), int(r["w"]))


class TestSolutions:
    def _solutions(self, small_table):
        return cal.build_offline_solutions(
            [(1.0, 1.0), (4.0, 2.0)], small_table, "single", "symmetric", 12, w_set=(2,)
        )

    def test_one_point_grid(self, small_table):
        t = cal.build_offline_solutions([(2.0, 2.0)], small_table,
                                        "single", "symmetric", 12, w_set=(2,))
        assert len(t) == 1 and t["w"][0] == 2

    def test_grid_point_lookup_exact(self, small_table):
        t = self._solutions(small_table)
        sol = cal.lookup_nearest_solution(t, 4.0, 2.0, 2)
        assert sol.shape == () and _picked(sol) == _row(t, 1)

    def test_tie_goes_to_earlier_row(self, small_table):
        t = self._solutions(small_table)
        # (2.5, 1.5) is equidistant from both grid points
        assert _picked(cal.lookup_nearest_solution(t, 2.5, 1.5, 2)) == _row(t, 0)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=25)
    def test_nearest_beats_all_rows(self, sa, sb):
        data = _solution_data([(x, y, 2) for x in (0.5, 2.0, 8.0) for y in (0.5, 2.0, 8.0)])
        got = cal.lookup_nearest_solution(data, sa, sb, 2)
        picked = data[int(got["rmax"])]
        d = (sa - picked["sigma_a"]) ** 2 + (sb - picked["sigma_b"]) ** 2
        for r in data:
            assert d <= (sa - r["sigma_a"]) ** 2 + (sb - r["sigma_b"]) ** 2 + 1e-12

    def test_missing_w(self, small_table):
        with pytest.raises(CalibrationMissingError):
            cal.lookup_nearest_solution(self._solutions(small_table), 1.0, 1.0, 3)

    def test_data_is_read_only_and_owned(self, small_table, tmp_path):
        """A built or loaded table is a read-only array that owns its data."""
        built = self._solutions(small_table)
        cal.save_solutions(built, tmp_path / "s.csv")
        for t in (built, cal.load_solutions(tmp_path / "s.csv")):
            assert t.dtype == cal.SOLUTION_DTYPE and t.flags.owndata
            with pytest.raises(ValueError):
                t["rmax"][0] = 7
            assert _picked(cal.lookup_nearest_solution(t, 4.0, 2.0, 2)) == _row(t, 1)


# dyadic sigmas: sums, midpoints and squared distances between them are
# exact, so duplicate rows and exact ties occur; inf and NaN rows (a NaN
# can come from a malformed table file) make NaN distances
_ROW_SIGMA = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0]),
    st.floats(0.0, 1e6),
    st.sampled_from([math.inf, math.nan]),
)
# bounded so that the oracle's float ** 2 does not raise OverflowError
_QUERY_SIGMA = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0]),
)
_ROWS = st.lists(st.tuples(_ROW_SIGMA, _ROW_SIGMA, st.sampled_from([2, 3, 4])),
                 min_size=1, max_size=30)


def _query(data, specs):
    """A free query, or the midpoint of two rows of the same W."""
    a = data.draw(st.sampled_from(specs))
    b = data.draw(st.sampled_from([r for r in specs if r[2] == a[2]]))
    free = (data.draw(_QUERY_SIGMA), data.draw(_QUERY_SIGMA))
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    return data.draw(st.sampled_from([free, mid])), a[2]


class TestSolutionIndex:
    def _check(self, table, sa, sb, w):
        try:
            want = _row(table, oracles.nearest_solution(table, sa, sb, w))
        except CalibrationMissingError:
            with pytest.raises(CalibrationMissingError):
                cal.lookup_nearest_solution(table, sa, sb, w)
            return
        assert _picked(cal.lookup_nearest_solution(table, sa, sb, w)) == want

    @given(_ROWS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, specs, data):
        table = _solution_data(specs)
        for _ in range(4):
            (sa, sb), w = _query(data, specs)
            self._check(table, sa, sb, w)
            self._check(table, sa, sb, data.draw(st.sampled_from([2, 3, 4, 5])))

    def test_duplicate_rows_earlier_wins(self):
        table = _solution_data([(1.0, 1.0, 2), (3.0, 1.0, 2), (1.0, 1.0, 2), (3.0, 1.0, 2)])
        assert cal.lookup_nearest_solution(table, 1.0, 1.0, 2)["rmax"] == 0
        assert cal.lookup_nearest_solution(table, 3.0, 1.0, 2)["rmax"] == 1
        # halfway between the duplicates: the first row of all four wins
        assert cal.lookup_nearest_solution(table, 2.0, 1.0, 2)["rmax"] == 0

    def test_nan_query_returns_first_row_of_w(self):
        table = _solution_data([(1.0, 1.0, 3), (5.0, 5.0, 2), (0.5, 0.5, 2)])
        for sa, sb in ((math.nan, 1.0), (1.0, math.nan), (math.inf, -math.inf)):
            assert cal.lookup_nearest_solution(table, sa, sb, 2)["rmax"] == 1

    def test_nan_distance_never_displaces_a_row(self):
        table = _solution_data([(1.0, 1.0, 2), (math.inf, 1.0, 2)])
        # inf - inf is NaN for the second row; the scan keeps the first
        assert cal.lookup_nearest_solution(table, math.inf, 1.0, 2)["rmax"] == 0
        # nor is a NaN distance on the first row, even by an exact match
        table = _solution_data([(math.nan, 1.0, 2), (1.0, 1.0, 2)])
        assert cal.lookup_nearest_solution(table, 1.0, 1.0, 2)["rmax"] == 0


class TestArrayLookup:
    @given(_ROWS, st.data(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_linear_scan(self, specs, data, n):
        """Many queries in one call."""
        table = _solution_data(specs)
        w = data.draw(st.sampled_from(sorted({r[2] for r in specs})))
        queries = [_query(data, [r for r in specs if r[2] == w])[0] for _ in range(n)]
        got = cal.lookup_nearest_solution(table, [q[0] for q in queries],
                                          [q[1] for q in queries], w)
        assert got.shape == (n,)
        for k, (sa, sb) in enumerate(queries):
            assert _picked(got[k]) == _row(table, oracles.nearest_solution(table, sa, sb, w))

    def test_query_shape_and_broadcast(self):
        table = _solution_data([(1.0, 1.0, 2), (4.0, 4.0, 2), (9.0, 1.0, 3)])
        got = cal.lookup_nearest_solution(table, np.array([[0.0, 5.0], [3.0, 1.5]]), 2.0, 2)
        # (3, 2) is equidistant from both rows of W=2: the earlier one wins
        assert got["rmax"].tolist() == [[0, 1], [0, 0]]
        assert got.shape == (2, 2) and got.dtype == cal.SOLUTION_DTYPE

    def test_loaded_table_matches_built_table(self, tmp_path):
        table = _solution_data([(1.0, 1.0, 2), (4.0, 4.0, 2), (9.0, 1.0, 3), (2.0, 3.0, 3)])
        path = tmp_path / "s.csv"
        cal.save_solutions(table, path)
        loaded = cal.load_solutions(path)
        assert loaded.tolist() == table.tolist()
        for w in (2, 3):
            got = cal.lookup_nearest_solution(loaded, [0.5, 3.0, 8.0], [0.5, 3.0, 1.0], w)
            want = [cal.lookup_nearest_solution(table, sa, sb, w)["rmax"]
                    for sa, sb in ((0.5, 0.5), (3.0, 3.0), (8.0, 1.0))]
            assert got["rmax"].tolist() == want
        assert _picked(cal.lookup_nearest_solution(loaded, 9.0, 1.0, 3)) == _row(loaded, 2)


_BUILD_CHUNKS = [1, 7, 64, cal._BUILD_CHUNK]


def _assert_build_matches_oracle(pairs, calib, precision, mode, L, w_set, chunk):
    try:
        want, _curves = oracles.build_solutions(pairs, calib, precision, mode, L, w_set)
    except CalibrationMissingError:
        with pytest.raises(CalibrationMissingError):
            cal.build_offline_solutions(pairs, calib, precision, mode, L, w_set=w_set)
        return None
    with mock.patch.object(cal, "_BUILD_CHUNK", chunk):
        got = cal.build_offline_solutions(pairs, calib, precision, mode, L, w_set=w_set)
    assert [tuple(map(repr, r)) for r in got.tolist()] == \
        [tuple(map(repr, r)) for r in want]
    return got


@pytest.fixture(scope="module")
def measured_table():
    """Measured entries for both modes and W = 2, 3, 4 at L=12."""
    return cal.CalibrationTable([
        e for mode in packing.MODES for w in (2, 3, 4)
        for e in cal.measure_repr_noise(12, "single", mode, w,
                                        sweep=SMALL_SWEEP + [(22, 1), (22, 9), (22, 63)],
                                        trials=2, seed=5)])


def _entry(rmax, rmse, mean_err=0.0, w=2, precision="single"):
    return cal.CalibEntry(precision, "symmetric", w, rmax, mean_err, rmse, 3, 0)


class TestBuildMatchesScalarSearch:
    @pytest.mark.parametrize("chunk", _BUILD_CHUNKS)
    @pytest.mark.parametrize("mode", packing.MODES)
    def test_measured_tables(self, measured_table, mode, chunk):
        sigmas = cal.log_sigma_grid(per_decade=2)
        pairs = [(sa, sb) for sa in sigmas for sb in sigmas]
        got = _assert_build_matches_oracle(pairs, measured_table, "single", mode, 12,
                                           (2, 3, 4), chunk)
        assert got["w"].tolist() == [w for w in (2, 3, 4) for _ in pairs]

    @given(st.lists(st.tuples(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4)), max_size=12),
           st.dictionaries(st.sampled_from([2, 3, 4]), st.lists(
               st.tuples(st.integers(1, 10 ** 9), st.floats(1e-3, 1e3),
                         st.sampled_from([0.0, 5e-5, 1e-4, 1e-3]), st.booleans()),
               max_size=8), min_size=1),
           st.sampled_from(["single", "double"]), st.sampled_from([12, 48]),
           st.sampled_from(_BUILD_CHUNKS))
    @settings(max_examples=100, deadline=None)
    def test_random_entries(self, pairs, entries, precision, L, chunk):
        """Entries whose repr noise trades against quantization noise near
        R_max, some biased, some over the double W=4 cap, some with rmse 0."""
        calib = cal.CalibrationTable(
            [_entry(rmax, 0.0 if zero else math.sqrt(rmax * u / (18 * L)), bias * rmax, w,
                    precision)
             for w, specs in entries.items() for rmax, u, bias, zero in specs])
        _assert_build_matches_oracle(pairs, calib, precision, "symmetric", L,
                                     tuple(entries), chunk)

    @pytest.mark.parametrize("chunk", _BUILD_CHUNKS)
    def test_exact_tie_and_rejected_entries(self, chunk):
        tie = 10 ** 15  # rmse 0 at tie and tie + 1 gives the same SNR
        calib = cal.CalibrationTable([
            _entry(tie + 1, 0.0), _entry(tie, 0.0), _entry(1000, 0.0),
            _entry(10 * tie, 0.0, mean_err=tie * 1e-2),  # best SNR, but biased
        ])
        pairs = [(1.0, 2.0), (3.0, 0.5), (1.0, 2.0)]
        got = _assert_build_matches_oracle(pairs, calib, "single", "symmetric", 12, (2,), chunk)
        a_abs, b_abs = cal.uniform_extremes(1.0, 2.0)
        stats = batch_stats([(1.0, 2.0, -a_abs, a_abs, -b_abs, b_abs)], 12)
        c_a, c_b = optimal_companders(stats, np.array([tie, tie + 1]))
        ratio = signal_power(stats) / combined_distortion(stats, c_a, c_b, 0.0)
        snr = [10.0 * math.log10(x) for x in ratio.tolist()]
        assert snr[0] == snr[1]
        assert got["rmax"][0] == tie and got["rmax"][2] == tie


class TestCalibrationLookup:
    @staticmethod
    def _entry(rmax, rmse, w=2):
        return cal.CalibEntry("single", "symmetric", w, rmax, 0.0, rmse, 3, 0)

    def test_duplicate_key_first_wins(self):
        first, dup = self._entry(100, 1.0), self._entry(100, 2.0)
        t = cal.CalibrationTable(entries=[self._entry(50, 0.5), first, dup])
        assert t.lookup("single", "symmetric", 2, 100) is first

    def test_slice_keeps_file_order_among_equal_rmax(self):
        """``slice`` and ``admitted`` sort by R_max only: entries of one R_max,
        duplicates included, stay in file order."""
        e = [self._entry(300, 1.0), self._entry(100, 2.0), self._entry(300, 3.0),
             self._entry(100, 4.0, w=3), self._entry(100, 5.0), self._entry(200, 6.0)]
        t = cal.CalibrationTable(entries=e)
        assert t.slice("single", "symmetric", 2) == [e[1], e[4], e[5], e[0], e[2]]
        with mock.patch.dict(cal.DEFAULT_RMAX_CAPS, {("single", 2): 200}):
            assert t.admitted("single", "symmetric", 2) == [e[1], e[4], e[5]]
        assert t.slice("single", "symmetric", 3) == [e[3]]
        assert t.slice("single", "asymmetric", 2) == []
        assert t.ws("single", "symmetric") == [2, 3] and t.ws("double", "symmetric") == []

    def test_slice_and_ws_see_added_entries(self):
        """The index holds every entry the table is built from; a slice is a
        copy of it."""
        t = cal.CalibrationTable(entries=[self._entry(200, 1.0), self._entry(100, 2.0),
                                          self._entry(100, 3.0, w=4)])
        assert [x.rmax for x in t.slice("single", "symmetric", 2)] == [100, 200]
        assert t.ws("single", "symmetric") == [2, 4]
        t.slice("single", "symmetric", 2).clear()  # a copy: the index is not changed
        assert len(t.admitted("single", "symmetric", 2)) == 2

    @given(st.lists(st.tuples(st.sampled_from(["single", "double"]),
                              st.sampled_from(packing.MODES), st.integers(1, 3),
                              st.sampled_from([10, 20, 30]), st.integers(0, 9)), max_size=12),
           st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_index_matches_scans(self, keys, split):
        """``lookup``, ``slice``, ``admitted`` and ``ws`` give what a scan of
        every entry gives, on a table of some of the entries and on one of
        all of them."""
        entries = [cal.CalibEntry(p, m, w, rmax, 0.01 * rmax * (bias > 7), float(i), 3, 0)
                   for i, (p, m, w, rmax, bias) in enumerate(keys)]
        caps = {(p, w): 20 for p in ("single", "double") for w in range(1, 4)}
        for stage in (entries[:split], entries):
            t = cal.CalibrationTable(entries=stage)
            for p, m, w, rmax in itertools.product(["single", "double"], packing.MODES,
                                                   range(1, 4), [10, 20, 30]):
                scan = [e for e in stage if e[:4] == (p, m, w, rmax)]
                if scan:
                    assert t.lookup(p, m, w, rmax) is scan[0]
                else:
                    with pytest.raises(CalibrationMissingError):
                        t.lookup(p, m, w, rmax)
                want = sorted((e for e in stage if e[:3] == (p, m, w)),
                              key=lambda e: e.rmax)
                assert t.slice(p, m, w) == want
                with mock.patch.dict(cal.DEFAULT_RMAX_CAPS, caps):
                    assert t.admitted(p, m, w) == [
                        e for e in want if e.rmax <= 20 and e.mean_err == 0.0]
                assert t.ws(p, m) == sorted({e.w for e in stage if e[:2] == (p, m)})

    def test_missing_key_raises(self):
        t = cal.CalibrationTable(entries=[self._entry(100, 1.0)])
        t.lookup("single", "symmetric", 2, 100)
        for key in (("single", "symmetric", 2, 101), ("double", "symmetric", 2, 100),
                    ("single", "asymmetric", 2, 100), ("single", "symmetric", 3, 100)):
            with pytest.raises(CalibrationMissingError):
                t.lookup(*key)
        with pytest.raises(CalibrationMissingError):
            cal.CalibrationTable().lookup("single", "symmetric", 2, 100)


class TestPersistence:
    def test_calibration_round_trip(self, small_table, tmp_path):
        p = tmp_path / "c.csv"
        cal.save_calibration(small_table, p)
        assert cal.load_calibration(p).entries == small_table.entries

    def test_speedup_round_trip(self, tmp_path):
        prof = cal.SpeedupProfile(entries=[
            cal.ProfileEntry("single", "symmetric", 2, 48, 83.25, 2.0, 5)
        ])
        p = tmp_path / "s.csv"
        cal.save_speedup(prof, p)
        assert cal.load_speedup(p).entries == prof.entries

    def test_solutions_round_trip(self, small_table, tmp_path):
        t = cal.build_offline_solutions([(1.0, 3.0)], small_table,
                                        "single", "symmetric", 12, w_set=(2,))
        p = tmp_path / "o.csv"
        cal.save_solutions(t, p)
        assert cal.load_solutions(p).tolist() == t.tolist()

    def test_floats_written_as_repr(self, tmp_path):
        """A saved float is its ``repr``, so it reads back as the same float."""
        floats = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, -2.5e-300,
                  123456789.125, 1.7976931348623157e308]
        table = cal.CalibrationTable([cal.CalibEntry("double", "symmetric", 4, 100 + i, x,
                                                     abs(x), 3, 0)
                                      for i, x in enumerate(floats)])
        path = tmp_path / "c.csv"
        cal.save_calibration(table, path)
        assert path.read_text().splitlines()[2:] == [
            f"double,symmetric,4,{100 + i},{x!r},{abs(x)!r},3,0" for i, x in enumerate(floats)]
        assert [(e.mean_err, e.rmse) for e in cal.load_calibration(path).entries] == \
            [(x, abs(x)) for x in floats]
        sols = np.array([(x, -x, 2, 7, x, x, x) for x in floats], dtype=cal.SOLUTION_DTYPE)
        cal.save_solutions(sols, path)
        assert path.read_text().splitlines()[2:] == [
            f"{x!r},{-x!r},2,7,{x!r},{x!r},{x!r}" for x in floats]

    def test_empty_table_round_trip(self, tmp_path):
        p = tmp_path / "e.csv"
        cal.save_calibration(cal.CalibrationTable(), p)
        assert cal.load_calibration(p).entries == []

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# version 99\n" + ",".join(cal.CALIB_HEADER) + "\n")
        with pytest.raises(TableFormatError):
            cal.load_calibration(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("precision,mode\n")
        with pytest.raises(TableFormatError):
            cal.load_calibration(p)


@pytest.fixture(params=["calibration", "speedup", "solutions"])
def table_file(request, small_table, tmp_path):
    """A saved table of each kind, with its loader, a numeric column of each
    type (integer, float) and its range faults (``_RANGE_FAULTS``)."""
    path = tmp_path / f"{request.param}.csv"
    faults = _RANGE_FAULTS[request.param]
    if request.param == "calibration":
        cal.save_calibration(small_table, path)
        return path, cal.load_calibration, ("rmax", "rmse"), faults
    if request.param == "speedup":
        cal.save_speedup(cal.SpeedupProfile(
            [cal.ProfileEntry("single", "symmetric", w, 48, 10.0 * w, float(w), 5)
             for w in (2, 3, 4)]), path)
        return path, cal.load_speedup, ("W", "fw_percent"), faults
    cal.save_solutions(cal.build_offline_solutions(
        [(1.0, 3.0), (2.0, 2.0), (4.0, 1.0)], small_table, "single", "symmetric", 12,
        w_set=(2,)), path)
    return path, cal.load_solutions, ("rmax", "sigma_b"), faults


# per table and kind of range fault, the (column, value) of the fault and
# the number it loads as, None where the table rejects it: calibration takes
# no NaN or infinite measurement, no negative rmse and no W or R_max below 1,
# speedup no NaN or infinite gain, and solutions any number
_RANGE_FAULTS = {
    "calibration": {"nan": ("rmse", "nan", None), "inf": ("mean_err", "-inf", None),
                    "negative": ("rmse", "-1e-300", None), "below": ("W", "0", None)},
    "speedup": {"nan": ("mac_ratio", "nan", None), "inf": ("fw_percent", "inf", None),
                "negative": ("fw_percent", "-5.0", -5.0), "below": ("W", "0", 0)},
    "solutions": {"nan": ("sigma_b", "nan", math.nan), "inf": ("snr_db", "-inf", -math.inf),
                  "negative": ("c_a", "-1e-300", -1e-300), "below": ("W", "0", 0)},
}


def _entries(table):
    return table.tolist() if isinstance(table, np.ndarray) else table.entries


class TestMalformedRows:
    @staticmethod
    def _rewrite(path, edit=None):
        """Insert a blank line after the first data row, so that the second
        data row sits on line 5, and apply ``edit`` to that row."""
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        if edit is not None:
            rows[3] = edit(rows[1], rows[3])
        with open(path, "w", newline="") as f:
            f.write(rows[0][0] + "\n")
            writer = csv.writer(f)
            writer.writerows(rows[1:3])
            f.write("\n")
            writer.writerows(rows[3:])

    def test_blank_lines_are_skipped(self, table_file):
        path, load, *_ = table_file
        before = _entries(load(path))
        self._rewrite(path)
        assert _entries(load(path)) == before

    @pytest.mark.parametrize("kind", ["int", "float", "short", "long", "quoted", "nan", "inf",
                                      "negative", "below"])
    def test_error_names_file_and_line(self, table_file, kind):
        """Each kind of malformed row, on line 5 after a blank line, raises
        TableFormatError naming the file, the line and the column at fault;
        a range fault a table takes loads as the number it reads."""
        path, load, (int_col, float_col), faults = table_file
        col, value, loaded = faults.get(
            kind, (float_col if kind == "float" else int_col,
                   "1,5" if kind == "quoted" else "abc", None))  # csv.writer quotes "1,5"

        def edit(header, row):
            if kind == "short":
                return row[:3]
            if kind == "long":
                return row + ["1"]
            row = list(row)
            row[header.index(col)] = value
            return row

        self._rewrite(path, edit)
        if loaded is not None:
            row = _entries(load(path))[1]
            header = path.read_text().splitlines()[1].split(",")
            got = (row if isinstance(row, tuple) else astuple(row))[header.index(col)]
            assert repr(got) == repr(loaded)
            return
        with pytest.raises(TableFormatError) as exc:
            load(path)
        assert f"{path}, line 5:" in str(exc.value)
        if kind not in ("short", "long"):
            assert f"bad {col} value {value!r}" in str(exc.value)


def _calibration_rows(path):
    return [tuple(e) for e in cal.load_calibration(path).entries]


# per table: its header, its field spec, its loader as rows of tuples, its
# saver of such rows, and the frozen parse
_TABLES = {
    "calibration": (cal.CALIB_HEADER, cal.CALIB_FIELDS, _calibration_rows,
                    lambda rows, path: cal.save_calibration(
                        cal.CalibrationTable([cal.CalibEntry(*r) for r in rows]), path),
                    oracles.load_calibration),
    "speedup": (cal.SPEEDUP_HEADER, cal.SPEEDUP_FIELDS,
                lambda path: list(map(astuple, cal.load_speedup(path).entries)),
                lambda rows, path: cal.save_speedup(
                    cal.SpeedupProfile([cal.ProfileEntry(*r) for r in rows]), path),
                oracles.load_speedup),
    "solutions": (cal.SOLUTION_HEADER, cal.SOLUTION_FIELDS,
                  lambda path: cal.load_solutions(path).tolist(),
                  lambda rows, path: cal.save_solutions(
                      np.array(rows, dtype=cal.SOLUTION_DTYPE), path),
                  oracles.load_solutions),
}


def _outcome(parse, path):
    """What ``parse`` makes of the file ``path``: the repr of its rows, or
    its error."""
    try:
        return repr(parse(path))
    except (TableFormatError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


_HEAD = "# version 1\r\n" + ",".join(cal.CALIB_HEADER) + "\r\n"


class TestLoadCalibrationAsFrozen:
    """The one-split load against the frozen field-by-field parse: it takes
    what the parse took, with the same bits, and fails where it failed,
    with its message."""

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_measured(self, tmp_path, mode):
        table = cal.CalibrationTable([e for w in (2, 3, 4) for e in cal.measure_repr_noise(
            12, "single", mode, w, trials=2, seed=4)])
        path = tmp_path / "c.csv"
        cal.save_calibration(table, path)
        assert _outcome(_calibration_rows, path) == _outcome(oracles.load_calibration, path) \
            == repr([tuple(e) for e in table.entries])

    @pytest.mark.parametrize("body", [
        '"single","symmetric","2","100","0.5","1.5","3","0"\r\n',  # every field quoted
        '"sin,gle",symmetric,2,100,0.5,1.5,3,0\r\n',  # a comma inside quotes
        '"sin\r\ngle",symmetric,2,100,0.5,1.5,3,0\r\n',  # a line break inside quotes
        'sin"gle,symmetric,2,100,0.5,1.5,3,0\n',  # a quote inside a field
        '"single"x,symmetric,2,100,0.5,1.5,3,0\n',
        '\r\n\nsingle,symmetric,2,100,0.5,1.5,3,0\r\n\r\n\n',  # blank lines
        'single,symmetric,2,100,0.5,1.5,3,0\n \n',  # a line of one space
        'single,symmetric, 2 ,100,-0.0,0.0,3,0 \n',  # spaces around numbers
        'single,symmetric,2,1_000,5e-324,1e308,3,0',  # no final line break
        "x" * 5000 + ",symmetric,2,100,0.5,1.5,3,0\r\n",  # a long string
        "single," + "m" * 300 + ",2,100,0.5,1.5,3,0\r\n" * 3,
        'single,symmetric,2,100,0.5,1.5,3\r\n',  # a field short
        'single,symmetric,2,100,0.5,1.5,3,0,\r\n',  # a field long
        'single,symmetric,2.0,100,0.5,1.5,3,0\r\n',  # a float int
        'single,symmetric,2,100,nan,1.5,3,0\r\n',
        'single,symmetric,2,100,0.5,-1e-300,3,0\r\n',
        'single,symmetric,2,100,0.5,inf,3,0\r\n',
    ])
    def test_rows(self, tmp_path, body):
        path = tmp_path / "c.csv"
        path.write_text(_HEAD + body, newline="")
        assert _outcome(_calibration_rows, path) == _outcome(oracles.load_calibration, path)


class TestColumnParse:
    """``read_table`` on calibration files its column parse does not take:
    a malformed row, which ``_typed_rows`` names by its line, and quoted
    fields, which ``_typed_rows`` reads."""

    @pytest.mark.parametrize("column,value,message", [
        ("mean_err", "nan", "bad mean_err value 'nan'"),
        ("mean_err", "inf", "bad mean_err value 'inf'"),
        ("rmse", "-1e-300", "bad rmse value '-1e-300'"),
        ("W", "0", "bad W value '0'"),
        ("rmax", "-3", "bad rmax value '-3'"),
        ("trials", "3.0", "bad trials value '3.0'"),
        ("seed", '"x"', "bad seed value 'x'"),  # a quote
        ("seed", "0,1", "9 fields, expected 8"),
        ("seed", "", None),  # a field short: "7 fields"
    ])
    def test_malformed_row_names_its_line(self, small_table, tmp_path, column, value,
                                          message):
        """The one bad row of a file, on line 6 after a blank line, raises
        TableFormatError naming the file, the line and the fault."""
        path = tmp_path / "c.csv"
        cal.save_calibration(small_table, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[4].rstrip("\r\n").split(",")
        if message is None:
            del fields[cal.CALIB_HEADER.index(column)]
            message = "7 fields, expected 8"
        else:
            fields[cal.CALIB_HEADER.index(column)] = value
        lines[4] = ",".join(fields) + "\r\n"
        path.write_text("".join(lines[:3] + ["\r\n"] + lines[3:]), newline="")
        with pytest.raises(TableFormatError) as exc:
            cal.load_calibration(path)
        assert f"{path}, line 6: {message}" in str(exc.value)

    def test_quoted_fields_load_as_unquoted(self, small_table, tmp_path):
        """A file whose fields are quoted leaves the column parse for
        ``_typed_rows``, which reads the same entries."""
        path = tmp_path / "c.csv"
        cal.save_calibration(small_table, path)
        head, *rows = path.read_text().splitlines(keepends=True)[1:]
        quoted = "".join(",".join(f'"{f}"' for f in r.rstrip("\r\n").split(",")) + "\r\n"
                         for r in rows)
        path.write_text(f"# version 1\n{head}{quoted}", newline="")
        assert cal.load_calibration(path).entries == small_table.entries


_ANY_FLOAT = st.one_of(st.floats(allow_subnormal=True),
                       st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                                        -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]))
_FINITE_FLOAT = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_TEXT = st.sampled_from([*cal.PRECISIONS, *packing.MODES, "x" * 300])
# any row of each table's field types, as its writer is given it
_ANY_ROWS = {
    "calibration": st.tuples(_TEXT, _TEXT, _INT64, _INT64, _ANY_FLOAT, _ANY_FLOAT, _INT64,
                             _INT64),
    "speedup": st.tuples(_TEXT, _TEXT, _INT64, _INT64, _ANY_FLOAT, _ANY_FLOAT, _INT64),
    "solutions": st.tuples(_ANY_FLOAT, _ANY_FLOAT, _INT64, _INT64, _ANY_FLOAT, _ANY_FLOAT,
                           _ANY_FLOAT),
    "plan": st.tuples(*[st.integers(0, 2 ** 20)] * 3, st.integers(1, 4), _ANY_FLOAT,
                      _ANY_FLOAT, _INT64, _ANY_FLOAT),
    "sweep": st.tuples(st.integers(0, 100), _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT),
}
_HEADERS = {name: spec[0] for name, spec in _TABLES.items()} | {
    "plan": ["i", "j", "l", "W", "c_a", "c_b", "rmax", "d_hat"],
    "sweep": ["accel_pct", "measured_snr_db", "mac_ratio", "wallclock_ratio"]}
# rows of each table's field types as its saver or the frozen writer is
# given them: a calibration row as a measurement makes it, an R_max of 0
# among them, which no load takes, or of any text and of numbers in range;
# a speedup row with a finite gain; a solution row of any numbers
_SAVED_ROWS = {
    "calibration": st.one_of(
        st.tuples(st.sampled_from(["single", "double", "x" * 300]),
                  st.sampled_from(packing.MODES), st.integers(1, 4),
                  st.one_of(st.integers(0, 2 ** 60), st.sampled_from([1, 7, 2 ** 40])),
                  _FINITE_FLOAT, st.floats(0.0, allow_infinity=False), st.integers(1, 9),
                  st.integers(-5, 2 ** 40)),
        st.tuples(_TEXT, _TEXT, st.integers(1, 2 ** 62), st.integers(1, 2 ** 62),
                  _FINITE_FLOAT, st.floats(0.0, allow_infinity=False), _INT64, _INT64)),
    "speedup": st.tuples(_TEXT, _TEXT, _INT64, _INT64, _FINITE_FLOAT, _FINITE_FLOAT, _INT64),
    "solutions": _ANY_ROWS["solutions"],
}


class TestTableCodec:
    """``write_table`` and ``read_table`` against the frozen ``csv.writer``
    writer and the frozen parses."""

    @pytest.mark.parametrize("table", sorted(_ANY_ROWS))
    def test_writer_bytes_equal_csv_writer(self, tmp_path_factory, table):
        """Every table's rows, infinities, NaN, -0.0 and subnormals among
        them. The sweep's own writer wrote what ``csv.writer`` writes, but
        for a -inf SNR, which would take a zero-power product with a nonzero
        error; the sweep runs the examples of the test of that writer too."""
        @given(st.lists(_ANY_ROWS[table], max_size=11))
        @settings(max_examples=120 if table == "sweep" else 60, deadline=None)
        def check(rows):
            d = tmp_path_factory.mktemp("w")
            cal.write_table(d / "got.csv", _HEADERS[table], iter(rows))
            oracles.write_csv(d / "want.csv", _HEADERS[table], rows)
            assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()
        check()

    @given(st.lists(_ANY_ROWS["calibration"], max_size=5),
           st.lists(_ANY_ROWS["speedup"], max_size=5),
           st.lists(_ANY_ROWS["solutions"], max_size=9), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_savers_write_frozen_bytes(self, tmp_path_factory, calib, speedup, solutions,
                                       chunk):
        """``save_calibration``, ``save_speedup`` and ``save_solutions``, the
        last a ``chunk`` of rows at a time."""
        d = tmp_path_factory.mktemp("save")
        for table, rows in (("calibration", calib), ("speedup", speedup),
                            ("solutions", solutions)):
            header, _fields, _load, save, _frozen = _TABLES[table]
            with mock.patch.object(cal, "_SAVE_CHUNK", chunk):
                save(rows, d / f"{table}.csv")
            oracles.write_csv(d / f"{table}-want.csv", header, rows)
            assert (d / f"{table}.csv").read_bytes() == (d / f"{table}-want.csv").read_bytes()

    @pytest.mark.parametrize("table", sorted(_SAVED_ROWS))
    def test_loaders_equal_frozen_parse(self, tmp_path_factory, table):
        """On the files the table's saver or the frozen writer made of saved
        rows, duplicate keys among them, each loader reads the rows, with
        the same bits and field types, as the frozen parse and ``_typed_rows``
        read them, by the column parse alone: it makes no ``_typed_rows``
        call. A calibration row with an R_max of 0 fails the load as it fails
        the frozen parse. The calibration table runs the examples of the
        two tests of saved calibration rows too."""
        header, fields, load, save, frozen = _TABLES[table]

        @given(st.lists(_SAVED_ROWS[table], max_size=10), st.data())
        @settings(max_examples=260 if table == "calibration" else 60, deadline=None)
        def check(rows, data):
            if rows:  # duplicate keys
                rows += data.draw(st.lists(st.sampled_from(rows), max_size=4))
            path = tmp_path_factory.mktemp("r") / "t.csv"
            if data.draw(st.booleans()):
                save(rows, path)
            else:
                oracles.write_csv(path, header, rows)
            if table == "calibration" and any(r[3] < 1 for r in rows):
                assert _outcome(load, path) == _outcome(frozen, path)
                assert _outcome(frozen, path).startswith("TableFormatError")
                return
            with mock.patch.object(cal, "_typed_rows", side_effect=AssertionError):
                got = load(path)
            typed = cal._typed_rows(path, cal._data_lines(path, header), header, fields)
            assert repr(got) == repr(frozen(path)) == repr(typed) == repr(rows)
            kinds = tuple(kind for kind, _lo in fields)
            assert all(tuple(map(type, row)) == kinds for row in got)
            if table == "calibration":
                assert {type(e) for e in cal.load_calibration(path).entries} <= {cal.CalibEntry}
        check()

    @pytest.mark.parametrize("table", sorted(_TABLES))
    def test_loaders_accept_and_reject_as_frozen(self, tmp_path_factory, table):
        """On any text rows, each loader takes what the frozen parse took,
        with the same bits, and fails where it failed, with its message. The
        calibration table runs the examples of the test of any calibration
        rows too."""
        header, _fields, load, _save, frozen = _TABLES[table]
        field = st.one_of(st.integers(-10 ** 20, 10 ** 20).map(str), st.floats().map(repr),
                          st.sampled_from(["single", "asymmetric", "", " 7", "-0", "1_0", "nan",
                                           "-inf", "0", "2.0", "1e3", "x" * 400]),
                          st.text(alphabet=' ,"a1.e-+_\r\n\t', max_size=6))
        n = len(header)

        @given(st.lists(st.lists(field, min_size=n - 1, max_size=n + 1), max_size=5),
               st.sampled_from(["\r\n", "\n", "\r"]))
        @settings(max_examples=300 if table == "calibration" else 100, deadline=None)
        def check(rows, end):
            path = tmp_path_factory.mktemp("any") / "t.csv"
            path.write_text(f"# version 1\r\n{','.join(header)}\r\n"
                            + "".join(",".join(row) + end for row in rows), newline="")
            assert _outcome(load, path) == _outcome(frozen, path)
        check()


@pytest.mark.parametrize("column,value", [("rmse", "nan"), ("rmse", "inf"), ("rmse", "-0.5"),
                                          ("mean_err", "nan"), ("mean_err", "-inf"),
                                          ("W", "0"), ("W", "-2"), ("rmax", "0")])
def test_calibration_rejects_values_no_measurement_gives(small_table, tmp_path, column, value):
    """A NaN RMSE would win the R_max search (``argmax`` takes NaN as the
    maximum) and a NaN mean error would pass the bias filter, so a row holding
    either, an infinity or a negative RMSE fails to load; so does a W or an
    R_max below 1, which no packing has."""
    path = tmp_path / "calibration.csv"
    cal.save_calibration(small_table, path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[cal.CALIB_HEADER.index(column)] = value
    lines[3] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(TableFormatError) as exc:
        cal.load_calibration(path)
    assert f"{path}, line 4: bad {column} value '{value}'" in str(exc.value)


@pytest.mark.parametrize("column,value", [("fw_percent", "nan"), ("fw_percent", "inf"),
                                          ("mac_ratio", "nan"), ("mac_ratio", "-inf")])
def test_speedup_rejects_non_finite_values(tmp_path, column, value):
    """An infinite gain keeps a kernel's mean gain infinite while one of its
    subblocks keeps it, so an acceleration floor would demote all the others;
    a row holding a NaN or an infinity fails to load."""
    path = tmp_path / "speedup.csv"
    cal.save_speedup(cal.SpeedupProfile(
        [cal.ProfileEntry("single", "symmetric", w, 48, 10.0 * w, float(w), 5)
         for w in (2, 3, 4)]), path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[cal.SPEEDUP_HEADER.index(column)] = value
    lines[3] = ",".join(fields)
    path.write_text("".join(lines))
    with pytest.raises(TableFormatError) as exc:
        cal.load_speedup(path)
    assert f"{path}, line 4: bad {column} value '{value}'" in str(exc.value)


def test_amplitude_sweep_reproduces_reference_grid():
    grid = [packing.compute_rmax(1.0, 1.0, 288, a, b)
            for a, b in cal.amplitude_sweep()]
    assert grid[0] == 6336 and grid[-1] == 6336 * 63
    # smaller tile sides keep the amplitude geometry; R_max scales with L
    grid48 = [packing.compute_rmax(1.0, 1.0, 48, a, b)
              for a, b in cal.amplitude_sweep()]
    assert grid48 == [g // 6 for g in grid]
    assert repr(cal.amplitude_sweep()) == repr([(22, int(b)) for b in range(1, 64)])


def test_log_sigma_grid_shape():
    g = cal.log_sigma_grid()
    assert g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(1e3)
    assert len(g) == 41
    ratios = [g[i + 1] / g[i] for i in range(len(g) - 1)]
    assert all(r == pytest.approx(10 ** 0.125) for r in ratios)
    for per_decade in (1, 2, 8, 13):  # the grid of the default lo=1e-2 and hi=1e3, bitwise
        lo, hi = 1e-2, 1e3
        n = int(round(math.log10(hi / lo) * per_decade)) + 1
        assert repr(cal.log_sigma_grid(per_decade=per_decade)) == \
            repr([lo * 10.0 ** (i / per_decade) for i in range(n)])
