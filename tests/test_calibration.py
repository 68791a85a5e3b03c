import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdgemm import calibration as cal, packing
from tdgemm.config import u_sys_of
from tdgemm.errors import CalibrationMissingError, InvalidConfigError, TableFormatError
from tdgemm.noise import CompanderSolution

SMALL_SWEEP = [(2, b) for b in (1, 2, 4, 8, 16)]


@pytest.fixture(scope="module")
def small_table():
    t = cal.CalibrationTable()
    for mode in packing.MODES:
        t.extend(cal.measure_repr_noise(12, "single", mode, 2,
                                        sweep=SMALL_SWEEP, trials=3, seed=5))
    return t


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

    def test_w1_rejected(self):
        with pytest.raises(InvalidConfigError):
            cal.measure_repr_noise(12, "single", "symmetric", 1)

    def test_admission_filters_bias_and_cap(self):
        t = cal.CalibrationTable()
        t.add(cal.CalibEntry("double", "symmetric", 4, 1000, 0.0, 1.0, 5, 0))
        t.add(cal.CalibEntry("double", "symmetric", 4, 2000, 5.0, 9.0, 5, 0))  # biased
        t.add(cal.CalibEntry("double", "symmetric", 4, 200000, 0.0, 2.0, 5, 0))
        good = t.admitted("double", "symmetric", 4,
                          rmax_cap=cal.DEFAULT_RMAX_CAPS[("double", 4)])
        assert [e.rmax for e in good] == [1000]


class TestSpeedupProfile:
    def test_w1_gain_zero(self):
        assert cal.SpeedupProfile().fw("single", "symmetric", 1) == 0.0

    def test_profile_measurement(self):
        p = cal.measure_speedup_profile(48, "single", "symmetric", w_set=(2,),
                                        repetitions=3, seed=1)
        e = p.entries[0]
        assert e.mac_ratio == 2.0 and e.L == 48 and e.reps == 3

    def test_missing_entry(self):
        with pytest.raises(CalibrationMissingError):
            cal.SpeedupProfile().fw("single", "symmetric", 2)


class TestSolutions:
    def _solutions(self, small_table):
        return cal.build_offline_solutions(
            [(1.0, 1.0), (4.0, 2.0)], small_table, "single", "symmetric", 12, w_set=(2,)
        )

    def test_one_point_grid(self, small_table):
        t = cal.build_offline_solutions([(2.0, 2.0)], small_table,
                                        "single", "symmetric", 12, w_set=(2,))
        assert len(t.rows) == 1 and t.rows[0].solution.w == 2

    def test_grid_point_lookup_exact(self, small_table):
        t = self._solutions(small_table)
        sol = cal.lookup_nearest_solution(t, 4.0, 2.0, 2)
        assert sol == t.rows[1].solution

    def test_tie_goes_to_earlier_row(self, small_table):
        t = self._solutions(small_table)
        # (2.5, 1.5) is equidistant from both grid points
        assert cal.lookup_nearest_solution(t, 2.5, 1.5, 2) == t.rows[0].solution

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=25)
    def test_nearest_beats_all_rows(self, sa, sb):
        rows = [
            cal.SolutionRow(x, y, CompanderSolution(1.0, 1.0, 100, 0.0, 2))
            for x in (0.5, 2.0, 8.0) for y in (0.5, 2.0, 8.0)
        ]
        t = cal.OfflineSolutionTable(rows=rows)
        got = cal.lookup_nearest_solution(t, sa, sb, 2)
        picked = next(r for r in rows if r.solution is got)
        d = (sa - picked.sigma_a) ** 2 + (sb - picked.sigma_b) ** 2
        for r in rows:
            assert d <= (sa - r.sigma_a) ** 2 + (sb - r.sigma_b) ** 2 + 1e-12

    def test_missing_w(self, small_table):
        with pytest.raises(CalibrationMissingError):
            cal.lookup_nearest_solution(self._solutions(small_table), 1.0, 1.0, 3)


def _scan_nearest(table, sigma_a, sigma_b, w):
    """The linear scan the indexed lookup replaced, kept as its oracle."""
    best = None
    best_d = None
    for row in table.rows:
        if row.solution.w != w:
            continue
        d = (sigma_a - row.sigma_a) ** 2 + (sigma_b - row.sigma_b) ** 2
        if best_d is None or d < best_d:
            best, best_d = row, d
    if best is None:
        raise CalibrationMissingError(f"solution table has no entries for W={w}")
    return best.solution


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


def _solution_rows(specs, start=0):
    # a distinct solution per row, so the returned object names the row
    return [cal.SolutionRow(sa, sb, CompanderSolution(1.0, 1.0, start + i, 0.0, w))
            for i, (sa, sb, w) in enumerate(specs)]


def _query(data, rows):
    """A free query, or the midpoint of two rows of the same W."""
    a = data.draw(st.sampled_from(rows))
    b = data.draw(st.sampled_from([r for r in rows if r.solution.w == a.solution.w]))
    free = (data.draw(_QUERY_SIGMA), data.draw(_QUERY_SIGMA))
    mid = ((a.sigma_a + b.sigma_a) / 2, (a.sigma_b + b.sigma_b) / 2)
    return data.draw(st.sampled_from([free, mid])), a.solution.w


class TestSolutionIndex:
    def _check(self, table, sa, sb, w):
        try:
            want = _scan_nearest(table, sa, sb, w)
        except CalibrationMissingError:
            with pytest.raises(CalibrationMissingError):
                cal.lookup_nearest_solution(table, sa, sb, w)
            return
        assert cal.lookup_nearest_solution(table, sa, sb, w) is want

    @given(_ROWS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, specs, data):
        rows = _solution_rows(specs)
        table = cal.OfflineSolutionTable(rows=list(rows))
        for _ in range(4):
            (sa, sb), w = _query(data, rows)
            self._check(table, sa, sb, w)
            self._check(table, sa, sb, data.draw(st.sampled_from([2, 3, 4, 5])))

    @given(_ROWS, _ROWS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_sees_rows_appended_after_a_lookup(self, first, extra, data):
        table = cal.OfflineSolutionTable(rows=_solution_rows(first))
        (sa, sb), w = _query(data, table.rows)
        self._check(table, sa, sb, w)
        table.rows.extend(_solution_rows(extra, start=len(first)))
        (sa, sb), w = _query(data, table.rows)
        self._check(table, sa, sb, w)
        for new_w in (2, 3, 4):
            self._check(table, sa, sb, new_w)

    def test_duplicate_rows_earlier_wins(self):
        rows = _solution_rows([(1.0, 1.0, 2), (3.0, 1.0, 2), (1.0, 1.0, 2), (3.0, 1.0, 2)])
        table = cal.OfflineSolutionTable(rows=rows)
        assert cal.lookup_nearest_solution(table, 1.0, 1.0, 2) is rows[0].solution
        assert cal.lookup_nearest_solution(table, 3.0, 1.0, 2) is rows[1].solution
        # halfway between the duplicates: the first row of all four wins
        assert cal.lookup_nearest_solution(table, 2.0, 1.0, 2) is rows[0].solution

    def test_nan_query_returns_first_row_of_w(self):
        rows = _solution_rows([(1.0, 1.0, 3), (5.0, 5.0, 2), (0.5, 0.5, 2)])
        table = cal.OfflineSolutionTable(rows=rows)
        for sa, sb in ((math.nan, 1.0), (1.0, math.nan), (math.inf, -math.inf)):
            assert cal.lookup_nearest_solution(table, sa, sb, 2) is rows[1].solution

    def test_nan_distance_never_displaces_a_row(self):
        rows = _solution_rows([(1.0, 1.0, 2), (math.inf, 1.0, 2)])
        table = cal.OfflineSolutionTable(rows=rows)
        # inf - inf is NaN for the second row; the scan keeps the first
        assert cal.lookup_nearest_solution(table, math.inf, 1.0, 2) is rows[0].solution
        # nor is a NaN distance on the first row, even by an exact match
        rows = _solution_rows([(math.nan, 1.0, 2), (1.0, 1.0, 2)])
        table = cal.OfflineSolutionTable(rows=rows)
        assert cal.lookup_nearest_solution(table, 1.0, 1.0, 2) is rows[0].solution

    def test_sees_replaced_row_list(self):
        table = cal.OfflineSolutionTable(rows=_solution_rows([(1.0, 1.0, 2)]))
        cal.lookup_nearest_solution(table, 1.0, 1.0, 2)
        table.rows = _solution_rows([(2.0, 2.0, 2)], start=1)
        assert cal.lookup_nearest_solution(table, 1.0, 1.0, 2) is table.rows[0].solution


class TestArrayLookup:
    @given(_ROWS, st.data(), st.integers(1, 40), st.sampled_from([1, 3, 7, 64, 1 << 15]))
    @settings(max_examples=100, deadline=None)
    def test_matches_linear_scan(self, specs, data, n, chunk):
        """Many queries in one call, over chunks that need not divide them."""
        rows = _solution_rows(specs)
        table = cal.OfflineSolutionTable(rows=rows)
        w = data.draw(st.sampled_from(sorted({r.solution.w for r in rows})))
        queries = [_query(data, [r for r in rows if r.solution.w == w])[0] for _ in range(n)]
        with mock.patch.object(cal, "_LOOKUP_CHUNK", chunk):
            got = cal.lookup_nearest_solution(table, [q[0] for q in queries],
                                              [q[1] for q in queries], w)
        assert got.w == w and got.rmax.shape == (n,)
        for k, (sa, sb) in enumerate(queries):
            want = _scan_nearest(table, sa, sb, w)
            # rmax is distinct per row, so it names the row
            assert (got.rmax[k], got.c_a[k], got.c_b[k], got.expected_snr_db[k]) == \
                (want.rmax, want.c_a, want.c_b, want.expected_snr_db)

    def test_query_shape_and_broadcast(self):
        rows = _solution_rows([(1.0, 1.0, 2), (4.0, 4.0, 2), (9.0, 1.0, 3)])
        table = cal.OfflineSolutionTable(rows=rows)
        got = cal.lookup_nearest_solution(table, np.array([[0.0, 5.0], [3.0, 1.5]]), 2.0, 2)
        # (3, 2) is equidistant from both rows of W=2: the earlier one wins
        assert got.rmax.tolist() == [[0, 1], [0, 0]]
        assert got.c_a.shape == got.expected_snr_db.shape == (2, 2)

    def test_loaded_table_matches_built_table(self, tmp_path):
        rows = _solution_rows([(1.0, 1.0, 2), (4.0, 4.0, 2), (9.0, 1.0, 3), (2.0, 3.0, 3)])
        path = tmp_path / "s.csv"
        cal.save_solutions(cal.OfflineSolutionTable(rows=rows), path)
        loaded = cal.load_solutions(path)
        assert loaded.ws() == [2, 3]
        for w in (2, 3):
            got = cal.lookup_nearest_solution(loaded, [0.5, 3.0, 8.0], [0.5, 3.0, 1.0], w)
            want = [cal.lookup_nearest_solution(cal.OfflineSolutionTable(rows=rows), sa, sb, w)
                    for sa, sb in ((0.5, 0.5), (3.0, 3.0), (8.0, 1.0))]
            assert got.rmax.tolist() == [s.rmax for s in want]
        # scalar lookups of a loaded table return its row objects, built on demand
        assert cal.lookup_nearest_solution(loaded, 9.0, 1.0, 3) is loaded.rows[2].solution
        assert loaded.rows == rows


class TestCalibrationLookup:
    @staticmethod
    def _entry(rmax, rmse, w=2):
        return cal.CalibEntry("single", "symmetric", w, rmax, 0.0, rmse, 3, 0)

    def test_duplicate_key_first_wins(self):
        first, dup = self._entry(100, 1.0), self._entry(100, 2.0)
        t = cal.CalibrationTable(entries=[self._entry(50, 0.5), first, dup])
        assert t.lookup("single", "symmetric", 2, 100) is first

    def test_add_after_lookup_is_seen(self):
        t = cal.CalibrationTable()
        t.add(self._entry(100, 1.0))
        t.lookup("single", "symmetric", 2, 100)
        late = self._entry(200, 2.0)
        t.add(late)
        assert t.lookup("single", "symmetric", 2, 200) is late

    def test_extend_after_lookup_is_seen(self):
        t = cal.CalibrationTable(entries=[self._entry(100, 1.0)])
        t.lookup("single", "symmetric", 2, 100)
        late = [self._entry(300, 3.0), self._entry(100, 9.0, w=3)]
        t.extend(late)
        assert t.lookup("single", "symmetric", 2, 300) is late[0]
        assert t.lookup("single", "symmetric", 3, 100) is late[1]

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
        assert cal.load_solutions(p).rows == t.rows

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
    """A saved table of each kind, with its loader and a numeric column of
    each type (integer, float)."""
    path = tmp_path / f"{request.param}.csv"
    if request.param == "calibration":
        cal.save_calibration(small_table, path)
        return path, cal.load_calibration, ("rmax", "rmse")
    if request.param == "speedup":
        cal.save_speedup(cal.SpeedupProfile(
            [cal.ProfileEntry("single", "symmetric", w, 48, 10.0 * w, float(w), 5)
             for w in (2, 3, 4)]), path)
        return path, cal.load_speedup, ("W", "fw_percent")
    cal.save_solutions(cal.build_offline_solutions(
        [(1.0, 3.0), (2.0, 2.0), (4.0, 1.0)], small_table, "single", "symmetric", 12,
        w_set=(2,)), path)
    return path, cal.load_solutions, ("rmax", "sigma_b")


def _entries(table):
    return table.rows if isinstance(table, cal.OfflineSolutionTable) else table.entries


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
        path, load, _cols = table_file
        before = _entries(load(path))
        self._rewrite(path)
        assert _entries(load(path)) == before

    @pytest.mark.parametrize("kind", ["int", "float", "short", "long"])
    def test_error_names_file_and_line(self, table_file, kind):
        path, load, (int_col, float_col) = table_file

        def edit(header, row):
            if kind == "short":
                return row[:3]
            if kind == "long":
                return row + ["1"]
            row = list(row)
            row[header.index(int_col if kind == "int" else float_col)] = "abc"
            return row

        self._rewrite(path, edit)
        with pytest.raises(TableFormatError) as exc:
            load(path)
        assert f"{path}, line 5:" in str(exc.value)
        if kind in ("int", "float"):
            assert (int_col if kind == "int" else float_col) in str(exc.value)


def test_amplitude_sweep_reproduces_reference_grid():
    grid = [packing.compute_rmax(1.0, 1.0, 288, a, b)
            for a, b in cal.amplitude_sweep(288)]
    assert grid[0] == 6336 and grid[-1] == 6336 * 63
    # smaller tile sides keep the amplitude geometry; R_max scales with L
    grid48 = [packing.compute_rmax(1.0, 1.0, 48, a, b)
              for a, b in cal.amplitude_sweep(48)]
    assert grid48 == [g // 6 for g in grid]


def test_log_sigma_grid_shape():
    g = cal.log_sigma_grid()
    assert g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(1e3)
    assert len(g) == 41
    ratios = [g[i + 1] / g[i] for i in range(len(g) - 1)]
    assert all(r == pytest.approx(10 ** 0.125) for r in ratios)
