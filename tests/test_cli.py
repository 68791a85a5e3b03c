import csv
import json
import math

import numpy as np
import pytest

from tdgemm import calibration, cli, matrixio
from tdgemm.blocking import tiered_gemm
from tdgemm.errors import TableFormatError

L = 12


def run(tmp_path, *argv):
    return cli.main(["--l", str(L), "--tables", str(tmp_path / "tables"),
                     "--out", str(tmp_path / "out"), *argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Calibration + solution tables built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    tables = str(root / "tables")
    assert cli.main(["--l", str(L), "--out", tables,
                     "calibrate", "--w", "2", "--trials", "2"]) == 0
    assert cli.main(["--l", str(L), "--tables", tables, "--out", tables,
                     "solutions", "--w", "2", "--per-decade", "1"]) == 0
    rng = np.random.default_rng(40)
    a = rng.uniform(-8, 8, size=(2 * L, 2 * L)).astype(np.float32)
    b = rng.uniform(-8, 8, size=(2 * L, 2 * L)).astype(np.float32)
    matrixio.save_matrix(a, root / "a.tgmm")
    matrixio.save_matrix(b, root / "b.tgmm")
    return root


class TestMatrixIO:
    def test_binary_round_trip(self, tmp_path):
        m = np.random.default_rng(41).normal(size=(3, 5)).astype(np.float32)
        matrixio.save_matrix(m, tmp_path / "m.tgmm")
        np.testing.assert_array_equal(matrixio.load_matrix(tmp_path / "m.tgmm"), m)

    def test_double_round_trip(self, tmp_path):
        m = np.random.default_rng(42).normal(size=(4, 4))
        matrixio.save_matrix(m, tmp_path / "m.tgmm")
        got = matrixio.load_matrix(tmp_path / "m.tgmm")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, m)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.tgmm").write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(TableFormatError):
            matrixio.load_matrix(tmp_path / "bad.tgmm")

    def test_truncated_payload(self, tmp_path):
        m = np.zeros((2, 2), np.float32)
        matrixio.save_matrix(m, tmp_path / "m.tgmm")
        data = (tmp_path / "m.tgmm").read_bytes()
        (tmp_path / "m.tgmm").write_bytes(data[:-4])
        with pytest.raises(TableFormatError):
            matrixio.load_matrix(tmp_path / "m.tgmm")


class TestCalibrateCommand:
    def test_deterministic_rerun(self, tmp_path):
        for sub in ("one", "two"):
            assert cli.main(["--l", str(L), "--out", str(tmp_path / sub),
                             "calibrate", "--w", "2", "--trials", "2"]) == 0
        a = (tmp_path / "one" / "calibration.csv").read_bytes()
        b = (tmp_path / "two" / "calibration.csv").read_bytes()
        assert a == b

    def test_manifest_written(self, workdir):
        manifest = json.loads((workdir / "tables" / "calibrate_manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        assert manifest["tool_version"]

    def test_manifest_records_blas_build(self, workdir):
        """Packed outputs are reproducible from (seed, flags, inputs, BLAS build)."""
        build = json.loads((workdir / "tables" / "calibrate_manifest.json").read_text())["build"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert build == {"numpy": np.__version__, "blas": blas["name"],
                         "blas_version": blas["version"]}


class TestMultiplyCommand:
    def test_plain_matches_reference(self, workdir, tmp_path):
        out = tmp_path / "plain"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--plain"]) == 0
        got = matrixio.load_matrix(out / "result.tgmm")
        a = matrixio.load_matrix(workdir / "a.tgmm")
        b = matrixio.load_matrix(workdir / "b.tgmm")
        np.testing.assert_array_equal(got, tiered_gemm(a, b, L))

    def test_huge_snr_target_is_plain(self, workdir, tmp_path):
        out = tmp_path / "snr1000"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--snr-db", "1000"]) == 0
        got = matrixio.load_matrix(out / "result.tgmm")
        a = matrixio.load_matrix(workdir / "a.tgmm")
        b = matrixio.load_matrix(workdir / "b.tgmm")
        np.testing.assert_array_equal(got, tiered_gemm(a, b, L))

    def test_verify_within_model_tolerance(self, workdir, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--snr-db", "25", "--verify"]) == 0
        report = json.loads((out / "multiply_report.json").read_text())
        assert report["model_gap_db"] <= 1.5
        assert report["measured_snr_db"] >= 25.0 - 1.5

    def test_report_counts_exact_subblocks(self, workdir, tmp_path):
        def report(tables, out):
            assert cli.main(["--l", str(L), "--tables", str(tables), "--out", str(out),
                             "multiply", str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                             "--accel-percent", "100"]) == 0
            return json.loads((out / "multiply_report.json").read_text())

        # the CLI tables plan rmax=16632, beyond exact_packing_limit for W=2
        wide = report(workdir / "tables", tmp_path / "wide")
        assert wide["w_histogram"] == {"2": 8}
        assert wide["exact_subblocks"] == 0
        # a table holding only rmax=264 (W_ef=3, exact_packing_limit 2) plans
        # every packed subblock inside the exact region
        tables = tmp_path / "narrow_tables"
        tables.mkdir()
        calibration.save_calibration(
            calibration.CalibrationTable(calibration.measure_repr_noise(
                L, "single", "symmetric", 2, sweep=[(22, 1)], trials=2)),
            tables / "calibration.csv")
        narrow = report(tables, tmp_path / "narrow")
        assert narrow["w_histogram"] == {"2": 8}
        assert narrow["exact_subblocks"] == 8

    def test_infeasible_acceleration_exit_code(self, workdir, tmp_path):
        out = tmp_path / "inf"
        code = cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--accel-percent", "100000"])
        assert code == 2

    @pytest.mark.parametrize("operand,bad,row,col",
                             [("a", math.nan, 1, 2), ("b", math.inf, 3, 0)])
    def test_non_finite_input_exit_code(self, workdir, tmp_path, capsys,
                                        operand, bad, row, col):
        paths = {"a": workdir / "a.tgmm", "b": workdir / "b.tgmm"}
        m = matrixio.load_matrix(paths[operand]).copy()
        m[row, col] = bad
        m[row + 1, col] = bad  # only the first bad entry is named
        paths[operand] = tmp_path / f"bad_{operand}.tgmm"
        matrixio.save_matrix(m, paths[operand])
        out = tmp_path / "nonfinite"
        code = cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(paths["a"]), str(paths["b"]),
                         "--snr-db", "30"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(paths[operand]) in err
        assert f"at row {row}, column {col}" in err
        assert not (out / "result.tgmm").exists()

    @pytest.mark.parametrize("flag", ["--snr-db", "--accel-percent"])
    def test_nan_target_exit_code(self, workdir, tmp_path, capsys, flag):
        out = tmp_path / "nan"
        code = cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), flag, "nan"])
        assert code == 1
        assert "NaN" in capsys.readouterr().err
        assert not (out / "result.tgmm").exists()

    def test_report_has_stage_timings(self, workdir, tmp_path):
        for flag in (["--snr-db", "30"], ["--plain"]):
            out = tmp_path / flag[0].strip("-")
            assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                             "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                             str(workdir / "b.tgmm"), *flag]) == 0
            report = json.loads((out / "multiply_report.json").read_text())
            timings = report["timings"]
            assert sorted(timings) == ["execute_s", "load_tables_s", "plan_s"]
            assert all(v >= 0.0 for v in timings.values())
            assert sum(timings.values()) <= report["wallclock_s"] * (1 + 1e-9)
            if flag == ["--plain"]:
                assert timings["load_tables_s"] == timings["plan_s"] == 0.0

    def test_malformed_table_exit_code(self, workdir, tmp_path, capsys):
        tables = tmp_path / "tables"
        tables.mkdir()
        path = tables / "calibration.csv"
        path.write_bytes((workdir / "tables" / "calibration.csv").read_bytes())
        lines = path.read_bytes().splitlines(keepends=True)
        fields = lines[3].split(b",")
        fields[3] = b"abc"  # rmax of the second data row, on line 4
        lines[3] = b",".join(fields)
        path.write_bytes(b"".join(lines))
        code = cli.main(["--l", str(L), "--tables", str(tables), "--out", str(tmp_path / "o"),
                         "multiply", str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                         "--snr-db", "30"])
        assert code == 1
        assert f"{path}, line 4: bad rmax value 'abc'" in capsys.readouterr().err

    def test_solution_table_is_not_read(self, workdir, tmp_path):
        """Without ``solutions.csv`` a multiply plans and computes what it does
        with it."""
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "calibration.csv").write_bytes(
            (workdir / "tables" / "calibration.csv").read_bytes())
        outputs = []
        for tag, tables_dir in (("with", workdir / "tables"), ("without", tables)):
            out = tmp_path / tag
            assert cli.main(["--l", str(L), "--tables", str(tables_dir), "--out", str(out),
                             "multiply", str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                             "--snr-db", "30"]) == 0
            outputs.append([(out / name).read_bytes() for name in ("plan.csv", "result.tgmm")])
        assert outputs[0] == outputs[1]

    def test_uncalibrated_mode_exit_code(self, workdir, tmp_path, capsys):
        """The tables hold symmetric curves only: an asymmetric multiply fails
        and names the pair, rather than planning every subblock plain."""
        code = cli.main(["--l", str(L), "--mode", "asymmetric", "--tables",
                         str(workdir / "tables"), "--out", str(tmp_path / "o"), "multiply",
                         str(workdir / "a.tgmm"), str(workdir / "b.tgmm"), "--snr-db", "30"])
        assert code == 1
        assert "(single, asymmetric)" in capsys.readouterr().err
        assert not (tmp_path / "o" / "result.tgmm").exists()

    def test_missing_tables_exit_code(self, workdir, tmp_path):
        code = cli.main(["--l", str(L), "--tables", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "o"), "multiply",
                         str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                         "--snr-db", "30"])
        assert code == 1


class TestNoFullInnerTile:
    """k < L: no subblock to plan, so every output kernel is planned empty
    and computed as a border product."""

    @pytest.fixture
    def short(self, workdir, tmp_path):
        rng = np.random.default_rng(41)
        a = rng.uniform(-8, 8, size=(2 * L, L - 2)).astype(np.float32)
        b = rng.uniform(-8, 8, size=(L - 2, 2 * L)).astype(np.float32)
        matrixio.save_matrix(a, tmp_path / "a.tgmm")
        matrixio.save_matrix(b, tmp_path / "b.tgmm")

        def multiply(*flag):
            return cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                             "--out", str(tmp_path / "out"), "multiply",
                             str(tmp_path / "a.tgmm"), str(tmp_path / "b.tgmm"), *flag])
        return a, b, tmp_path / "out", multiply

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flag", [("--snr-db", "30"), ("--accel-percent", "0")])
    def test_plans_nothing_and_multiplies_plainly(self, short, flag):
        a, b, out, multiply = short
        assert multiply(*flag) == 0
        np.testing.assert_array_equal(matrixio.load_matrix(out / "result.tgmm"),
                                      tiered_gemm(a, b, L))
        assert json.loads((out / "multiply_report.json").read_text())["w_histogram"] == {}
        assert (out / "plan.csv").read_text().splitlines()[1:] == ["i,j,l,W,c_a,c_b,rmax,d_hat"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_positive_acceleration_floor_is_infeasible(self, short):
        *_, out, multiply = short
        assert multiply("--accel-percent", "10") == 2
        assert not (out / "result.tgmm").exists()


def _read_sweep(path):
    with open(path) as f:
        assert f.readline().startswith("# version")
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def sweep_rows(workdir):
    out = workdir / "sweep"
    assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                     "--out", str(out), "sweep", "--blocks", "2"]) == 0
    return _read_sweep(out / "sweep.csv")


class TestSweepCommand:
    def test_eleven_points(self, sweep_rows):
        assert [int(r["accel_pct"]) for r in sweep_rows] == list(range(0, 101, 10))

    def test_zero_point_sentinels(self, sweep_rows):
        assert sweep_rows[0]["measured_snr_db"] == "inf"
        assert float(sweep_rows[0]["mac_ratio"]) == 1.0

    def test_snr_monotone_nonincreasing(self, sweep_rows):
        snrs = [float(r["measured_snr_db"]) for r in sweep_rows]
        for lo, hi in zip(snrs[1:], snrs[:-1]):
            assert lo <= hi + 1e-9

    def test_mac_ratio_monotone(self, sweep_rows):
        ratios = [float(r["mac_ratio"]) for r in sweep_rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(2.0)

    def test_deterministic_nontiming_columns(self, workdir):
        rows = []
        for sub in ("s1", "s2"):
            out = workdir / sub
            assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                             "--out", str(out), "sweep", "--blocks", "2"]) == 0
            rows.append([
                {k: v for k, v in r.items() if k != "wallclock_ratio"}
                for r in _read_sweep(out / "sweep.csv")
            ])
        assert rows[0] == rows[1]

    def test_nontiming_columns_match_recorded_run(self, workdir):
        """Recorded from the sweep with packed products on BLAS: ``mac_ratio``
        is unchanged since the sweep first ran, ``measured_snr_db`` was
        re-recorded when packed products moved off the order-matched loop.
        Outside the exact region packed bits depend on the BLAS build; these
        were recorded with OpenBLAS 0.3.31."""
        out = workdir / "recorded"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "--seed", "5", "sweep", "--blocks", "3"]) == 0
        got = [(r["accel_pct"], r["measured_snr_db"], r["mac_ratio"])
               for r in _read_sweep(out / "sweep.csv")]
        assert got == [
            ("0", "inf", "1.0"),
            ("10", "43.665342184386866", "1.0588235294117647"),
            ("20", "39.360693837967574", "1.125"),
            ("30", "38.093908195803756", "1.2"),
            ("40", "37.960254959643464", "1.2857142857142858"),
            ("50", "37.960254959643464", "1.2857142857142858"),
            ("60", "37.684982846246754", "1.3846153846153846"),
            ("70", "37.575847522896495", "1.5"),
            ("80", "36.12973052356393", "1.6363636363636365"),
            ("90", "34.89861303104303", "1.8"),
            ("100", "34.45155120456673", "2.0"),
        ]
