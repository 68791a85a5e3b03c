import csv
import json
import math

import numpy as np
import pytest

from tdgemm import cli, matrixio
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

    def test_csv_round_trip(self, tmp_path):
        m = np.array([[1.5, -2.0], [0.25, 3.0]])
        matrixio.save_matrix_csv(m, tmp_path / "m.csv")
        np.testing.assert_array_equal(matrixio.load_matrix_csv(tmp_path / "m.csv"), m)


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

    def test_missing_tables_exit_code(self, workdir, tmp_path):
        code = cli.main(["--l", str(L), "--tables", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "o"), "multiply",
                         str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                         "--snr-db", "30"])
        assert code == 1


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
        """Recorded from the sweep that rebuilt tile stats and options on every
        step: computing them once must not change a byte of these columns."""
        out = workdir / "recorded"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "--seed", "5", "sweep", "--blocks", "3"]) == 0
        got = [(r["accel_pct"], r["measured_snr_db"], r["mac_ratio"])
               for r in _read_sweep(out / "sweep.csv")]
        assert got == [
            ("0", "inf", "1.0"),
            ("10", "43.70776844263397", "1.0588235294117647"),
            ("20", "39.37443203102787", "1.125"),
            ("30", "38.111401380467534", "1.2"),
            ("40", "37.98399051630056", "1.2857142857142858"),
            ("50", "37.98399051630056", "1.2857142857142858"),
            ("60", "37.71513626753409", "1.3846153846153846"),
            ("70", "37.60641531102553", "1.5"),
            ("80", "36.14817480200402", "1.6363636363636365"),
            ("90", "34.90659960696709", "1.8"),
            ("100", "34.46857178708642", "2.0"),
        ]
