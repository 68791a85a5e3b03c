import csv
import hashlib
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tdgemm import calibration, cli, matrixio
from tdgemm.blocking import tiered_gemm
from tdgemm.errors import InvalidConfigError, TableFormatError

L = 12


def assert_multiply_product(got, a, b):
    """An unpacked multiply's result: bitwise the plain product on the BLAS
    backend it runs, and within twice the float32 dot-product bound
    gamma_k |A||B| of the order-matched reference, each side being within
    gamma_k of the exact product."""
    np.testing.assert_array_equal(got, tiered_gemm(a, b, L, backend="blas"))
    k = a.shape[1]
    gamma = k * 2.0 ** -24 / (1 - k * 2.0 ** -24)
    bound = 2 * gamma * (np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64)))
    assert (np.abs(got.astype(np.float64) - tiered_gemm(a, b, L)) <= bound).all()


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

    @pytest.mark.parametrize("m", [np.zeros((2, 2, 2), np.float32), np.zeros((2, 2), np.int32)])
    def test_unsavable_array_writes_no_file(self, tmp_path, m):
        with pytest.raises((TableFormatError, InvalidConfigError)):
            matrixio.save_matrix(m, tmp_path / "m.tgmm")
        assert not (tmp_path / "m.tgmm").exists()

    def test_long_payload(self, tmp_path):
        """The payload's size comes from the file, not from one read of the
        size the header gives: extra bytes are an error."""
        matrixio.save_matrix(np.zeros((2, 2), np.float32), tmp_path / "m.tgmm")
        with open(tmp_path / "m.tgmm", "ab") as f:
            f.write(b"\0" * 4)
        with pytest.raises(TableFormatError, match="payload is 20 bytes, expected 16$"):
            matrixio.load_matrix(tmp_path / "m.tgmm")

    def test_header_alone_never_sizes_a_read(self, tmp_path):
        """A header claiming 2^67 bytes fails as a format error, not an allocation."""
        head = matrixio._HEADER.pack(matrixio.MAGIC, 2 ** 32 - 1, 2 ** 32 - 1, 1)
        (tmp_path / "m.tgmm").write_bytes(head + b"\0" * 8)
        with pytest.raises(TableFormatError, match="payload is 8 bytes"):
            matrixio.load_matrix(tmp_path / "m.tgmm")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_payload_from_a_pipe(self, tmp_path):
        """A pipe has no size to stat: its payload is sized by reading it."""
        m = np.arange(12, dtype=np.float32).reshape(3, 4)
        matrixio.save_matrix(m, tmp_path / "m.tgmm")
        os.mkfifo(tmp_path / "fifo")
        writer = threading.Thread(target=(tmp_path / "fifo").write_bytes,
                                  args=((tmp_path / "m.tgmm").read_bytes(),), daemon=True)
        writer.start()
        try:
            got = matrixio.load_matrix(tmp_path / "fifo")
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(got, m)

    @given(st.sampled_from([np.float32, np.float64]), st.integers(0, 4), st.integers(1, 4),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bits(self, tmp_path_factory, dtype, rows, cols, transposed, seed):
        """Every bit, NaN payloads included, comes back in a C-contiguous array
        of native byte order, whatever the layout of the array saved."""
        bits = np.random.default_rng(seed).bytes(rows * cols * np.dtype(dtype).itemsize)
        m = np.frombuffer(bits, dtype=dtype).reshape(rows, cols)
        m = m.T.copy().T if transposed else m
        path = tmp_path_factory.mktemp("rt") / "m.tgmm"
        matrixio.save_matrix(m, path)
        got = matrixio.load_matrix(path)
        assert got.dtype == dtype and got.dtype.isnative and got.flags.c_contiguous
        assert got.shape == (rows, cols) and got.tobytes() == np.ascontiguousarray(m).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_digest_of_loaded_array_is_the_files(self, tmp_path, dtype):
        m = np.random.default_rng(43).normal(size=(3, 5)).astype(dtype)
        matrixio.save_matrix(m, tmp_path / "m.tgmm")
        want = hashlib.sha256((tmp_path / "m.tgmm").read_bytes()).hexdigest()
        assert matrixio.matrix_sha256(matrixio.load_matrix(tmp_path / "m.tgmm")) == want
        assert matrixio.matrix_sha256(np.asfortranarray(m)) == want

    def test_multiply_manifest_digests_are_the_files(self, workdir, tmp_path):
        out = tmp_path / "digests"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--snr-db", "30"]) == 0
        manifest = json.loads((out / "multiply_manifest.json").read_text())
        assert manifest["input_digests"] == {
            str(workdir / name): hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in ("a.tgmm", "b.tgmm")}

    def test_empty_matrix_is_finite(self, tmp_path):
        matrixio.save_matrix(np.zeros((0, 3), np.float32), tmp_path / "m.tgmm")
        assert cli._load_finite_matrix(tmp_path / "m.tgmm").shape == (0, 3)


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


def test_commands_in_one_process_parse_their_own_flags(tmp_path):
    """One parser serves every call in a process; no call sees another's flags."""
    assert cli.build_parser() is cli.build_parser()
    tables, out = tmp_path / "tables", tmp_path / "out"
    assert cli.main(["--seed", "3", "--l", str(L), "--out", str(tables),
                     "calibrate", "--w", "2", "--trials", "2"]) == 0
    a = np.random.default_rng(44).uniform(-8, 8, size=(2 * L, 2 * L)).astype(np.float32)
    matrixio.save_matrix(a, tmp_path / "a.tgmm")
    assert cli.main(["--l", str(L), "--tables", str(tables), "--out", str(out), "multiply",
                     str(tmp_path / "a.tgmm"), str(tmp_path / "a.tgmm"), "--plain"]) == 0
    calibrated = json.loads((tables / "calibrate_manifest.json").read_text())
    multiplied = json.loads((out / "multiply_manifest.json").read_text())
    assert (calibrated["command"], calibrated["seed"]) == ("calibrate", 3)
    assert (multiplied["command"], multiplied["seed"]) == ("multiply", 0)
    assert {e.w for e in calibration.load_calibration(tables / "calibration.csv").entries} == {2}
    assert_multiply_product(matrixio.load_matrix(out / "result.tgmm"), a, a)
    args = cli.build_parser().parse_args(["calibrate"])
    assert (args.w, args.trials, args.seed, args.func) == ([2, 3, 4], 5, 0, cli.cmd_calibrate)


@pytest.mark.parametrize("argv, message", [
    (["profile", "--w", "0"], "--w must be >= 1, got 0"),
    (["profile", "--w", "5"], "--w: no W of [5] divides L=12"),
    (["solutions", "--w", "0"], "--w must be >= 1, got 0"),
    (["solutions", "--w", "5"], "--w: no W of [5] divides L=12"),
    (["solutions", "--per-decade", "0"], "--per-decade must be >= 1, got 0"),
    (["sweep", "--sweep-w", "0"], "--sweep-w must be >= 1, got 0"),
    (["sweep", "--sweep-w", "-2"], "--sweep-w must be >= 1, got -2"),
    (["sweep", "--sweep-w", "1"], None),
    (["sweep", "--blocks", "0"], "--blocks must be >= 1, got 0"),
])
def test_w_and_grid_flags_checked_up_front(workdir, tmp_path, capsys, argv, message):
    """A W, grid density or grid side below 1, or a ``--w`` of which no W
    divides L, exits 1 with an error line that names the flag, before any
    output is made. A sweep at W=1 runs plain."""
    out = tmp_path / "o"
    code = cli.main(["--l", str(L), "--tables", str(workdir / "tables"), "--out", str(out),
                     *argv])
    if message is None:
        assert code == 0 and (out / "sweep.csv").exists()
    else:
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("tile_side", [0, -3])
@pytest.mark.parametrize("argv", [["calibrate"], ["profile"], ["solutions"],
                                  ["multiply", "a", "b", "--plain"],
                                  ["multiply", "a", "b", "--snr-db", "20"], ["sweep"]])
def test_tile_side_below_1_rejected(workdir, tmp_path, capsys, argv, tile_side):
    """A ``--l`` below 1 exits 1 with an error line that names the flag,
    whatever the command, before any output is made: no ``result.tgmm``."""
    out = tmp_path / "o"
    argv = [str(workdir / f"{x}.tgmm") if x in "ab" else x for x in argv]
    code = cli.main(["--l", str(tile_side), "--tables", str(workdir / "tables"),
                     "--out", str(out), *argv])
    assert (code, capsys.readouterr().err) == (1, f"error: --l must be >= 1, got {tile_side}\n")
    assert not out.exists()


class TestMultiplyCommand:
    def test_plain_matches_reference(self, workdir, tmp_path):
        out = tmp_path / "plain"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--plain"]) == 0
        got = matrixio.load_matrix(out / "result.tgmm")
        a = matrixio.load_matrix(workdir / "a.tgmm")
        b = matrixio.load_matrix(workdir / "b.tgmm")
        assert_multiply_product(got, a, b)

    def test_huge_snr_target_is_plain(self, workdir, tmp_path):
        out = tmp_path / "snr1000"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--snr-db", "1000"]) == 0
        got = matrixio.load_matrix(out / "result.tgmm")
        a = matrixio.load_matrix(workdir / "a.tgmm")
        b = matrixio.load_matrix(workdir / "b.tgmm")
        assert_multiply_product(got, a, b)

    @pytest.mark.parametrize("verify", [False, True])
    def test_report_is_strict_json_at_infinite_snr(self, workdir, tmp_path, capsys, verify):
        """A +inf floor plans every subblock at W=1, whose model predicts no
        noise, and integer operands multiply exactly on BLAS, so the model
        and, under ``--verify``, the measured and worst-kernel SNRs are
        infinite: each is written as "inf", and the file and stdout parse
        as strict JSON, which has no Infinity or NaN."""
        rng = np.random.default_rng(48)
        for name in ("a", "b"):
            matrixio.save_matrix(rng.integers(-8, 9, size=(2 * L, 2 * L)).astype(np.float32),
                                 tmp_path / f"{name}.tgmm")
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"), "--out", str(out),
                         "multiply", str(tmp_path / "a.tgmm"), str(tmp_path / "b.tgmm"),
                         "--snr-db=inf", *["--verify"] * verify]) == 0

        def strict(text):
            def reject(name):
                raise ValueError(f"not strict JSON: {name}")
            return json.loads(text, parse_constant=reject)

        report = strict((out / "multiply_report.json").read_text())
        assert strict(capsys.readouterr().out) == report
        assert report["w_histogram"] == {"1": 8}
        infinite = {"model_snr_db"} | ({"measured_snr_db", "worst_kernel_snr_db"} if verify
                                       else set())
        assert {k for k, v in report.items() if v == "inf"} == infinite
        assert "model_gap_db" not in report

    def test_verify_within_model_tolerance(self, workdir, tmp_path):
        out = tmp_path / "v"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                         str(workdir / "b.tgmm"), "--snr-db", "25", "--verify"]) == 0
        report = json.loads((out / "multiply_report.json").read_text(),
                            parse_constant=pytest.fail)
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

    @pytest.mark.parametrize("constraint,want", [(("--accel-percent", "100"), 4 * 4 + 4 * 4),
                                                 (("--snr-db", "30"), None)])
    def test_report_counts_the_tiles_quantized(self, workdir, tmp_path, monkeypatch,
                                               constraint, want):
        """``packed_operand_tiles`` is the number of tiles ``tiered_gemm``
        quantizes: each A tile (i, l) and B tile (l, j) once per (W, z, c),
        counted through the stacked quantizer, all before the first product,
        so every ``packed_subblock_product`` call is a memo hit."""
        from tdgemm import packing

        rng = np.random.default_rng(47)
        for name in ("a", "b"):
            matrixio.save_matrix(rng.standard_normal((4 * L, 4 * L)).astype(np.float32),
                                 tmp_path / f"{name}.tgmm")
        calls, inside = [], []  # every tile quantized; per product call, the tiles it quantized
        quantize, product = packing._quantize_into, packing.packed_subblock_product

        def counting(tiles, *args):
            calls.extend([1] * len(tiles))
            return quantize(tiles, *args)

        def counted_product(*args):
            before = len(calls)
            result = product(*args)
            inside.append(len(calls) - before)
            return result

        monkeypatch.setattr(packing, "_quantize_into", counting)
        monkeypatch.setattr(packing, "packed_subblock_product", counted_product)
        out = tmp_path / "o"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"), "--out", str(out),
                         "multiply", str(tmp_path / "a.tgmm"), str(tmp_path / "b.tgmm"),
                         *constraint]) == 0
        report = json.loads((out / "multiply_report.json").read_text())
        packed = sum(n for w, n in report["w_histogram"].items() if w != "1")
        assert 0 < report["packed_operand_tiles"] == len(calls) < 2 * packed
        assert inside == [0] * packed
        if want is not None:
            assert (packed, len(calls)) == (4 ** 3, want)

    @pytest.mark.parametrize("k,n,flags", [(2 * L, 2 * L, ("--snr-db", "30")),
                                           (2 * L, 2 * L, ("--accel-percent", "50")),
                                           (0, 2 * L, ("--snr-db", "30")),
                                           (0, 2 * L, ("--snr-db", "30", "--verify"))])
    def test_empty_operand_writes_the_plain_product(self, workdir, tmp_path, k, n, flags):
        """A planned multiply of an A with no rows, or of operands with no
        inner dimension, plans no subblock and writes the ``--plain``
        product's bytes: the empty product, or the all-zero one that
        ``np.matmul`` gives."""
        m = 0 if k else 2 * L
        rng = np.random.default_rng(49)
        for name, shape in (("a", (m, k)), ("b", (k, n))):
            matrixio.save_matrix(rng.uniform(-8, 8, size=shape).astype(np.float32),
                                 tmp_path / f"{name}.tgmm")
        results = []
        for tag, flag in (("planned", flags), ("plain", ("--plain",))):
            assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                             "--out", str(tmp_path / tag), "multiply", str(tmp_path / "a.tgmm"),
                             str(tmp_path / "b.tgmm"), *flag]) == 0
            results.append((tmp_path / tag / "result.tgmm").read_bytes())
        assert results[0] == results[1]
        np.testing.assert_array_equal(matrixio.load_matrix(tmp_path / "planned" / "result.tgmm"),
                                      np.zeros((m, n), np.float32))
        report = json.loads((tmp_path / "planned" / "multiply_report.json").read_text())
        assert report["w_histogram"] == {}

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

    @pytest.mark.parametrize("precision,dtypes", [
        ("single", (np.float64, np.float64)), ("single", (np.float32, np.float64)),
        ("single", (np.float64, np.float32)), ("double", (np.float32, np.float32)),
        ("double", (np.float64, np.float32))])
    def test_input_dtype_not_of_precision_exit_code(self, workdir, tmp_path, capsys,
                                                    monkeypatch, precision, dtypes):
        """A planned multiply whose inputs are not both of ``--precision``'s
        dtype exits 1, naming the flag and the dtypes, before the tables
        load or a plan is made."""
        def fail(*args, **kwargs):
            raise AssertionError("reached past the dtype check")
        monkeypatch.setattr(cli, "_load_calibration", fail)
        monkeypatch.setattr(cli.controller, "plan_gemm", fail)
        paths = []
        for name, dtype in zip("ab", dtypes):
            paths.append(tmp_path / f"{name}.tgmm")
            matrixio.save_matrix(matrixio.load_matrix(workdir / f"{name}.tgmm").astype(dtype),
                                 paths[-1])
        out = tmp_path / "out"
        code = cli.main(["--l", str(L), "--precision", precision, "--tables",
                         str(workdir / "tables"), "--out", str(out), "multiply",
                         *map(str, paths), "--snr-db", "20"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: --precision ")
        assert np.dtype(dtypes[0]).name in err and np.dtype(dtypes[1]).name in err
        assert not (out / "result.tgmm").exists()

    def test_plain_multiply_takes_any_precision_flag(self, workdir, tmp_path):
        """``--plain`` reads no table, so its inputs need not be of
        ``--precision``'s dtype."""
        out = tmp_path / "plain"
        assert cli.main(["--l", str(L), "--precision", "double", "--out", str(out),
                         "multiply", str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                         "--plain"]) == 0
        assert matrixio.load_matrix(out / "result.tgmm").dtype == np.float32

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
        """Each report times its stages and names the plain backend it ran."""
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
            assert report["plain_backend"] == "blas"
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

    @pytest.mark.parametrize("column,value", [(2, b"0"), (2, b"-1"), (3, b"0")])
    def test_calibration_w_or_rmax_below_1_exit_code(self, workdir, tmp_path, capsys,
                                                     column, value):
        """A row with a W or R_max below 1 fails the load with an error line
        that names the file and line, not later in the W set."""
        tables = tmp_path / "tables"
        tables.mkdir()
        path = tables / "calibration.csv"
        lines = (workdir / "tables" / "calibration.csv").read_bytes().splitlines(keepends=True)
        fields = lines[3].split(b",")
        fields[column] = value
        lines[3] = b",".join(fields)
        path.write_bytes(b"".join(lines))
        code = cli.main(["--l", str(L), "--tables", str(tables), "--out", str(tmp_path / "o"),
                         "multiply", str(workdir / "a.tgmm"), str(workdir / "b.tgmm"),
                         "--snr-db", "30"])
        name = calibration.CALIB_HEADER[column]
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}, line 4: bad {name} value '{value.decode()}'\n")
        assert not (tmp_path / "o" / "result.tgmm").exists()

    def test_minus_infinite_snr_plans_as_the_loosest_floor(self, workdir, tmp_path):
        """A floor of -inf dB leaves the distortion unbounded: it plans and
        computes what -400 dB does, every subblock at its fastest W."""
        outputs = []
        for tag, flag in (("inf", "--snr-db=-inf"), ("400", "--snr-db=-400")):
            out = tmp_path / tag
            assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                             "--out", str(out), "multiply", str(workdir / "a.tgmm"),
                             str(workdir / "b.tgmm"), flag]) == 0
            outputs.append([(out / name).read_bytes() for name in ("plan.csv", "result.tgmm")])
            report = json.loads((out / "multiply_report.json").read_text())
            assert report["w_histogram"] == {"2": 8}
        assert outputs[0] == outputs[1]

    def test_verify_names_the_worst_kernel(self, workdir, tmp_path):
        """Under ``--verify`` the report names the kernel of lowest measured
        SNR over the full-tile region, and under an SNR floor counts the
        kernels below it; without ``--verify`` it has none of these keys."""
        rng = np.random.default_rng(46)
        a = rng.uniform(-8, 8, size=(2 * L + 3, 3 * L)).astype(np.float32)
        b = rng.uniform(-8, 8, size=(3 * L, 2 * L + 5)).astype(np.float32)
        matrixio.save_matrix(a, tmp_path / "a.tgmm")
        matrixio.save_matrix(b, tmp_path / "b.tgmm")
        ref = tiered_gemm(a, b, L).astype(np.float64)

        def report(*flags):
            out = tmp_path / "-".join(flags)
            assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                             "--out", str(out), "multiply", str(tmp_path / "a.tgmm"),
                             str(tmp_path / "b.tgmm"), *flags]) == 0
            got = matrixio.load_matrix(out / "result.tgmm").astype(np.float64)
            return (json.loads((out / "multiply_report.json").read_text()),
                    oracles.kernel_snrs(ref, got, L))

        keys = {"worst_kernel_snr_db", "worst_kernel", "kernels_below_floor"}
        # at 36 dB some kernels fall below the floor; at 50 dB none has an error
        for flags in (("--snr-db", "30", "--verify"), ("--snr-db", "36", "--verify"),
                      ("--snr-db", "50", "--verify"), ("--accel-percent", "100", "--verify")):
            got, snr = report(*flags)
            worst = min(snr, key=snr.get)
            assert got["worst_kernel"] == list(worst)
            assert got["worst_kernel_snr_db"] == pytest.approx(snr[worst], rel=1e-12)
            if flags[0] == "--snr-db":
                floor = float(flags[1])
                assert got["kernels_below_floor"] == sum(s < floor for s in snr.values())
            else:
                assert "kernels_below_floor" not in got
        assert not keys & set(report("--snr-db", "30")[0])

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
        assert_multiply_product(matrixio.load_matrix(out / "result.tgmm"), a, b)
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
        re-recorded when packed products moved off the order-matched loop,
        and again when the planner moved to per-operand companders.
        Outside the exact region packed bits depend on the BLAS build; these
        were recorded with OpenBLAS 0.3.31."""
        out = workdir / "recorded"
        assert cli.main(["--l", str(L), "--tables", str(workdir / "tables"),
                         "--out", str(out), "--seed", "5", "sweep", "--blocks", "3"]) == 0
        got = [(r["accel_pct"], r["measured_snr_db"], r["mac_ratio"])
               for r in _read_sweep(out / "sweep.csv")]
        assert got == [
            ("0", "inf", "1.0"),
            ("10", "43.768968613216686", "1.0588235294117647"),
            ("20", "39.422629314630626", "1.125"),
            ("30", "38.18038850775305", "1.2"),
            ("40", "38.006410784900744", "1.2857142857142858"),
            ("50", "38.006410784900744", "1.2857142857142858"),
            ("60", "37.76280141959165", "1.3846153846153846"),
            ("70", "37.62778805488037", "1.5"),
            ("80", "36.413727348224185", "1.6363636363636365"),
            ("90", "35.19684612508949", "1.8"),
            ("100", "34.68243499032289", "2.0"),
        ]
