"""Guard for the benchmark's tracer (``perfbench/tracing.py``): every name it
wraps still exists and is called, and the counts the benchmark checks hold
for a small multiply. A refactor that breaks them fails here, not only when
the benchmark runs. Nothing under ``perfbench/`` is changed."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tdgemm import cli, matrixio

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
L = 12
BLOCKS = 3


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tables"))
    assert cli.main(["--l", str(L), "--out", out,
                     "calibrate", "--w", "2", "--trials", "2"]) == 0
    assert cli.main(["--l", str(L), "--tables", out, "--out", out,
                     "solutions", "--w", "2", "--per-decade", "1"]) == 0
    return out


def _traced_multiply(tables, tmp_path, mean, snr_db):
    """Span counts of one traced ``multiply`` of two random matrices of the
    given mean under an SNR floor, after checking that every site the
    benchmark requires holds a wrapper."""
    tracing = _tracing()
    rng = np.random.default_rng(43)
    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.tgmm"))
        m = rng.normal(loc=mean, size=(BLOCKS * L, BLOCKS * L)).astype(np.float32)
        matrixio.save_matrix(m, paths[-1])
    tracer = tracing.Tracer()
    tracer.install(tracing.MULTIPLY_TARGETS)
    try:
        assert tracer.check_sites(tracing.MULTIPLY_SITES) == []
        assert cli.main(["--l", str(L), "--tables", tables, "--out", str(tmp_path / "out"),
                         "multiply", *paths, "--snr-db", str(snr_db)]) == 0
    finally:
        tracer.uninstall()
    (call,) = tracer.by_root("cli.main")

    def count(name, field="calls"):
        return call.get(name, {field: 0})[field]

    return count


def test_traced_multiply_counts(tables, tmp_path):
    count = _traced_multiply(tables, tmp_path, 0.0, 33)
    assert count("controller.build_options", "n") > 0
    assert count("calibration.load_calibration") == 1
    assert count("calibration.load_solutions") == 0
    assert count("blocking.reorder_block_major") == 4
    plain = count("blocking.plain_subblock_gemm@blocking.tiered_gemm")
    packed = count("packing.packed_subblock_product")
    assert plain > 0 and packed > 0
    assert plain + packed == BLOCKS ** 3


def test_traced_all_plain_multiply_counts(tables, tmp_path):
    """A +100 mean makes the zero-mean model demote every subblock to W=1
    under a 20 dB floor, as on the benchmark's offset workload: every
    subblock still runs one traced plain call. The solution table is neither
    loaded nor searched: the planner takes R_max from the calibration table."""
    count = _traced_multiply(tables, tmp_path, 100.0, 20)
    assert count("blocking.reorder_block_major") == 4
    assert count("blocking.plain_subblock_gemm@blocking.tiered_gemm") == BLOCKS ** 3
    assert count("packing.packed_subblock_product") == 0
    assert count("calibration.lookup_nearest_solution") == 0
    assert count("calibration.load_solutions") == 0
