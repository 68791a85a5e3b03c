"""Guard for the benchmark's tracer (``perfbench/tracing.py``): every name it
wraps still exists and is called, and the counts the benchmark checks hold
for a small multiply. A refactor that breaks them fails here, not only when
the benchmark runs. Nothing under ``perfbench/`` is changed."""

import importlib.util
from pathlib import Path

import numpy as np

from tdgemm import cli, matrixio

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
L = 12
BLOCKS = 3


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_multiply_counts(tmp_path):
    tracing = _tracing()
    tables = str(tmp_path / "tables")
    assert cli.main(["--l", str(L), "--out", tables,
                     "calibrate", "--w", "2", "--trials", "2"]) == 0
    assert cli.main(["--l", str(L), "--tables", tables, "--out", tables,
                     "solutions", "--w", "2", "--per-decade", "1"]) == 0
    rng = np.random.default_rng(43)
    paths = []
    for name in ("a", "b"):
        paths.append(str(tmp_path / f"{name}.tgmm"))
        matrixio.save_matrix(rng.normal(size=(BLOCKS * L, BLOCKS * L)).astype(np.float32),
                             paths[-1])
    tracer = tracing.Tracer()
    tracer.install(tracing.MULTIPLY_TARGETS)
    try:
        assert tracer.check_sites(tracing.MULTIPLY_SITES) == []
        assert cli.main(["--l", str(L), "--tables", tables, "--out", str(tmp_path / "out"),
                         "multiply", *paths, "--snr-db", "33"]) == 0
    finally:
        tracer.uninstall()
    (call,) = tracer.by_root("cli.main")

    def count(name, field="calls"):
        return call.get(name, {field: 0})[field]

    assert count("controller.build_options", "n") > 0
    assert count("blocking.reorder_block_major") == 4
    plain = count("blocking.plain_subblock_gemm@blocking.tiered_gemm")
    packed = count("packing.packed_subblock_product")
    assert plain > 0 and packed > 0
    assert plain + packed == BLOCKS ** 3
