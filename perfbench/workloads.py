"""Benchmark workloads: the flags each one passes to the `tdgemm` CLI and the
seeded generator of its input matrices.

Tables are built only with `tdgemm calibrate` and `tdgemm solutions`. The
benchmark never runs `tdgemm profile`: its `speedup.csv` holds wall-clock
gains, which would make `plan.csv` depend on timing. Without it the planner
uses its MAC-count gain, so every plan is a function of the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    n: int
    mode: str
    ws: tuple
    constraint: tuple  # CLI flag and value of the multiply constraint
    mean: float  # added to both N(0, 1) operands

    @property
    def blocks(self) -> int:
        """Tiles per matrix side."""
        return self.n // self.L

    @property
    def subblocks(self) -> int:
        """L x L subblock products in one multiply: (m/L)(n/L)(k/L)."""
        return self.blocks ** 3

    @property
    def snr_floor_db(self):
        return float(self.constraint[1]) if self.constraint[0] == "--snr-db" else None

    @property
    def accel_floor_percent(self):
        return float(self.constraint[1]) if self.constraint[0] == "--accel-percent" else None

    def base_argv(self, seed: int) -> list:
        return ["--seed", str(seed), "--l", str(self.L), "--precision", "single",
                "--mode", self.mode]

    def calibrate_argv(self, seed: int, out: str) -> list:
        return [*self.base_argv(seed), "--out", out, "calibrate",
                "--w", *map(str, self.ws)]

    def solutions_argv(self, seed: int, tables: str) -> list:
        return [*self.base_argv(seed), "--tables", tables, "--out", tables, "solutions",
                "--w", *map(str, self.ws), "--per-decade", "8"]

    def multiply_argv(self, seed: int, tables: str, out: str, a: str, b: str) -> list:
        return [*self.base_argv(seed), "--tables", tables, "--out", out, "multiply",
                a, b, *self.constraint]

    def inputs(self, seed: int):
        """Single-precision N(mean, 1) operands, n x n, drawn from ``seed``."""
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((self.n, self.n)) + self.mean).astype(np.float32)
        b = (rng.standard_normal((self.n, self.n)) + self.mean).astype(np.float32)
        return a, b


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gauss-snr30-l48",
            L=48, n=384, mode="symmetric", ws=(2, 3, 4),
            constraint=("--snr-db", "30"), mean=0.0,
        ),
        Workload(
            name="gauss-accel100-l288",
            L=288, n=864, mode="symmetric", ws=(2,),
            constraint=("--accel-percent", "100"), mean=0.0,
        ),
        Workload(
            name="offset-snr20-l48",
            L=48, n=384, mode="asymmetric", ws=(2, 3, 4),
            constraint=("--snr-db", "20"), mean=100.0,
        ),
    )
}
