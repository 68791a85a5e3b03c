#!/usr/bin/env python3
"""Benchmark-scale (L=288) wall-clock comparison of the packed pipeline for W
in {2, 3, 4}, both modes, against two plain baselines: the order-matched
subblock product (``plain_subblock_gemm``, what ``fw_percent`` measures
against) and ``np.matmul`` at the same precision. Each gain is labelled by its
baseline."""

import time

import numpy as np

from tdgemm import packing
from tdgemm.blocking import plain_subblock_gemm

L = 288
TRIALS = 10


def _t(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _median_time(fn):
    fn()  # warm-up
    return np.median([_t(fn) for _ in range(TRIALS)])


def main():
    rng = np.random.default_rng(0)
    a = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(np.float32))
    b = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(np.float32))
    rmax = packing.compute_rmax(1.0, 1.0, L, 20, 20)
    z = packing.compute_z(rmax)

    t_plain = _median_time(lambda: plain_subblock_gemm(a, b))
    t_matmul = _median_time(lambda: np.matmul(a, b))
    print(f"L={L}: order-matched plain {t_plain * 1e3:.2f} ms, "
          f"np.matmul {t_matmul * 1e3:.3f} ms")
    for mode in packing.MODES:
        for w in (2, 3, 4):
            t = _median_time(lambda: packing.packed_product(a, b, mode, w, z))
            print(f"{mode:>10} W={w}: {t * 1e3:.3f} ms  "
                  f"gain over order-matched {100 * (t_plain / t - 1):.0f}%  "
                  f"gain over np.matmul {100 * (t_matmul / t - 1):.0f}%")


if __name__ == "__main__":
    main()
