"""Closed-loop multiply worker: one caller in one process.

Runs ``tdgemm.cli.main([... "multiply" ...])`` repeatedly, each call starting
when the previous one returned, until the time budget is spent and at least
``min_samples`` calls were timed. Every call is checked (exit code, finite
result of the right shape, sha256 of ``result.tgmm`` and ``plan.csv`` equal to
the first call's). Between the calls, on the same loaded arrays, the worker
times ``np.matmul``, the benchmark's frozen copy of the order-matched
reference loop and, with tracing on, the program's own reference
``tiered_gemm``.

Usage: python3 worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def frozen_reference(a, b, L: int):
    """The order-matched reference product, as ``tiered_gemm`` without a plan
    computed it when this benchmark was defined: L x L subblocks accumulated
    in ascending l, each a sequence of rank-1 updates. It is a copy so that
    this yardstick stays the same while the program changes. Operand sides
    are multiples of L in every workload."""
    m, k = a.shape
    n = b.shape[1]
    r = np.zeros((m, n), dtype=a.dtype)
    for i in range(0, m, L):
        for j in range(0, n, L):
            acc = np.zeros((L, L), dtype=a.dtype)
            for l0 in range(0, k, L):
                at, bt = a[i:i + L, l0:l0 + L], b[l0:l0 + L, j:j + L]
                sub = np.zeros((L, L), dtype=a.dtype)
                for t in range(L):
                    sub += at[:, t][:, None] * bt[t, :][None, :]
                acc += sub
            r[i:i + L, j:j + L] = acc
    return r


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from tdgemm import cli, matrixio
    from tdgemm.blocking import tiered_gemm
    from tracing import MULTIPLY_SITES, MULTIPLY_TARGETS, Tracer

    load_matrix = matrixio.load_matrix  # untraced, for the checks
    a = load_matrix(spec["a"])
    b = load_matrix(spec["b"])
    out = Path(spec["out"])
    shape = (a.shape[0], b.shape[1])

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(MULTIPLY_TARGETS)
        missing = tracer.check_sites(MULTIPLY_SITES)
        if missing:
            raise RuntimeError(f"traced attributes not wrapped: {missing}")

    def checked_call():
        """Run one multiply; return (seconds, digests, problem or None)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(spec["argv"])
        except Exception:  # a crash is a failed call, counted and shown
            return time.perf_counter() - t0, None, "raised:\n" + traceback.format_exc()
        dt = time.perf_counter() - t0
        if rc != 0:
            return dt, None, f"exit code {rc}"
        result = load_matrix(out / "result.tgmm")
        if result.shape != shape:
            return dt, None, f"result shape {result.shape}, expected {shape}"
        if not np.isfinite(result).all():
            return dt, None, "result has non-finite entries"
        digests = {name: _sha256(out / name) for name in ("result.tgmm", "plan.csv")}
        for name, digest in digests.items():
            if first_digests is not None and digest != first_digests[name]:
                return dt, digests, f"{name} sha256 {digest[:12]} differs from the first call's"
        return dt, digests, None

    samples, timed_calls, failures = [], [], []
    matmul_s, frozen_s, reference_s = [], [], []
    attempted = 0
    first_digests = None
    t_start = time.perf_counter()
    while True:
        attempted += 1
        dt, digests, problem = checked_call()
        if problem is not None:
            failures.append(f"call {attempted}: {problem}")
            print(f"perfbench: failed multiply call {attempted}: {problem}", file=sys.stderr)
        elif first_digests is None:
            first_digests = digests  # the first good call is an untimed warm-up
        else:
            samples.append(dt)
            timed_calls.append(attempted - 1)
        # baselines right after each call, so that each is paired with a call
        # timed at nearly the same host load
        t0 = time.perf_counter()
        frozen_reference(a, b, spec["L"])
        frozen_s.append(time.perf_counter() - t0)
        reps = []
        for _ in range(spec["matmul_reps"]):
            t0 = time.perf_counter()
            np.matmul(a, b)
            reps.append(time.perf_counter() - t0)
        matmul_s.append(statistics.median(reps))
        if spec["trace"]:
            t0 = time.perf_counter()
            tiered_gemm(a, b, spec["L"])  # imported before tracing: the original
            reference_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed >= spec["seconds"] and len(samples) >= spec["min_samples"]:
            break
        if elapsed >= spec["max_seconds"]:
            break

    record = {
        "attempted": attempted,
        "failures": failures,
        "samples_s": samples,
        "timed_calls": timed_calls,  # 0-based index of each sample's call
        # one entry per call, index as in timed_calls
        "frozen_reference_s": frozen_s,
        "matmul_s": matmul_s,  # median of matmul_reps timings
        "reference_s": reference_s,
        "digests": first_digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        record["calls"] = tracer.by_root("cli.main")
        tracer.write(spec["spans"])
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
