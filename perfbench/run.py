#!/usr/bin/env python3
"""tdgemm benchmark: set-up time, multiply time and output accuracy of the
`tdgemm calibrate` -> `tdgemm solutions` -> `tdgemm multiply` path.

Run from the repository root:

    python3 perfbench/run.py --workload gauss-snr30-l48 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes
    python3 perfbench/run.py --list-metrics

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
program is imported from ``src/`` of the current directory; the benchmark
writes only under ``.perfbench_run/`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import metrics
from tracing import SETUP_SITES, SETUP_TARGETS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3  # set-up runs per untraced run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must have beyond it
MATMUL_REPS = 5  # np.matmul timings after each multiply
# one BLAS thread: the multiply runs on one core, so np.matmul does too
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run ends within this, whatever the host's speed


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def import_program(root: Path):
    """Import tdgemm from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "tdgemm" / "__init__.py").is_file():
        raise BenchError(f"no tdgemm sources under {src}")
    sys.path.insert(0, str(src))
    import tdgemm
    from tdgemm import cli, matrixio

    if Path(tdgemm.__file__).resolve().parent != (src / "tdgemm").resolve():
        raise BenchError(f"tdgemm imported from {tdgemm.__file__}, not from {src}")
    return cli, matrixio


def check_benchmark_json(root: Path) -> None:
    """BENCHMARK.json must list exactly the workloads and metrics defined here."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for key, defined in (("end_to_end", metrics.END_TO_END),
                         ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [(m.name, m.unit, m.better) for m in defined]:
            raise BenchError(f"BENCHMARK.json {key} differs from perfbench/metrics.py")


def hardware() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
    }


def run_setup(cli, wl, seed: int, tables: Path) -> float:
    """`tdgemm calibrate` then `tdgemm solutions` into ``tables``; wall seconds."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc_cal = cli.main(wl.calibrate_argv(seed, str(tables)))
        rc_sol = cli.main(wl.solutions_argv(seed, str(tables))) if rc_cal == 0 else None
    dt = time.perf_counter() - t0
    if (rc_cal, rc_sol) != (0, 0):
        raise BenchError(f"set-up failed: calibrate exit {rc_cal}, solutions exit {rc_sol}")
    return dt


def run_worker(work: Path, tag: str, spec: dict, deadline: float) -> dict:
    """Run the multiply loop in its own process and return its record."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def paired_ratio(record: dict, baseline: str) -> float:
    """Median over timed calls of the baseline timed right after the call
    divided by the call's wall time. Pairing cancels most of the swing in
    host speed that a ratio of two medians keeps."""
    return statistics.median(record[baseline][i] / dt
                             for i, dt in zip(record["timed_calls"], record["samples_s"]))


def tail(samples):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_workload(root: Path, cli, matrixio, wl, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result JSON object, report dict)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    runs = root / ".perfbench_run"
    work = runs / f"{wl.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "hardware": hardware()}
    problems = []
    try:
        a, b = wl.inputs(seed)
        a_path, b_path = work / "a.tgmm", work / "b.tgmm"
        matrixio.save_matrix(a, a_path)
        matrixio.save_matrix(b, b_path)

        setup_tracer = None
        if trace:
            setup_tracer = Tracer()
            setup_tracer.install(SETUP_TARGETS)
            missing = setup_tracer.check_sites(SETUP_SITES)
            if missing:
                setup_tracer.uninstall()
                raise BenchError(f"traced attributes not wrapped: {missing}")
        try:
            setup_s = [run_setup(cli, wl, seed, work / f"tables{r}")
                       for r in range(1 if trace else SETUP_REPS)]
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        tables = work / "tables0"
        for r in range(1, len(setup_s)):
            for name in ("calibration.csv", "solutions.csv"):
                if _sha256(work / f"tables{r}" / name) != _sha256(tables / name):
                    problems.append(f"set-up {r} wrote a different {name}")

        def spec(tag, traced, budget, min_samples):
            out = work / f"out-{tag}"
            return {
                "src": str(root / "src"), "a": str(a_path), "b": str(b_path),
                "out": str(out), "L": wl.L, "trace": traced,
                "argv": wl.multiply_argv(seed, str(tables), str(out), str(a_path),
                                         str(b_path)),
                "seconds": budget, "min_samples": min_samples,
                # stop early enough to leave the rest of the run 30 s
                "max_seconds": deadline - time.monotonic() - 30.0,
                "matmul_reps": MATMUL_REPS,
                "spans": str(runs / f"spans-{wl.name}-seed{seed}.tsv"),
            }

        records = {"untraced": run_worker(work, "untraced",
                                          spec("untraced", False, seconds, TAIL_BEYOND + 1),
                                          deadline)}
        if trace:
            records["traced"] = run_worker(work, "traced", spec("traced", True, seconds / 2, 3),
                                           deadline)
        attempted = sum(r["attempted"] for r in records.values())
        failures = [f"{tag} {f}" for tag, r in records.items() for f in r["failures"]]
        base = records["untraced"]
        if base["digests"] is None or not base["samples_s"]:
            raise BenchError("no multiply call succeeded: " + "; ".join(failures[:3]))
        if trace and records["traced"]["digests"] != base["digests"]:
            problems.append("traced result.tgmm or plan.csv digest differs from the "
                            "untraced run's")

        out = work / "out-untraced"
        result = matrixio.load_matrix(out / "result.tgmm")
        ref = a.astype(np.float64) @ b.astype(np.float64)
        snr, kernel_snr = metrics.accuracy(result, ref, wl.L)
        plan_rows = metrics.read_plan(out / "plan.csv")
        if wl.snr_floor_db is not None:
            misses = sum(1 for s in kernel_snr if s < wl.snr_floor_db)
        else:
            misses = sum(1 for x in metrics.kernel_accel_percent(plan_rows)
                         if x < wl.accel_floor_percent)
        if min(kernel_snr) <= 0.0:
            problems.append(f"a kernel's SNR is {min(kernel_snr):.3g} dB: the result "
                            "does not resemble the product")
        macs, plain_macs, packed_bytes = metrics.op_counts(plan_rows, wl.L, a.itemsize)
        multiply_s = statistics.median(base["samples_s"])
        tail_s, tail_pct, n_samples = tail(base["samples_s"])
        gflops = 2.0 * wl.n ** 3 / multiply_s / 1e9
        report.update(samples=n_samples, tail_percentile=tail_pct, multiply_s=multiply_s,
                      multiply_s_tail=tail_s, gflops=gflops,
                      setup_runs_s=setup_s, samples_s=base["samples_s"],
                      paired_frozen_reference_s=[base["frozen_reference_s"][i]
                                                 for i in base["timed_calls"]],
                      paired_matmul_s=[base["matmul_s"][i] for i in base["timed_calls"]],
                      w_histogram=dict(sorted(Counter(w for *_ijl, w in plan_rows).items())),
                      digests=base["digests"], failures=failures)

        if not trace:
            values = {
                "setup_s": statistics.median(setup_s),
                "vs_reference": paired_ratio(base, "frozen_reference_s"),
                "snr_db": snr,
                "worst_kernel_snr_db": min(kernel_snr),
                "floor_met_frac": 1.0 - misses / len(kernel_snr),
                "mac_ratio": plain_macs / macs,
                "peak_rss_mb": base["peak_rss_mb"],
                "ok_frac": 1.0 - len(failures) / attempted,
            }
            defs = metrics.END_TO_END
        else:
            traced = records["traced"]
            calls = traced["calls"]
            counts = [metrics.call_counts(c) for c in calls]
            if any(c != counts[0] for c in counts):
                problems.append("traced counts differ between multiply calls")
            problems += metrics.count_violations(counts[0], wl, plan_rows)
            if not traced["timed_calls"]:
                raise BenchError("no traced multiply call succeeded")
            times = [metrics.call_times(calls[i]) for i in traced["timed_calls"]]
            setup_t = Counter()
            for name, t0, t1, *_rest in setup_tracer.spans:
                setup_t[name] += (t1 - t0) / 1e9
            values = {name: statistics.median(t[name] for t in times) for name in times[0]}
            values.update({k: v for k, v in counts[0].items()
                           if k in {m.name for m in metrics.PER_LAYER}})
            values.update({
                "multiply_s": multiply_s,
                "multiply_s_tail": tail_s,
                "gflops": gflops,
                "vs_blas": paired_ratio(base, "matmul_s"),
                "calibration.measure_repr_noise_s": setup_t["calibration.measure_repr_noise"],
                "calibration.build_offline_solutions_s":
                    setup_t["calibration.build_offline_solutions"],
                "controller.options_used_ratio":
                    wl.subblocks / counts[0]["controller.options_built"],
                "blocking.macs": macs,
                "packing.bytes_computed": packed_bytes,
                "baseline.matmul_s": statistics.median(traced["matmul_s"]),
                "baseline.reference_s": statistics.median(traced["reference_s"]),
                "trace.overhead_frac":
                    statistics.median(traced["samples_s"]) / multiply_s - 1.0,
                "floor_miss_frac": misses / len(kernel_snr),
                "failed_frac": len(failures) / attempted,
            })
            report["traced_counts"] = counts[0]
            defs = metrics.PER_LAYER
        report["problems"] = problems
        result_obj = {
            "correct": not problems and not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in defs},
        }
        report["result"] = result_obj
        (runs / f"report-{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        return result_obj, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict) -> None:
    hw = report["hardware"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"   {hw['cpu_model']}, nproc {hw['nproc']}, python {hw['python']}, numpy "
          f"{hw['numpy']}, BLAS {hw['blas']} with {hw['blas_threads']} threads")
    print(f"   plan W histogram {report['w_histogram']}; untraced wall time over "
          f"{report['samples']} calls: multiply_s {report['multiply_s']:.6g} s (median), "
          f"multiply_s_tail {report['multiply_s_tail']:.6g} s "
          f"(p{report['tail_percentile']:.1f}), gflops {report['gflops']:.6g} GFLOP/s")
    defs = {m.name: m for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    for name, v in report["result"]["metrics"].items():
        print(f"   {name:<44} {v['value']:>14.6g} {v['unit']:<8} ({defs[name].better} "
              f"is better)")
    for line in report["failures"] + report["problems"]:
        print(f"   PROBLEM: {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--list-metrics", action="store_true")
    args = p.parse_args(argv)
    if args.list_metrics:
        for m in (*metrics.END_TO_END, *metrics.PER_LAYER):
            print(f"{m.name:<44} {m.unit:<8} {m.better:<6} [{m.layer}] {m.doc}")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    # on SIGTERM unwind normally, so that subprocess.run kills and reaps the
    # worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        check_benchmark_json(root)
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
        cli, matrixio = import_program(root)
        if args.workload != "all":
            result, report = run_workload(root, cli, matrixio, WORKLOADS[args.workload],
                                          args.seed, seconds, bool(args.trace))
            print_report(report)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for wl in WORKLOADS.values():
            for trace in (False, True):
                result, report = run_workload(root, cli, matrixio, wl, args.seed,
                                              seconds, trace)
                print_report(report)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, v in result["metrics"].items():
                    combined["metrics"][f"{wl.name}/{name}"] = v
        print(json.dumps(combined))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
