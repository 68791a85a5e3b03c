"""In-memory span tracing of the tdgemm layers, from outside the program.

Each traced function is replaced by one wrapper at every attribute of every
loaded ``tdgemm`` module that refers to it, so callers that imported it by
name (``controller.reorder_block_major``, ``cli.tiered_gemm``, ...) and
callers that resolve it at call time (``packing`` re-importing
``blocking.plain_subblock_gemm``) all go through the wrapper. A span is
``(name, start_ns, end_ns, parent, root, n)``: ``parent`` and ``root`` are
span indices (-1 for none) and ``n`` is an optional count taken from the
call (bytes moved, options built, prune steps).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _result_nbytes(args, kwargs, result):
    return result.nbytes


def _arg_nbytes(args, kwargs, result):
    return args[0].nbytes


def _options_built(args, kwargs, result):
    return sum(len(opts) for opts in result)


def _prune_steps(args, kwargs, result):
    return len(result.prune_trace)


# (span name, module, attribute, count taken from the call)
MULTIPLY_TARGETS = (
    ("cli.main", "tdgemm.cli", "main", None),
    ("matrixio.load_matrix", "tdgemm.matrixio", "load_matrix", _result_nbytes),
    ("matrixio.save_matrix", "tdgemm.matrixio", "save_matrix", _arg_nbytes),
    ("calibration.load_calibration", "tdgemm.calibration", "load_calibration", None),
    ("calibration.load_solutions", "tdgemm.calibration", "load_solutions", None),
    ("calibration.load_speedup", "tdgemm.calibration", "load_speedup", None),
    ("calibration.lookup_nearest_solution", "tdgemm.calibration",
     "lookup_nearest_solution", None),
    ("calibration.CalibrationTable.lookup", "tdgemm.calibration",
     "CalibrationTable.lookup", None),
    ("noise.optimal_companders", "tdgemm.noise", "optimal_companders", None),
    ("noise.combined_distortion", "tdgemm.noise", "combined_distortion", None),
    ("controller.plan_gemm", "tdgemm.controller", "plan_gemm", None),
    ("controller.build_options", "tdgemm.controller", "build_options", _options_built),
    ("controller.plan_kernel_distortion", "tdgemm.controller", "plan_kernel_distortion",
     _prune_steps),
    ("controller.plan_kernel_throughput", "tdgemm.controller", "plan_kernel_throughput",
     _prune_steps),
    ("controller.dump_plan", "tdgemm.controller", "dump_plan", None),
    ("blocking.reorder_block_major", "tdgemm.blocking", "reorder_block_major", None),
    ("blocking.tiered_gemm", "tdgemm.blocking", "tiered_gemm", None),
    ("blocking.plain_subblock_gemm", "tdgemm.blocking", "plain_subblock_gemm", None),
    ("packing.packed_subblock_product", "tdgemm.packing", "packed_subblock_product", None),
    ("packing.quantize_subblock", "tdgemm.packing", "quantize_subblock", None),
    ("packing.pack_symmetric", "tdgemm.packing", "pack_symmetric", None),
    ("packing.pack_asymmetric", "tdgemm.packing", "pack_asymmetric", None),
    ("packing.multiply_packed_symmetric", "tdgemm.packing", "multiply_packed_symmetric", None),
    ("packing.multiply_packed_asymmetric", "tdgemm.packing", "multiply_packed_asymmetric",
     None),
    ("packing.unpack_symmetric", "tdgemm.packing", "unpack_symmetric", None),
    ("packing.unpack_asymmetric", "tdgemm.packing", "unpack_asymmetric", None),
    ("packing.dequantize", "tdgemm.packing", "dequantize", None),
    ("packing.round_half_away", "tdgemm.packing", "round_half_away", None),
)

# set-up is traced with only its two entry points: the solution build calls
# noise.optimal_companders hundreds of thousands of times
SETUP_TARGETS = (
    ("calibration.measure_repr_noise", "tdgemm.calibration", "measure_repr_noise", None),
    ("calibration.build_offline_solutions", "tdgemm.calibration",
     "build_offline_solutions", None),
)

# attributes that callers resolve and that must hold a wrapper once the
# multiply targets are installed
MULTIPLY_SITES = (
    ("tdgemm.controller", "reorder_block_major"),
    ("tdgemm.controller", "lookup_nearest_solution"),
    ("tdgemm.controller", "optimal_companders"),
    ("tdgemm.controller", "combined_distortion"),
    ("tdgemm.cli", "tiered_gemm"),
    ("tdgemm.cli", "main"),
    ("tdgemm.blocking", "plain_subblock_gemm"),
    ("tdgemm.blocking", "reorder_block_major"),
    ("tdgemm.calibration", "CalibrationTable.lookup"),
    ("tdgemm.packing", "packed_subblock_product"),
    ("tdgemm.packing", "round_half_away"),
)
SETUP_SITES = (
    ("tdgemm.calibration", "measure_repr_noise"),
    ("tdgemm.calibration", "build_offline_solutions"),
)


def _resolve(module: str, attr: str):
    """(owner object, attribute name) of a dotted attribute in a module."""
    owner = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Records spans of the wrapped functions until ``uninstall``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original value)
        self._wrapped = set()  # id of every wrapper installed

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else idx
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, root, 0)
            if count is not None:
                spans[idx] = (name, t0, t1, parent, root, count(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self._wrapped.add(id(wrapper))
        return wrapper

    def install(self, targets) -> None:
        """Wrap every target at every ``tdgemm`` attribute that refers to it."""
        wrappers = {}
        for name, module, attr, count in targets:
            owner, last = _resolve(module, attr)
            original = owner.__dict__[last]
            if id(original) in self._wrapped:
                raise RuntimeError(f"{module}.{attr} is already traced")
            wrappers[id(original)] = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tdgemm" or mod_name.startswith("tdgemm.")):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == mod_name]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patches.append((owner, key, value))
                        setattr(owner, key, wrapper)

    def check_sites(self, sites) -> list:
        """Attributes in ``sites`` that do not resolve to a wrapper."""
        missing = []
        for module, attr in sites:
            owner, last = _resolve(module, attr)
            if id(owner.__dict__.get(last)) not in self._wrapped:
                missing.append(f"{module}.{attr}")
        return missing

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def self_times_ns(self) -> list:
        """Span duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, root, n in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        return [t1 - t0 - child_ns[i] for i, (_, t0, t1, *_rest) in enumerate(self.spans)]

    def by_root(self, root_name: str) -> list:
        """Per call of ``root_name``: {span name: {"calls", "ns", "self_ns", "n"}}.

        Also counts ``<name>@<parent name>`` so that callers can be told apart.
        """
        self_ns = self.self_times_ns()
        calls = {}
        for i, (name, t0, t1, parent, root, n) in enumerate(self.spans):
            if self.spans[root][0] != root_name:
                continue
            agg = calls.setdefault(root, defaultdict(lambda: {"calls": 0, "ns": 0,
                                                              "self_ns": 0, "n": 0}))
            keys = [name]
            if parent >= 0:
                keys.append(f"{name}@{self.spans[parent][0]}")
            for key in keys:
                rec = agg[key]
                rec["calls"] += 1
                rec["ns"] += t1 - t0
                rec["self_ns"] += self_ns[i]
                rec["n"] += n
        return [dict(calls[r]) for r in sorted(calls)]

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start_ns, end_ns, parent, root, n."""
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\troot\tn\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")
