"""Offline measurement artifacts: representation-noise curves m/s(R_max, W),
throughput profiling F_W, and the compander-solution table: a read-only
structured array of ``SOLUTION_DTYPE`` rows, built per W by an array search
over sigma pairs and R_max. All three persist as versioned CSV files.

The planner reads only the first two. Under ``uniform_extremes`` every term
of the noise model scales as (sigma_a * sigma_b)^2, so the SNR-best R_max of
a W is the same for every sigma pair, and ``controller.build_options`` takes
it from ``build_offline_solutions`` at the one pair (1, 1). The full table is
an offline report; ``load_solutions`` and ``lookup_nearest_solution`` read it
back, the latter as the nearest rows.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from bisect import bisect_left
from dataclasses import astuple, dataclass, field
from itertools import starmap
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import packing
from .blocking import MULTIPLY_BACKEND, plain_subblock_gemm
from .config import dtype_of, PRECISIONS
from .errors import (
    CalibrationMissingError,
    InvalidConfigError,
    TableFormatError,
    TimerResolutionError,
)
from .noise import BatchStats, combined_distortion, optimal_companders, signal_power

FORMAT_VERSION = 1

_PREC_CODE = {p: i for i, p in enumerate(PRECISIONS)}
_MODE_CODE = {m: i for i, m in enumerate(packing.MODES)}


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


class CalibEntry(NamedTuple):
    precision: str
    mode: str
    w: int
    rmax: int
    mean_err: float
    rmse: float
    trials: int
    seed: int


class CalibrationTable:
    """Calibration entries in measurement (file) order, ``entries``, indexed
    once, at construction: ``slice``, ``lookup``, ``admitted`` and ``ws`` read
    each (precision, mode, W)'s entries sorted by R_max, in file order among
    equal R_max. A table is built from all its entries and not changed."""

    def __init__(self, entries=()):
        self.entries = list(entries)
        self._slices = {}
        for e in sorted(self.entries, key=attrgetter("rmax")):  # a stable sort
            self._slices.setdefault(e[:3], []).append(e)  # e[:3]: precision, mode, W

    def slice(self, precision: str, mode: str, w: int) -> list:
        return list(self._slices.get((precision, mode, w), ()))

    def ws(self, precision: str, mode: str) -> list:
        """The W's the table holds for (precision, mode), ascending."""
        return sorted(w for p, m, w in self._slices if (p, m) == (precision, mode))

    def lookup(self, precision: str, mode: str, w: int, rmax: int) -> CalibEntry:
        """Entry for the key; on duplicate keys the earliest entry wins."""
        entries = self._slices.get((precision, mode, w), [])
        i = bisect_left(entries, rmax, key=attrgetter("rmax"))  # the earliest of equal R_max
        if i == len(entries) or entries[i].rmax != rmax:
            raise CalibrationMissingError(
                f"no calibration entry for ({precision}, {mode}, W={w}, rmax={rmax})"
            )
        return entries[i]

    def admitted(self, precision: str, mode: str, w: int):
        """Entries usable by the controller: near-zero bias, and no R_max over
        the (precision, W) cap of ``DEFAULT_RMAX_CAPS``, if it has one."""
        cap = DEFAULT_RMAX_CAPS.get((precision, w))
        return [e for e in self._slices.get((precision, mode, w), ())
                if not (cap is not None and e.rmax > cap
                        or abs(e.mean_err) / e.rmax >= BIAS_LIMIT)]


# largest admitted |mean error| / R_max
BIAS_LIMIT = 1e-4
# double precision W=4 breaks down early; larger R_max values are never admitted
DEFAULT_RMAX_CAPS = {("double", 4): 120000}


def amplitude_sweep():
    """Integer extremes for the noise-curve grid: fixed amax=22, bmax 1 to 63.

    Keeping the amplitude ratio fixed across tile sides preserves the sweep's
    relative geometry; the resulting R_max = 22 * L * bmax grid scales with L.
    """
    return [(22, b) for b in range(1, 64)]


def measure_repr_noise(L: int, precision: str, mode: str, w: int,
                       sweep=None, trials: int = 5, seed: int = 0):
    """Measure mean error and per-element RMSE of packed multiplication.

    Integer uniform tiles with unit companders isolate the representation
    noise; the reference is the product of the same tiles, exact in any
    summation order because every partial sum is an integer of magnitude at
    most R_max: in the tiles' own precision when R_max is below its exact
    integer limit, else in float64. The packed product measured is
    ``packing.packed_product``: the pack, multiply and unpack that
    ``multiply`` runs on a packed subblock (both fold through
    ``packing._pack_operands`` and end in ``packing._product``), without its
    quantize and dequantize.
    """
    if w < 2:
        raise InvalidConfigError("representation noise is only defined for W >= 2")
    if trials < 1:
        raise InvalidConfigError("trials must be >= 1")
    if sweep is None:
        sweep = amplitude_sweep()
    dtype = dtype_of(precision)
    out, work = [], packing.Workspace(L, dtype)
    for point_idx, (amax, bmax) in enumerate(sweep):
        rmax = packing.compute_rmax(1.0, 1.0, L, amax, bmax)
        z = packing.compute_z(rmax)
        rng = _rng_for(seed, _PREC_CODE[precision], _MODE_CODE[mode], w, point_idx)
        sq_sum = 0.0
        err_sum = 0.0
        count = 0
        for _ in range(trials):
            at = rng.integers(-amax, amax + 1, size=(L, L)).astype(dtype)
            bt = rng.integers(-bmax, bmax + 1, size=(L, L)).astype(dtype)
            if rmax < packing._EXACT_INT_LIMIT[at.dtype]:
                exact = at @ bt
            else:
                exact = at.astype(np.float64) @ bt.astype(np.float64)
            got = packing.packed_product(at, bt, mode, w, z, work)
            err = np.subtract(got, exact, dtype=np.float64)
            err_sum += float(err.sum())
            sq_sum += float(np.square(err, out=err).sum())
            count += err.size
        out.append(
            CalibEntry(
                precision=precision,
                mode=mode,
                w=w,
                rmax=rmax,
                mean_err=err_sum / count,
                rmse=math.sqrt(sq_sum / count),
                trials=trials,
                seed=seed,
            )
        )
    return out


@dataclass(frozen=True)
class ProfileEntry:
    precision: str
    mode: str
    w: int
    L: int
    fw_percent: float
    mac_ratio: float
    reps: int


@dataclass
class SpeedupProfile:
    entries: list = field(default_factory=list)

    def fw(self, precision: str, mode: str, w: int, L: int) -> float:
        """The measured gain of W at tile side L; 0 for W=1."""
        if w == 1:
            return 0.0
        for e in self.entries:
            if (e.precision, e.mode, e.w, e.L) == (precision, mode, w, L):
                return e.fw_percent
        raise CalibrationMissingError(
            f"no speedup profile entry for ({precision}, {mode}, W={w}, L={L})"
        )


# least wall time of one timed sample in measure_speedup_profile: at L=48 a
# single call (~0.06-0.1 ms) is too short to fix the sign of a gain
_SAMPLE_S = 1e-3


def measure_speedup_profile(L: int, precision: str, mode: str, w_set=(2, 3, 4),
                            repetitions: int = 5, seed: int = 0) -> SpeedupProfile:
    """Median wall-clock of a packed subblock vs a plain one, as percentile gain.

    Each side is timed as ``tiered_gemm`` runs it on one L x L subblock:
    ``packing.packed_subblock_product`` with unit companders, a memo hit on
    tiles ``packing.prepare_operands`` packed, against ``plain_subblock_gemm`` on
    ``MULTIPLY_BACKEND``, the BLAS product ``multiply`` runs a W=1 subblock
    on, on the same integer tiles.
    A warm-up runs calls until ``_SAMPLE_S`` has passed, and each of the
    ``repetitions`` samples times a batch of as many calls, so that a sample
    spans about ``_SAMPLE_S`` whatever L is; a median sample shorter than
    100 timer ticks raises ``TimerResolutionError``. At L=48 this does not
    fix the sign of a gain near zero: samples of one side still spread by
    about +-20% from run to run.
    """
    if repetitions < 3:
        raise InvalidConfigError("repetitions must be >= 3")
    dtype = dtype_of(precision)
    rng = _rng_for(seed, _PREC_CODE[precision], _MODE_CODE[mode], 99)
    at = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(dtype))
    bt = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(dtype))

    def timed(fn, *args, **kwargs):
        batch = 0
        t0 = time.perf_counter()
        while True:  # warm-up, which sizes the batch
            fn(*args, **kwargs)
            batch += 1
            if time.perf_counter() - t0 >= _SAMPLE_S:
                break
        samples = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn(*args, **kwargs)
            samples.append(time.perf_counter() - t0)
        sample = statistics.median(samples)
        if sample < 100 * _timer_resolution():
            raise TimerResolutionError(
                f"a sample of {batch} {fn.__name__} calls at L={L} lasts {sample:.2e}s, "
                "below reliable timer resolution"
            )
        return sample / batch

    t_plain = timed(plain_subblock_gemm, at, bt, backend=MULTIPLY_BACKEND)
    rmax = packing.compute_rmax(1.0, 1.0, L, 20, 20)
    z = packing.compute_z(rmax)
    profile = SpeedupProfile()
    work = packing.Workspace(L, dtype)
    for w in sorted(set(w_set)):
        if w == 1:
            continue
        cfg = packing.PackingConfig(mode=mode, w=w, z=z, c_a=1.0, c_b=1.0, rmax=rmax)
        packing.prepare_operands(work, mode, (at, bt), ([((0, 0), w, z, 1.0)],) * 2)
        t_packed = timed(packing.packed_subblock_product, at, bt, cfg, work, ((0, 0), (0, 0)))
        profile.entries.append(
            ProfileEntry(
                precision=precision,
                mode=mode,
                w=w,
                L=L,
                fw_percent=(t_plain / t_packed - 1.0) * 100.0,
                mac_ratio=float(w),
                reps=repetitions,
            )
        )
    return profile


def _timer_resolution() -> float:
    res = time.get_clock_info("perf_counter").resolution
    return max(res, 1e-9)


def log_sigma_grid(per_decade: int = 8):
    """Log-spaced sigmas from 1e-2 to 1e3, covering the input dynamic ranges."""
    n = int(round(math.log10(1e3 / 1e-2) * per_decade)) + 1
    return [1e-2 * 10.0 ** (i / per_decade) for i in range(n)]


def uniform_extremes(sigma_a: float, sigma_b: float):
    """Extremes of zero-mean uniform laws with the given sigmas."""
    return math.sqrt(3.0) * sigma_a, math.sqrt(3.0) * sigma_b


# a solution table: stored compander solutions, one read-only record per
# (sigma_a, sigma_b, W), fields in file order
SOLUTION_DTYPE = np.dtype([("sigma_a", "f8"), ("sigma_b", "f8"), ("w", "i8"), ("rmax", "i8"),
                           ("c_a", "f8"), ("c_b", "f8"), ("snr_db", "f8")])


# (sigma pair, R_max) elements per step of the solution build, which bounds
# its temporaries whatever the sigma grid
_BUILD_CHUNK = 1 << 11


def build_offline_solutions(sigma_pairs, calib: CalibrationTable, precision: str, mode: str,
                            L: int, w_set=(2, 3, 4)) -> np.ndarray:
    """Precompute the best operating point per (sigma_a, sigma_b, W).

    Each sigma pair stands for zero-mean uniform operands
    (``uniform_extremes``). Per W, one array pass over the (pair, admitted
    R_max) elements, a chunk of about ``_BUILD_CHUNK`` at a time, computes
    the optimal companders and the model SNR at every admitted R_max; each
    pair keeps the first R_max, in ascending order, of highest SNR. The SNR
    is ``10 * math.log10`` per element, because ``np.log10`` is not bitwise
    ``math.log10``. Rows are in W order, then pair order, in a read-only
    array of ``SOLUTION_DTYPE``.
    """
    ws = sorted(set(w_set))
    pairs = np.array(sigma_pairs, dtype=np.float64).reshape(-1, 2)
    out = np.empty(len(ws) * len(pairs), dtype=SOLUTION_DTYPE)
    for k, w in enumerate(ws):
        admitted = calib.admitted(precision, mode, w)
        if not admitted:
            raise CalibrationMissingError(
                f"no admitted calibration entries for ({precision}, {mode}, W={w})"
            )
        rmax = np.array([e.rmax for e in admitted], dtype=np.int64)
        s_repr = np.array([e.rmse for e in admitted])
        rows = out[k * len(pairs):(k + 1) * len(pairs)]
        rows["sigma_a"], rows["sigma_b"], rows["w"] = pairs[:, 0], pairs[:, 1], w
        step = max(1, _BUILD_CHUNK // len(admitted))
        for p in range(0, len(pairs), step):
            sa, sb = pairs[p:p + step, :1], pairs[p:p + step, 1:]
            a_abs, b_abs = uniform_extremes(sa, sb)
            stats = BatchStats(sigma_a=sa, sigma_b=sb, a_min=-a_abs, a_max=a_abs,
                               b_min=-b_abs, b_max=b_abs, L=L)
            c_a, c_b = optimal_companders(stats, rmax)
            total = combined_distortion(stats, c_a, c_b, s_repr)
            ratio = signal_power(stats) / total
            snr = 10.0 * np.fromiter(map(math.log10, ratio.ravel().tolist()),
                                     dtype=np.float64, count=ratio.size).reshape(ratio.shape)
            best = (np.arange(len(snr)), snr.argmax(axis=1))
            chunk = rows[p:p + step]
            chunk["rmax"], chunk["c_a"], chunk["c_b"], chunk["snr_db"] = \
                rmax[best[1]], c_a[best], c_b[best], snr[best]
    out.flags.writeable = False
    return out


def lookup_nearest_solution(table: np.ndarray, sigma_a, sigma_b, w: int) -> np.ndarray:
    """Stored solution of W with the closest sigmas; ties go to the earlier row.

    Distance is squared Euclidean in linear sigma. A NaN distance never
    displaces an earlier row, so a NaN query returns the first row of W.
    The sigmas, floats or arrays, broadcast together; the rows returned, of
    ``table``'s dtype, have that shape (0-d for float sigmas), one row per
    query.
    """
    rows = table[table["w"] == w]
    if not len(rows):
        raise CalibrationMissingError(f"solution table has no entries for W={w}")
    qa, qb = np.broadcast_arrays(np.asarray(sigma_a, dtype=np.float64),
                                 np.asarray(sigma_b, dtype=np.float64))
    with np.errstate(invalid="ignore", over="ignore"):
        da = qa[..., None] - rows["sigma_a"]
        db = qb[..., None] - rows["sigma_b"]
        d = da * da + db * db
    # the first minimum, where a NaN distance never wins, or row 0 if its is NaN
    first_nan = np.isnan(d[..., 0])
    d[np.isnan(d)] = np.inf
    near = np.where(first_nan, 0, d.argmin(axis=-1))
    return rows[near.reshape(-1)].reshape(qa.shape)


# ---------------------------------------------------------------------------
# persistence: every table file goes through ``write_table`` and ``read_table``

def write_table(path, header, rows) -> None:
    """The version line, the header and ``rows`` (one field per header
    column), streamed: each field as its ``str`` (a float's ``repr``, which
    reads back as the same float), each row ended by ``\\r\\n``: the bytes
    ``csv.writer`` writes, as no field holds a character it would quote."""
    line = ",".join(["{}"] * len(header)) + "\r\n"  # "{}" formats a field as its str
    with open(path, "w", newline="") as f:
        f.write(f"# version {FORMAT_VERSION}\n" + line.format(*header))
        f.writelines(starmap(line.format, rows))


def _data_lines(path, header) -> list:
    """The lines after a table file's version line and header, both checked."""
    with open(path, newline="") as f:
        first = f.readline().strip()
        if not first.startswith("# version"):
            raise TableFormatError(f"{path}: missing version header")
        try:
            version = int(first.split()[-1])
        except ValueError as exc:
            raise TableFormatError(f"{path}: malformed version line {first!r}") from exc
        if version != FORMAT_VERSION:
            raise TableFormatError(
                f"{path}: unsupported version {version}, expected {FORMAT_VERSION}"
            )
        got_header = next(csv.reader([f.readline()]), None)
        if got_header != header:
            raise TableFormatError(f"{path}: unexpected header {got_header}")
        return f.readlines()


def _typed_rows(path, lines, header, fields) -> list:
    """Each nonblank row of ``lines``, a field at a time, as ``read_table``
    takes it; a row with the wrong number of fields, or a field that does
    not convert or is out of range, raises TableFormatError naming the file
    and line."""
    reader = csv.reader(lines)
    out = []
    for row in reader:
        if not row:
            continue
        where = f"{path}, line {reader.line_num + 2}"  # after version and header
        if len(row) != len(header):
            raise TableFormatError(f"{where}: {len(row)} fields, expected {len(header)}")
        values = []
        for name, (kind, lo), v in zip(header, fields, row):
            try:
                x = kind(v)
                if lo is not None and not (-math.inf < x < math.inf and x >= lo):
                    raise ValueError(v)
            except ValueError as exc:
                raise TableFormatError(f"{where}: bad {name} value {v!r}") from exc
            values.append(x)
        out.append(tuple(values))
    return out


def read_table(path, header, fields) -> list:
    """The rows of a table file as tuples. ``fields`` holds a ``(kind, lo)``
    per column: ``kind`` converts the text and, unless ``lo`` is None, the
    value must be finite and at least ``lo``. The fast parse splits each
    line once at its commas, converts each column with one ``map`` and
    checks the columns whole; a file with a line it does not take (a quote,
    a wrong field count, a bad value) is parsed again by ``_typed_rows``,
    which names the line."""
    lines = _data_lines(path, header)
    rows = [t.split(",") for t in (line.rstrip("\r\n") for line in lines) if t]
    if not any('"' in line for line in lines) and all(len(r) == len(header) for r in rows):
        try:
            cols = [list(map(kind, col)) for (kind, _lo), col in zip(fields, zip(*rows))]
        except ValueError:  # a bad field
            cols = None
        if cols is not None and all(
                lo is None or min(col) >= lo and (kind is int or all(map(math.isfinite, col)))
                for col, (kind, lo) in zip(cols, fields)):
            return list(zip(*cols))
    return _typed_rows(path, lines, header, fields)


CALIB_HEADER = ["precision", "mode", "W", "rmax", "mean_err", "rmse", "trials", "seed"]
SPEEDUP_HEADER = ["precision", "mode", "W", "L", "fw_percent", "mac_ratio", "reps"]
SOLUTION_HEADER = ["sigma_a", "sigma_b", "W", "rmax", "c_a", "c_b", "snr_db"]

_TEXT, _INT, _FLOAT, _FINITE = (str, None), (int, None), (float, None), (float, -math.inf)
# a NaN or infinite mean_err or rmse, a negative rmse, or a W or R_max below 1
# is malformed: the planner would take it as a measurement
CALIB_FIELDS = (_TEXT, _TEXT, (int, 1), (int, 1), _FINITE, (float, 0.0), _INT, _INT)
# an infinite gain would let an acceleration floor demote all but one subblock
SPEEDUP_FIELDS = (_TEXT, _TEXT, _INT, _INT, _FINITE, _FINITE, _INT)
# any float, NaN included
SOLUTION_FIELDS = (_FLOAT, _FLOAT, _INT, _INT, _FLOAT, _FLOAT, _FLOAT)


def save_calibration(table: CalibrationTable, path) -> None:
    write_table(path, CALIB_HEADER, table.entries)


def load_calibration(path) -> CalibrationTable:
    return CalibrationTable([CalibEntry(*r) for r in read_table(path, CALIB_HEADER, CALIB_FIELDS)])


def save_speedup(profile: SpeedupProfile, path) -> None:
    write_table(path, SPEEDUP_HEADER, map(astuple, profile.entries))


def load_speedup(path) -> SpeedupProfile:
    return SpeedupProfile([ProfileEntry(*r) for r in read_table(path, SPEEDUP_HEADER,
                                                                 SPEEDUP_FIELDS)])


# rows per step of a save, which bounds its memory whatever the table size
_SAVE_CHUNK = 1 << 10


def save_solutions(table: np.ndarray, path) -> None:
    write_table(path, SOLUTION_HEADER, (row for k in range(0, len(table), _SAVE_CHUNK)
                                        for row in table[k:k + _SAVE_CHUNK].tolist()))


def load_solutions(path) -> np.ndarray:
    table = np.array(read_table(path, SOLUTION_HEADER, SOLUTION_FIELDS), dtype=SOLUTION_DTYPE)
    table.flags.writeable = False
    return table
