"""Offline measurement artifacts: representation-noise curves m/s(R_max, W),
throughput profiling F_W, and the compander-solution table (one structured
array, built per W by an array search over sigma pairs and R_max). All three
persist as versioned CSV files.

The planner reads only the first two. Under ``uniform_extremes`` every term
of the noise model scales as (sigma_a * sigma_b)^2, so the SNR-best R_max of
a W is the same for every sigma pair, and ``controller.build_options`` takes
it from ``build_offline_solutions`` at the one pair (1, 1). The full table is
an offline report; ``load_solutions`` and ``lookup_nearest_solution`` read it
back.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from . import packing
from .blocking import plain_subblock_gemm
from .config import dtype_of, PRECISIONS
from .errors import (
    CalibrationMissingError,
    InvalidConfigError,
    TableFormatError,
    TimerResolutionError,
)
from .noise import (BatchStats, CompanderSolution, combined_distortion, optimal_companders,
                    signal_power)

FORMAT_VERSION = 1

_PREC_CODE = {p: i for i, p in enumerate(PRECISIONS)}
_MODE_CODE = {m: i for i, m in enumerate(packing.MODES)}


def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


@dataclass(frozen=True)
class CalibEntry:
    precision: str
    mode: str
    w: int
    rmax: int
    mean_err: float
    rmse: float
    trials: int
    seed: int

    @property
    def key(self):
        return (self.precision, self.mode, self.w, self.rmax)


@dataclass
class CalibrationTable:
    entries: list = field(default_factory=list)

    def add(self, entry: CalibEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    def slice(self, precision: str, mode: str, w: int):
        out = [e for e in self.entries if (e.precision, e.mode, e.w) == (precision, mode, w)]
        return sorted(out, key=lambda e: e.rmax)

    def lookup(self, precision: str, mode: str, w: int, rmax: int) -> CalibEntry:
        """Entry for the key; on duplicate keys the earliest entry wins."""
        key = (precision, mode, w, rmax)
        for e in self.entries:
            if e.key == key:
                return e
        raise CalibrationMissingError(
            f"no calibration entry for ({precision}, {mode}, W={w}, rmax={rmax})"
        )

    def admitted(self, precision: str, mode: str, w: int, rmax_cap: int | None = None):
        """Entries usable by the controller: near-zero bias, optional R_max cap."""
        return [e for e in self.slice(precision, mode, w)
                if not (rmax_cap is not None and e.rmax > rmax_cap
                        or abs(e.mean_err) / e.rmax >= BIAS_LIMIT)]


# largest admitted |mean error| / R_max
BIAS_LIMIT = 1e-4
# double precision W=4 breaks down early; larger R_max values are never admitted
DEFAULT_RMAX_CAPS = {("double", 4): 120000}


def amplitude_sweep(L: int, bmax_values=range(1, 64)):
    """Integer extremes for the noise-curve grid: fixed amax=22, swept bmax.

    Keeping the amplitude ratio fixed across tile sides preserves the sweep's
    relative geometry; the resulting R_max = 22 * L * bmax grid scales with L.
    """
    return [(22, int(b)) for b in bmax_values]


def measure_repr_noise(L: int, precision: str, mode: str, w: int,
                       sweep=None, trials: int = 5, seed: int = 0):
    """Measure mean error and per-element RMSE of packed multiplication.

    Integer uniform tiles with unit companders isolate the representation
    noise; the reference is the product of the same tiles, exact in any
    summation order because every partial sum is an integer of magnitude at
    most R_max: in the tiles' own precision when R_max is below its exact
    integer limit, else in float64. The packed product measured is
    ``packing.packed_product``: the pack, multiply and unpack that
    ``multiply`` runs on a packed subblock (both go through
    ``packing._pack_multiply_unpack``), without its quantize and dequantize.
    """
    if w < 2:
        raise InvalidConfigError("representation noise is only defined for W >= 2")
    if trials < 1:
        raise InvalidConfigError("trials must be >= 1")
    if sweep is None:
        sweep = amplitude_sweep(L)
    dtype = dtype_of(precision)
    out = []
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
            got = packing.packed_product(at, bt, mode, w, z)
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

    def fw(self, precision: str, mode: str, w: int) -> float:
        if w == 1:
            return 0.0
        for e in self.entries:
            if (e.precision, e.mode, e.w) == (precision, mode, w):
                return e.fw_percent
        raise CalibrationMissingError(
            f"no speedup profile entry for ({precision}, {mode}, W={w})"
        )


# least wall time of one timed sample in measure_speedup_profile: at L=48 a
# single call (~0.06-0.1 ms) is too short to fix the sign of a gain
_SAMPLE_S = 1e-3


def measure_speedup_profile(L: int, precision: str, mode: str, w_set=(2, 3, 4),
                            repetitions: int = 5, seed: int = 0) -> SpeedupProfile:
    """Median wall-clock of a packed subblock vs a plain one, as percentile gain.

    Each side is timed as ``tiered_gemm`` runs it on one L x L subblock:
    ``packing.packed_subblock_product`` with unit companders, whose quantize
    and dequantize are part of the cost, against the order-matched
    ``plain_subblock_gemm``, not ``np.matmul``, on the same integer tiles.
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

    def timed(fn, *args):
        batch = 0
        t0 = time.perf_counter()
        while True:  # warm-up, which sizes the batch
            fn(*args)
            batch += 1
            if time.perf_counter() - t0 >= _SAMPLE_S:
                break
        samples = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn(*args)
            samples.append(time.perf_counter() - t0)
        sample = statistics.median(samples)
        if sample < 100 * _timer_resolution():
            raise TimerResolutionError(
                f"a sample of {batch} {fn.__name__} calls at L={L} lasts {sample:.2e}s, "
                "below reliable timer resolution"
            )
        return sample / batch

    t_plain = timed(plain_subblock_gemm, at, bt)
    rmax = packing.compute_rmax(1.0, 1.0, L, 20, 20)
    z = packing.compute_z(rmax)
    profile = SpeedupProfile()
    for w in sorted(set(w_set)):
        if w == 1:
            continue
        cfg = packing.PackingConfig(mode=mode, w=w, z=z, c_a=1.0, c_b=1.0, rmax=rmax)
        t_packed = timed(packing.packed_subblock_product, at, bt, cfg)
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


def log_sigma_grid(lo: float = 1e-2, hi: float = 1e3, per_decade: int = 8):
    """Logarithmically spaced sigma values covering the input dynamic ranges."""
    n = int(round(math.log10(hi / lo) * per_decade)) + 1
    return [lo * 10.0 ** (i / per_decade) for i in range(n)]


def uniform_extremes(sigma_a: float, sigma_b: float):
    """Extremes of zero-mean uniform laws with the given sigmas."""
    return math.sqrt(3.0) * sigma_a, math.sqrt(3.0) * sigma_b


# a solution table as a structured array: one record per row, fields in file order
_SOLUTION_DTYPE = np.dtype([("sigma_a", "f8"), ("sigma_b", "f8"), ("w", "i8"), ("rmax", "i8"),
                            ("c_a", "f8"), ("c_b", "f8"), ("snr_db", "f8")])


class OfflineSolutionTable:
    """Stored compander solutions, one per (sigma_a, sigma_b, W): ``data`` is a
    read-only copy of the rows as a structured array of ``_SOLUTION_DTYPE``, in
    table order."""

    def __init__(self, data):
        self.data = np.array(data, dtype=_SOLUTION_DTYPE)
        self.data.flags.writeable = False


# (sigma pair, R_max) elements per step of the solution build, which bounds
# its temporaries whatever the sigma grid
_BUILD_CHUNK = 1 << 11


def build_offline_solutions(sigma_pairs, calib: CalibrationTable, precision: str, mode: str,
                            L: int, w_set=(2, 3, 4)) -> OfflineSolutionTable:
    """Precompute the best operating point per (sigma_a, sigma_b, W).

    Each sigma pair stands for zero-mean uniform operands
    (``uniform_extremes``). Per W, one array pass over the (pair, admitted
    R_max) elements, a chunk of about ``_BUILD_CHUNK`` at a time, computes
    the optimal companders and the model SNR at every admitted R_max; each
    pair keeps the first R_max, in ascending order, of highest SNR. The SNR
    is ``10 * math.log10`` per element, because ``np.log10`` is not bitwise
    ``math.log10``. Rows are in W order, then pair order.
    """
    ws = sorted(set(w_set))
    pairs = np.array(sigma_pairs, dtype=np.float64).reshape(-1, 2)
    out = np.empty(len(ws) * len(pairs), dtype=_SOLUTION_DTYPE)
    for k, w in enumerate(ws):
        admitted = calib.admitted(precision, mode, w,
                                  rmax_cap=DEFAULT_RMAX_CAPS.get((precision, w)))
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
            sol = optimal_companders(stats, rmax, s_repr=s_repr, w=w)
            total = combined_distortion(stats, sol.c_a, sol.c_b, s_repr).total
            ratio = signal_power(stats) / total
            snr = 10.0 * np.fromiter(map(math.log10, ratio.ravel().tolist()),
                                     dtype=np.float64, count=ratio.size).reshape(ratio.shape)
            best = (np.arange(len(snr)), snr.argmax(axis=1))
            chunk = rows[p:p + step]
            chunk["rmax"], chunk["c_a"], chunk["c_b"], chunk["snr_db"] = \
                rmax[best[1]], sol.c_a[best], sol.c_b[best], snr[best]
    return OfflineSolutionTable(out)


def lookup_nearest_solution(table: OfflineSolutionTable, sigma_a, sigma_b, w: int):
    """Stored solution of W with the closest sigmas; ties go to the earlier row.

    Distance is squared Euclidean in linear sigma. A NaN distance never
    displaces an earlier row, so a NaN query returns the first row of W.
    The sigmas, floats or arrays, broadcast together; the CompanderSolution
    returned holds c_a, c_b, rmax and expected_snr_db as arrays of that
    shape (0-d for float sigmas), one entry per query.
    """
    rows = table.data[table.data["w"] == w]
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
    found = rows[near.reshape(-1)].reshape(qa.shape)
    return CompanderSolution(c_a=found["c_a"], c_b=found["c_b"], rmax=found["rmax"],
                             expected_snr_db=found["snr_db"], w=w)


# ---------------------------------------------------------------------------
# persistence

def _write_csv(path, header, rows):
    """The version line, the header and ``rows``; ``csv.writer`` writes a
    Python float as its ``repr``, which reads back as the same float."""
    with open(path, "w", newline="") as f:
        f.write(f"# version {FORMAT_VERSION}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


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


def _typed_rows(path, lines, header, types) -> list:
    """Each nonblank row of ``lines`` with its fields converted by ``types``.

    A row with the wrong number of fields, or a field that does not convert,
    raises TableFormatError naming the file and line.
    """
    reader = csv.reader(lines)
    out = []
    for row in reader:
        if not row:
            continue
        where = f"{path}, line {reader.line_num + 2}"  # after version and header
        if len(row) != len(header):
            raise TableFormatError(f"{where}: {len(row)} fields, expected {len(header)}")
        fields = []
        for name, kind, v in zip(header, types, row):
            try:
                fields.append(kind(v))
            except ValueError as exc:
                raise TableFormatError(f"{where}: bad {name} value {v!r}") from exc
        out.append(fields)
    return out


CALIB_HEADER = ["precision", "mode", "W", "rmax", "mean_err", "rmse", "trials", "seed"]
SPEEDUP_HEADER = ["precision", "mode", "W", "L", "fw_percent", "mac_ratio", "reps"]
SOLUTION_HEADER = ["sigma_a", "sigma_b", "W", "rmax", "c_a", "c_b", "snr_db"]


def save_calibration(table: CalibrationTable, path) -> None:
    _write_csv(path, CALIB_HEADER, map(astuple, table.entries))


def _finite_float(lo: float = -math.inf):
    """A field parser that takes only a finite float of at least ``lo``."""
    def parse(text: str) -> float:
        x = float(text)
        if not (math.isfinite(x) and x >= lo):
            raise ValueError(text)
        return x
    return parse


def load_calibration(path) -> CalibrationTable:
    """The table in ``path``. A NaN or infinite ``mean_err`` or ``rmse``, or a
    negative ``rmse``, is a malformed row: the planner would take it as a
    measurement."""
    lines = _data_lines(path, CALIB_HEADER)
    types = (str, str, int, int, _finite_float(), _finite_float(0.0), int, int)
    return CalibrationTable([CalibEntry(*r) for r in _typed_rows(path, lines, CALIB_HEADER, types)])


def save_speedup(profile: SpeedupProfile, path) -> None:
    _write_csv(path, SPEEDUP_HEADER, map(astuple, profile.entries))


def load_speedup(path) -> SpeedupProfile:
    lines = _data_lines(path, SPEEDUP_HEADER)
    types = (str, str, int, int, float, float, int)
    return SpeedupProfile([ProfileEntry(*r) for r in _typed_rows(path, lines, SPEEDUP_HEADER, types)])


# rows per step of a save, which bounds its memory whatever the table size
_SAVE_CHUNK = 1 << 10


def save_solutions(table: OfflineSolutionTable, path) -> None:
    data = table.data
    rows = (row for k in range(0, len(data), _SAVE_CHUNK)
            for row in data[k:k + _SAVE_CHUNK].tolist())
    _write_csv(path, SOLUTION_HEADER, rows)


def load_solutions(path) -> OfflineSolutionTable:
    """The table as one structured array, parsed by one ``np.loadtxt`` call."""
    lines = _data_lines(path, SOLUTION_HEADER)
    if any(map(str.strip, lines)):
        try:
            return OfflineSolutionTable(np.loadtxt(
                lines, delimiter=",", dtype=_SOLUTION_DTYPE, ndmin=1, comments=None))
        except ValueError:
            pass  # parsed again below, row by row, to name the line at fault
    types = (float, float, int, int, float, float, float)
    rows = _typed_rows(path, lines, SOLUTION_HEADER, types)
    return OfflineSolutionTable([tuple(r) for r in rows])
