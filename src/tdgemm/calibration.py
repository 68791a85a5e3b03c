"""Offline measurement artifacts: representation-noise curves m/s(R_max, W),
throughput profiling F_W, and the precomputed compander-solution table (one
structured array, built per W by an array search over sigma pairs and R_max)
with nearest-sigma runtime lookup. All three persist as versioned CSV files.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, field

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
    # (entries list, its length, {key: first entry}); rebuilt when either changes
    _index: tuple = field(default=None, init=False, repr=False, compare=False)

    def add(self, entry: CalibEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    def slice(self, precision: str, mode: str, w: int):
        out = [e for e in self.entries if (e.precision, e.mode, e.w) == (precision, mode, w)]
        return sorted(out, key=lambda e: e.rmax)

    def lookup(self, precision: str, mode: str, w: int, rmax: int) -> CalibEntry:
        """Entry for the key; on duplicate keys the earliest entry wins."""
        entries = self.entries
        if self._index is None or self._index[0] is not entries \
                or self._index[1] != len(entries):
            by_key = {}
            for e in entries:
                by_key.setdefault(e.key, e)
            self._index = (entries, len(entries), by_key)
        entry = self._index[2].get((precision, mode, w, rmax))
        if entry is None:
            raise CalibrationMissingError(
                f"no calibration entry for ({precision}, {mode}, W={w}, rmax={rmax})"
            )
        return entry

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
    noise; the reference is the float64 product of the same tiles (exact at
    these amplitudes). The packed product measured is ``packing.packed_product``,
    the one ``multiply`` executes.
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
            exact = at.astype(np.float64) @ bt.astype(np.float64)
            got = packing.packed_product(at, bt, mode, w, z)
            err = got.astype(np.float64) - exact
            sq_sum += float((err * err).sum())
            err_sum += float(err.sum())
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


def measure_speedup_profile(L: int, precision: str, mode: str, w_set=(2, 3, 4),
                            repetitions: int = 5, seed: int = 0) -> SpeedupProfile:
    """Median wall-clock of the packed pipeline vs plain, as percentile gain.

    The plain baseline is the order-matched ``plain_subblock_gemm``, not
    ``np.matmul``: ``fw_percent`` is the gain of a packed subblock over a
    plain one inside ``tiered_gemm``.
    """
    if repetitions < 3:
        raise InvalidConfigError("repetitions must be >= 3")
    dtype = dtype_of(precision)
    rng = _rng_for(seed, _PREC_CODE[precision], _MODE_CODE[mode], 99)
    at = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(dtype))
    bt = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(dtype))

    def run_plain():
        plain_subblock_gemm(at, bt)

    def run_packed(w, z):
        packing.packed_product(at, bt, mode, w, z)

    def timed(fn):
        fn()  # warm-up
        samples = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    t_plain = timed(run_plain)
    if t_plain < 100 * _timer_resolution():
        raise TimerResolutionError(
            f"plain pipeline at L={L} runs in {t_plain:.2e}s, below reliable timer "
            "resolution; increase L or batch the measurement"
        )
    rmax = packing.compute_rmax(1.0, 1.0, L, 20, 20)
    z = packing.compute_z(rmax)
    profile = SpeedupProfile()
    for w in sorted(set(w_set)):
        if w == 1:
            continue
        t_packed = timed(lambda: run_packed(w, z))
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
    table order; the per-W sigmas and row positions lookups read are indexed here.
    ``_search_of`` maps each W to the first W whose sigma columns are bitwise
    the same, whose nearest-row search it shares."""

    def __init__(self, data):
        self.data = np.array(data, dtype=_SOLUTION_DTYPE)
        self.data.flags.writeable = False
        self._by_w, self._search_of, first = {}, {}, {}
        for w in np.unique(self.data["w"]).tolist():
            pos = np.flatnonzero(self.data["w"] == w)
            sa, sb = self.data["sigma_a"][pos], self.data["sigma_b"][pos]
            self._by_w[w] = (sa, sb, pos)
            self._search_of[w] = first.setdefault((sa.tobytes(), sb.tobytes()), w)

    def ws(self):
        return sorted(self._by_w)


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


# distances per step of the nearest-solution search, which bounds its
# temporaries whatever the number of queries
_LOOKUP_CHUNK = 1 << 15


def lookup_nearest_solution(table: OfflineSolutionTable, sigma_a, sigma_b, w):
    """Stored solution with the closest sigmas; ties go to the earlier row.

    Distance is squared Euclidean in linear sigma. A NaN distance never
    displaces an earlier row, so a NaN query returns the first row of W.
    The sigmas, floats or arrays, broadcast together; the CompanderSolution
    returned holds c_a, c_b, rmax and expected_snr_db as arrays of that
    shape (0-d for float sigmas), one entry per query. ``w`` is one W, or a
    sequence of them: then a tuple of one CompanderSolution per W comes back,
    and every W whose rows hold the same sigma columns (all of them, in a
    ``build_offline_solutions`` table) is served by one search.
    """
    ws = [w] if np.ndim(w) == 0 else list(w)
    missing = [v for v in ws if v not in table._by_w]
    if missing:
        raise CalibrationMissingError(f"solution table has no entries for W={missing[0]}")
    qa, qb = np.broadcast_arrays(np.asarray(sigma_a, dtype=np.float64),
                                 np.asarray(sigma_b, dtype=np.float64))
    near = {}
    out = []
    for v in ws:
        key = table._search_of[v]
        if key not in near:
            near[key] = _nearest_rows(qa.ravel(), qb.ravel(), *table._by_w[key][:2])
        found = table.data[table._by_w[v][2][near[key]]].reshape(qa.shape)
        out.append(CompanderSolution(c_a=found["c_a"], c_b=found["c_b"], rmax=found["rmax"],
                                     expected_snr_db=found["snr_db"], w=v))
    return out[0] if np.ndim(w) == 0 else tuple(out)


def _nearest_rows(qa, qb, sa, sb):
    """Per query, the position of the first row of least distance.

    The search runs over chunks of queries of about ``_LOOKUP_CHUNK``
    distances.
    """
    # only a NaN or infinite sigma makes a NaN distance
    finite = all(np.isfinite(x).all() for x in (qa, qb, sa, sb))
    near = np.empty(qa.size, dtype=np.intp)
    step = max(1, min(qa.size, _LOOKUP_CHUNK // len(sa)))
    buf_a, buf_b = np.empty((step, len(sa))), np.empty((step, len(sa)))
    with np.errstate(invalid="ignore", over="ignore"):
        for q in range(0, qa.size, step):
            g = min(step, qa.size - q)
            d, d_b = buf_a[:g], buf_b[:g]
            np.subtract(qa[q:q + g, None], sa, out=d)
            np.subtract(qb[q:q + g, None], sb, out=d_b)
            d *= d
            d_b *= d_b
            d += d_b
            if finite:
                near[q:q + g] = d.argmin(axis=1)
                continue
            # the first minimum of the rest, or row 0 if its distance is NaN
            first_nan = np.isnan(d[:, 0])
            d[np.isnan(d)] = np.inf
            i = d.argmin(axis=1)
            i[first_nan] = 0
            near[q:q + g] = i
    return near


# ---------------------------------------------------------------------------
# persistence

def _write_csv(path, header, rows):
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
    rows = [
        [e.precision, e.mode, e.w, e.rmax, repr(e.mean_err), repr(e.rmse), e.trials, e.seed]
        for e in table.entries
    ]
    _write_csv(path, CALIB_HEADER, rows)


def load_calibration(path) -> CalibrationTable:
    lines = _data_lines(path, CALIB_HEADER)
    types = (str, str, int, int, float, float, int, int)
    return CalibrationTable([CalibEntry(*r) for r in _typed_rows(path, lines, CALIB_HEADER, types)])


def save_speedup(profile: SpeedupProfile, path) -> None:
    rows = [
        [e.precision, e.mode, e.w, e.L, repr(e.fw_percent), repr(e.mac_ratio), e.reps]
        for e in profile.entries
    ]
    _write_csv(path, SPEEDUP_HEADER, rows)


def load_speedup(path) -> SpeedupProfile:
    lines = _data_lines(path, SPEEDUP_HEADER)
    types = (str, str, int, int, float, float, int)
    return SpeedupProfile([ProfileEntry(*r) for r in _typed_rows(path, lines, SPEEDUP_HEADER, types)])


# rows per step of a save, which bounds its memory whatever the table size
_SAVE_CHUNK = 1 << 10


def save_solutions(table: OfflineSolutionTable, path) -> None:
    data = table.data
    rows = ([repr(sa), repr(sb), w, rmax, repr(ca), repr(cb), repr(snr)]
            for k in range(0, len(data), _SAVE_CHUNK)
            for sa, sb, w, rmax, ca, cb, snr in data[k:k + _SAVE_CHUNK].tolist())
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
