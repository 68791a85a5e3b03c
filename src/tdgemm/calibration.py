"""Offline measurement artifacts: representation-noise curves m/s(R_max, W),
throughput profiling F_W, and the precomputed compander-solution table with
nearest-sigma runtime lookup. All three persist as versioned CSV files.
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
from .noise import CompanderSolution, InputStats, optimize_rmax

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

    def admitted(self, precision: str, mode: str, w: int,
                 bias_limit: float = 1e-4, rmax_cap: int | None = None):
        """Entries usable by the controller: near-zero bias, optional R_max cap."""
        out = []
        for e in self.slice(precision, mode, w):
            if rmax_cap is not None and e.rmax > rmax_cap:
                continue
            if abs(e.mean_err) / e.rmax >= bias_limit:
                continue
            out.append(e)
        return out


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
    noise; the reference is the plain W=1 product of the same tiles (exact at
    these amplitudes in either precision).
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
            if mode == packing.SYMMETRIC:
                abar, bbar = packing.pack_symmetric(at, bt, w, z)
                got = packing.unpack_symmetric(packing.multiply_packed_symmetric(abar, bbar), z)
            else:
                abar = packing.pack_asymmetric(at, w, z)
                got = packing.unpack_asymmetric(packing.multiply_packed_asymmetric(abar, bt), z, w)
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

    def available_ws(self, precision: str, mode: str):
        return sorted({e.w for e in self.entries if (e.precision, e.mode) == (precision, mode)})


def measure_speedup_profile(L: int, precision: str, mode: str, w_set=(2, 3, 4),
                            repetitions: int = 5, seed: int = 0) -> SpeedupProfile:
    """Median wall-clock of the packed pipeline vs plain, as percentile gain."""
    if repetitions < 3:
        raise InvalidConfigError("repetitions must be >= 3")
    dtype = dtype_of(precision)
    rng = _rng_for(seed, _PREC_CODE[precision], _MODE_CODE[mode], 99)
    at = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(dtype))
    bt = packing.round_half_away(rng.uniform(-20, 20, size=(L, L)).astype(dtype))

    def run_plain():
        plain_subblock_gemm(at, bt)

    def run_packed(w, z):
        if mode == packing.SYMMETRIC:
            abar, bbar = packing.pack_symmetric(at, bt, w, z)
            packing.unpack_symmetric(packing.multiply_packed_symmetric(abar, bbar), z)
        else:
            abar = packing.pack_asymmetric(at, w, z)
            packing.unpack_asymmetric(packing.multiply_packed_asymmetric(abar, bt), z, w)

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


@dataclass(frozen=True)
class SolutionRow:
    sigma_a: float
    sigma_b: float
    solution: CompanderSolution


@dataclass
class OfflineSolutionTable:
    rows: list = field(default_factory=list)
    # (rows list, its length, {W: (sigma_a array, sigma_b array, rows of W)});
    # rebuilt when either changes
    _index: tuple = field(default=None, init=False, repr=False, compare=False)

    def ws(self):
        return sorted({r.solution.w for r in self.rows})

    def rows_by_w(self) -> dict:
        """Per W, float64 arrays of the rows' sigmas and the rows, in table order."""
        rows = self.rows
        if self._index is None or self._index[0] is not rows \
                or self._index[1] != len(rows):
            groups = {}
            for r in rows:
                groups.setdefault(r.solution.w, []).append(r)
            by_w = {
                w: (np.array([r.sigma_a for r in g], dtype=np.float64),
                    np.array([r.sigma_b for r in g], dtype=np.float64), g)
                for w, g in groups.items()
            }
            self._index = (rows, len(rows), by_w)
        return self._index[2]


def build_offline_solutions(sigma_pairs, calib: CalibrationTable, precision: str, mode: str,
                            L: int, w_set=(2, 3, 4), extremes_model=uniform_extremes,
                            bias_limit: float = 1e-4,
                            rmax_caps=DEFAULT_RMAX_CAPS) -> OfflineSolutionTable:
    """Precompute the best operating point per (sigma_a, sigma_b, W)."""
    table = OfflineSolutionTable()
    for w in sorted(set(w_set)):
        admitted = calib.admitted(precision, mode, w, bias_limit=bias_limit,
                                  rmax_cap=rmax_caps.get((precision, w)))
        if not admitted:
            raise CalibrationMissingError(
                f"no admitted calibration entries for ({precision}, {mode}, W={w})"
            )
        view = CalibrationTable(entries=admitted)
        for sa, sb in sigma_pairs:
            a_abs, b_abs = extremes_model(sa, sb)
            stats = InputStats(sigma_a=sa, sigma_b=sb, a_min=-a_abs, a_max=a_abs,
                               b_min=-b_abs, b_max=b_abs, L=L)
            sol = optimize_rmax(stats, w, mode, precision, view)
            table.rows.append(SolutionRow(sigma_a=sa, sigma_b=sb, solution=sol))
    return table


def lookup_nearest_solution(table: OfflineSolutionTable, sigma_a: float, sigma_b: float,
                            w: int) -> CompanderSolution:
    """Stored solution with the closest sigmas; ties go to the earlier row.

    Distance is squared Euclidean in linear sigma. A NaN distance never
    displaces an earlier row, so a NaN query returns the first row of W.
    """
    group = table.rows_by_w().get(w)
    if group is None:
        raise CalibrationMissingError(f"solution table has no entries for W={w}")
    sa, sb, rows = group
    with np.errstate(invalid="ignore", over="ignore"):
        d = (sigma_a - sa) ** 2 + (sigma_b - sb) ** 2
    i = int(np.argmin(d))  # the first minimum, or the first NaN if there is one
    if i and math.isnan(d[i]):
        i = int(np.nanargmin(d))  # d[0] is not NaN here
    return rows[i].solution


# ---------------------------------------------------------------------------
# persistence

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(f"# version {FORMAT_VERSION}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header):
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
        reader = csv.reader(f)
        got_header = next(reader, None)
        if got_header != header:
            raise TableFormatError(f"{path}: unexpected header {got_header}")
        return [row for row in reader if row]


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
    table = CalibrationTable()
    for row in _read_csv(path, CALIB_HEADER):
        table.add(
            CalibEntry(
                precision=row[0], mode=row[1], w=int(row[2]), rmax=int(row[3]),
                mean_err=float(row[4]), rmse=float(row[5]), trials=int(row[6]),
                seed=int(row[7]),
            )
        )
    return table


def save_speedup(profile: SpeedupProfile, path) -> None:
    rows = [
        [e.precision, e.mode, e.w, e.L, repr(e.fw_percent), repr(e.mac_ratio), e.reps]
        for e in profile.entries
    ]
    _write_csv(path, SPEEDUP_HEADER, rows)


def load_speedup(path) -> SpeedupProfile:
    profile = SpeedupProfile()
    for row in _read_csv(path, SPEEDUP_HEADER):
        profile.entries.append(
            ProfileEntry(
                precision=row[0], mode=row[1], w=int(row[2]), L=int(row[3]),
                fw_percent=float(row[4]), mac_ratio=float(row[5]), reps=int(row[6]),
            )
        )
    return profile


def save_solutions(table: OfflineSolutionTable, path) -> None:
    rows = [
        [repr(r.sigma_a), repr(r.sigma_b), r.solution.w, r.solution.rmax,
         repr(r.solution.c_a), repr(r.solution.c_b), repr(r.solution.expected_snr_db)]
        for r in table.rows
    ]
    _write_csv(path, SOLUTION_HEADER, rows)


def load_solutions(path) -> OfflineSolutionTable:
    table = OfflineSolutionTable()
    for row in _read_csv(path, SOLUTION_HEADER):
        table.rows.append(
            SolutionRow(
                sigma_a=float(row[0]),
                sigma_b=float(row[1]),
                solution=CompanderSolution(
                    c_a=float(row[4]), c_b=float(row[5]), rmax=int(row[3]),
                    expected_snr_db=float(row[6]), w=int(row[2]),
                ),
            )
        )
    return table
