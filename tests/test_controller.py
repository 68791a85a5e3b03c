import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdgemm import calibration as cal, controller as ctl, noise, packing
from tdgemm.blocking import reorder_block_major, tiered_gemm
from tdgemm.errors import CalibrationMissingError, InfeasibleConstraintError, InvalidConfigError
from tdgemm.noise import InputStats


def opt(l, w, d_hat, fw=None):
    fw = (w - 1) * 100.0 if fw is None else fw
    return ctl.SubblockOption(l=l, w=w, mode="symmetric", c_a=1.0, c_b=1.0,
                              rmax=100 * w, z=2.0 ** -10, d_hat=d_hat, fw_percent=fw)


def synth_options(d_hats_per_l, ws=(2, 1)):
    """One option per W per subblock; W=1 always has zero distortion."""
    out = []
    for l, ds in enumerate(d_hats_per_l):
        opts = [opt(l, w, d) for w, d in zip(ws[:-1], ds)]
        opts.append(opt(l, 1, 0.0))
        out.append(opts)
    return out


class TestSnrToDistortion:
    def test_formula(self):
        assert ctl.snr_to_distortion(10.0, [(1.0, 1.0)], 4) == pytest.approx(0.4)

    def test_infinite_snr(self):
        assert ctl.snr_to_distortion(math.inf, [(1.0, 2.0)], 4) == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidConfigError):
            ctl.snr_to_distortion(10.0, [(-1.0, 1.0)], 4)


class TestDistortionPlanner:
    def test_no_pruning_when_budget_large(self):
        entry = ctl.plan_kernel_distortion(synth_options([[3.0], [1.0]]), 100.0)
        assert [o.w for o in entry.choices] == [2, 2]
        assert entry.prune_trace == []

    def test_zero_budget_all_plain(self):
        entry = ctl.plan_kernel_distortion(synth_options([[3.0], [1.0]]), 0.0)
        assert [o.w for o in entry.choices] == [1, 1]

    def test_hand_simulated_trace(self):
        # budget 3: remove 5 (l=1), then 3 (l=0) -> total 1
        options = synth_options([[3.0], [5.0], [1.0]])
        entry = ctl.plan_kernel_distortion(options, 3.0)
        assert [(s.l, s.from_w, s.to_w) for s in entry.prune_trace] == [(1, 2, 1), (0, 2, 1)]
        assert [o.w for o in entry.choices] == [1, 1, 2]
        assert entry.total_d_hat == pytest.approx(1.0)

    def test_tie_demotes_lowest_l(self):
        entry = ctl.plan_kernel_distortion(synth_options([[2.0], [2.0]]), 2.0)
        assert entry.prune_trace[0].l == 0

    def test_multi_w_ladder(self):
        options = synth_options([[9.0, 2.0]], ws=(3, 2, 1))
        entry = ctl.plan_kernel_distortion(options, 2.5)
        assert entry.choices[0].w == 2

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
           st.floats(0.0, 20.0))
    @settings(max_examples=60)
    def test_bound_and_monotone_trace(self, ds, budget):
        entry = ctl.plan_kernel_distortion(synth_options([[d] for d in ds]), budget)
        assert entry.total_d_hat <= budget + 1e-12
        totals = [s.total_after for s in entry.prune_trace]
        assert totals == sorted(totals, reverse=True) or all(
            totals[i] >= totals[i + 1] - 1e-12 for i in range(len(totals) - 1)
        )

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4),
           st.floats(0.0, 20.0))
    @settings(max_examples=40)
    def test_greedy_matches_exhaustive_acceleration(self, ds, budget):
        options = synth_options([[d] for d in ds])
        entry = ctl.plan_kernel_distortion(options, budget)
        greedy_accel = entry.accel_percent
        best = -1.0
        for assign in itertools.product([0, 1], repeat=len(ds)):
            total = sum(d for d, bit in zip(ds, assign) if bit)
            if total <= budget:
                accel = 100.0 * sum(assign) / len(ds)
                best = max(best, accel)
        assert greedy_accel == pytest.approx(best)

    def test_relaxing_budget_never_lowers_w(self):
        options = synth_options([[3.0], [5.0], [1.0]])
        tight = ctl.plan_kernel_distortion(options, 2.0)
        loose = ctl.plan_kernel_distortion(options, 6.0)
        for a, b in zip(tight.choices, loose.choices):
            assert b.w >= a.w


class TestThroughputPlanner:
    def test_zero_floor_all_plain(self):
        entry = ctl.plan_kernel_throughput(synth_options([[3.0], [1.0]]), 0.0)
        assert [o.w for o in entry.choices] == [1, 1]

    def test_full_floor_keeps_max_w(self):
        entry = ctl.plan_kernel_throughput(synth_options([[3.0], [1.0]]), 100.0)
        assert [o.w for o in entry.choices] == [2, 2]

    def test_infeasible_reports_achievable(self):
        with pytest.raises(InfeasibleConstraintError) as exc:
            ctl.plan_kernel_throughput(synth_options([[3.0]]), 150.0)
        assert exc.value.achievable_percent == pytest.approx(100.0)

    def test_partial_floor_demotes_worst_first(self):
        entry = ctl.plan_kernel_throughput(synth_options([[3.0], [5.0], [1.0]]), 30.0)
        # one subblock can stay packed (accel 33.3%); the cheapest one survives
        assert [o.w for o in entry.choices] == [1, 1, 2]

    def test_matches_exhaustive_minimum_distortion(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ds = rng.uniform(0.1, 5.0, size=3)
            floor = float(rng.choice([0.0, 30.0, 60.0, 100.0]))
            entry = ctl.plan_kernel_throughput(synth_options([[d] for d in ds]), floor)
            best = math.inf
            for assign in itertools.product([0, 1], repeat=3):
                accel = 100.0 * sum(assign) / 3
                if accel >= floor - 1e-9:
                    best = min(best, sum(d for d, bit in zip(ds, assign) if bit))
            assert entry.total_d_hat == pytest.approx(best)


@pytest.fixture(scope="module")
def calib():
    L = 12
    calib = cal.CalibrationTable()
    calib.extend(cal.measure_repr_noise(L, "single", "symmetric", 2,
                                        sweep=[(2, b) for b in (1, 4, 16)],
                                        trials=3, seed=5))
    return calib


def option_lists(stats, calib, **kwargs):
    """Per-subblock option lists of a ``build_options`` call, symmetric mode."""
    options = ctl.build_options(stats, "symmetric", "single", calib, **kwargs)
    return ctl.option_lists(options, "symmetric")


class TestBuildOptions:
    def test_compander_product_invariant(self, calib):
        stats = [InputStats(2.0, 3.0, -4.0, 4.0, -6.0, 6.0, 12)]
        opts = option_lists(stats, calib, w_set=(2,))[0]
        packed = opts[0]
        ct = 12 * 4.0 * 6.0 / packed.rmax
        assert packed.c_a * packed.c_b * ct == pytest.approx(1.0)
        assert opts[-1].w == 1 and opts[-1].d_hat == 0.0

    def test_degenerate_sigma_only_plain(self, calib):
        stats = [InputStats(0.0, 3.0, -1.0, 1.0, -6.0, 6.0, 12)]
        opts = option_lists(stats, calib, w_set=(2,))[0]
        assert [o.w for o in opts] == [1]

    def test_one_array_per_w(self, calib):
        """W descending, W=1 last; a W array holds only the subblocks that have
        the W, so the lengths add up to the options built."""
        stats = [InputStats(2.0, 3.0, -4.0, 4.0, -6.0, 6.0, 12),
                 InputStats(0.0, 3.0, -1.0, 1.0, -6.0, 6.0, 12),
                 InputStats(1.0, 1.0, -2.0, 2.0, -2.0, 2.0, 12)]
        options = ctl.build_options(stats, "symmetric", "single", calib, w_set=(2,))
        assert [rows["w"].tolist() for rows in options] == [[2, 2], [1, 1, 1]]
        assert [rows["p"].tolist() for rows in options] == [[0, 2], [0, 1, 2]]
        lists = ctl.option_lists(options, "symmetric")
        assert sum(map(len, options)) == sum(map(len, lists)) == 5

    def test_d_hat_matches_monte_carlo(self, calib):
        rng = np.random.default_rng(32)
        L = 12
        a = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
        stats = [InputStats.from_tiles(a, b)]
        packed = option_lists(stats, calib, w_set=(2,))[0][0]
        exact = a.astype(np.float64) @ b.astype(np.float64)
        errs = []
        for _ in range(200):
            aa = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
            bb = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
            st_mc = InputStats.from_tiles(aa, bb)
            o = option_lists([st_mc], calib, w_set=(2,))[0][0]
            got = packing.packed_subblock_product(aa, bb, o.to_packing_config())
            e = got.astype(np.float64) - aa.astype(np.float64) @ bb.astype(np.float64)
            errs.append(float((e ** 2).mean()) / o.d_hat)
        assert abs(np.mean(errs) - 1.0) < 0.25


    def test_nonpositive_measured_gain_is_never_planned(self, calib):
        """W=1 dominates a packed option that costs accuracy and buys no speed."""
        rng = np.random.default_rng(34)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)

        def histogram(fw_percent, constraint):
            profile = cal.SpeedupProfile(
                [cal.ProfileEntry("single", "symmetric", 2, L, fw_percent, 2.0, 3)])
            plan = ctl.plan_gemm(a, b, L, constraint, calib, "symmetric", "single",
                                 profile=profile, w_set=(2,))
            return plan.w_histogram()

        snr_floor = ctl.KernelConstraint(target_snr_db=0.0)
        accel_floor = ctl.KernelConstraint(target_accel_percent=0.0)
        assert histogram(50.0, snr_floor) == {2: 8}
        for fw_percent in (-20.0, 0.0):
            assert histogram(fw_percent, snr_floor) == {1: 8}
            assert histogram(fw_percent, accel_floor) == {1: 8}


class TestPlanGemm:
    def test_infinite_snr_is_bitwise_plain(self, calib):
        rng = np.random.default_rng(33)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        plan = ctl.plan_gemm(a, b, L, ctl.KernelConstraint(target_snr_db=math.inf),
                             calib, "symmetric", "single", w_set=(2,))
        assert plan.w_histogram() == {1: 8}
        np.testing.assert_array_equal(tiered_gemm(a, b, L, plan), tiered_gemm(a, b, L))

    def test_budgets_respected_per_kernel(self, calib):
        rng = np.random.default_rng(34)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        target = 30.0
        plan = ctl.plan_gemm(a, b, L, ctl.KernelConstraint(target_snr_db=target),
                             calib, "symmetric", "single", w_set=(2,))
        sigma_a = reorder_block_major(a, L).sigma
        sigma_b = reorder_block_major(b, L).sigma
        for (i, j), entry in plan.entries.items():
            sig = [(sigma_a[i, l], sigma_b[l, j]) for l in range(2)]
            assert entry.total_d_hat <= ctl.snr_to_distortion(target, sig, L) + 1e-12

    def test_constraint_requires_exactly_one_target(self):
        with pytest.raises(InvalidConfigError):
            ctl.KernelConstraint()
        with pytest.raises(InvalidConfigError):
            ctl.KernelConstraint(target_snr_db=1.0, target_accel_percent=1.0)

    def test_nan_target_rejected(self):
        for field in ("target_snr_db", "target_accel_percent"):
            with pytest.raises(InvalidConfigError):
                ctl.KernelConstraint(**{field: math.nan})


# -- the per-kernel planner before batching, kept as the batched planner's oracle

def frozen_sum(xs):
    """Floats added left to right from 0, as ``sum`` added them for the
    frozen distortion planner. CPython 3.12 made ``sum`` of floats
    compensated; the lockstep prune keeps the left-to-right order."""
    total = 0
    for x in xs:
        total += x
    return total


def frozen_snr_to_distortion(s_kernel_db, sigma_pairs, L):
    power = 0.0
    for sa, sb in sigma_pairs:
        if sa < 0 or sb < 0:
            raise InvalidConfigError("sigmas must be >= 0")
        p = sa * sb
        power += p * p
    if math.isinf(s_kernel_db):
        return 0.0
    return 10.0 ** (-0.1 * s_kernel_db) * L * power


def frozen_entry(options_per_l, idx, trace, add=sum):
    choices = [opts[i] for opts, i in zip(options_per_l, idx)]
    return ctl.KernelPlanEntry(
        choices=choices,
        total_d_hat=add(o.d_hat for o in choices),
        accel_percent=add(o.fw_percent for o in choices) / len(choices),
        prune_trace=trace,
    )


def frozen_plan_kernel_distortion(options_per_l, d_kernel):
    """The per-kernel greedy loop the lockstep prune replaced."""
    if d_kernel < 0:
        raise InvalidConfigError(f"distortion budget must be >= 0, got {d_kernel}")
    idx = [0] * len(options_per_l)
    trace = []
    while True:
        total = frozen_sum(opts[i].d_hat for opts, i in zip(options_per_l, idx))
        if total <= d_kernel:
            break
        worst = max(
            range(len(idx)),
            key=lambda l: (options_per_l[l][idx[l]].d_hat, -l),
        )
        cur = options_per_l[worst][idx[worst]]
        idx[worst] += 1
        nxt = options_per_l[worst][idx[worst]]
        trace.append(
            ctl.PruneStep(l=worst, from_w=cur.w, to_w=nxt.w, removed_d_hat=cur.d_hat,
                          total_after=total - cur.d_hat + nxt.d_hat)
        )
    return frozen_entry(options_per_l, idx, trace, add=frozen_sum)


def frozen_plan_kernel_throughput(options_per_l, f_kernel):
    n = len(options_per_l)
    idx = [0] * n

    def mean_accel():
        return sum(opts[i].fw_percent for opts, i in zip(options_per_l, idx)) / n

    accel = mean_accel()
    if accel < f_kernel:
        raise InfeasibleConstraintError(
            f"acceleration floor {f_kernel}% exceeds the achievable maximum {accel:.4g}%",
            achievable_percent=accel,
        )
    trace = []
    while True:
        order = sorted(
            (l for l in range(n) if idx[l] + 1 < len(options_per_l[l])),
            key=lambda l: (-options_per_l[l][idx[l]].d_hat, l),
        )
        demoted = False
        for l in order:
            cur = options_per_l[l][idx[l]]
            nxt = options_per_l[l][idx[l] + 1]
            idx[l] += 1
            accel = mean_accel()
            if accel < f_kernel:
                idx[l] -= 1
                accel = mean_accel()
                continue
            total = sum(opts[i].d_hat for opts, i in zip(options_per_l, idx))
            trace.append(
                ctl.PruneStep(l=l, from_w=cur.w, to_w=nxt.w, removed_d_hat=cur.d_hat,
                              total_after=total)
            )
            demoted = True
            break
        if not demoted:
            break
    return frozen_entry(options_per_l, idx, trace)


def frozen_kernel_stats(a, b, L):
    """InputStats per kernel and l, from per-tile stats taken one tile at a time."""
    def tile(m, i, j):
        t = np.ascontiguousarray(m[i * L:(i + 1) * L, j * L:(j + 1) * L]).astype(np.float64)
        return float(t.std(ddof=1)) if t.size > 1 else 0.0, float(t.min()), float(t.max())

    out = {}
    for i in range(a.shape[0] // L):
        for j in range(b.shape[1] // L):
            stats = []
            for l in range(a.shape[1] // L):
                sa, a_lo, a_hi = tile(a, i, l)
                sb, b_lo, b_hi = tile(b, l, j)
                stats.append(InputStats(sa, sb, a_lo, a_hi, b_lo, b_hi, L))
            out[(i, j)] = stats
    return out


def frozen_build_solutions(sigma_pairs, calib, precision, mode, L, w):
    """``calibration.build_offline_solutions`` of one W when the planner first
    took its R_max from it, in one pass without chunks: per sigma pair, the
    admitted R_max values in ascending order and their model SNRs (computed
    with ``math.log10``), and the first R_max of highest SNR."""
    admitted = calib.admitted(precision, mode, w,
                              rmax_cap=cal.DEFAULT_RMAX_CAPS.get((precision, w)))
    if not admitted:
        raise CalibrationMissingError(f"no admitted entries for W={w}")
    rmax = np.array([e.rmax for e in admitted], dtype=np.int64)
    s_repr = np.array([e.rmse for e in admitted])
    pairs = np.array(sigma_pairs, dtype=np.float64).reshape(-1, 2)
    sa, sb = pairs[:, :1], pairs[:, 1:]
    a_abs, b_abs = cal.uniform_extremes(sa, sb)
    stats = noise.BatchStats(sigma_a=sa, sigma_b=sb, a_min=-a_abs, a_max=a_abs,
                             b_min=-b_abs, b_max=b_abs, L=L)
    sol = noise.optimal_companders(stats, rmax, s_repr=s_repr, w=w)
    ratio = noise.signal_power(stats) / noise.combined_distortion(stats, sol.c_a, sol.c_b,
                                                                  s_repr).total
    snr = 10.0 * np.array([[math.log10(x) for x in row] for row in ratio.tolist()])
    return rmax, snr, rmax[snr.argmax(axis=1)]


def frozen_build_options(stats_per_l, mode, precision, calib, profile, w_set):
    options_per_l = []
    for l, stats in enumerate(stats_per_l):
        opts = []
        if not (stats.sigma_a <= 0 or stats.sigma_b <= 0):
            for w in sorted(set(w_set), reverse=True):
                if w < 2:
                    continue
                fw = profile.fw(precision, mode, w) if profile is not None else (w - 1) * 100.0
                if fw <= 0:
                    continue
                rmax = int(frozen_build_solutions([(1.0, 1.0)], calib, precision, mode,
                                                  stats.L, w)[2][0])
                s_repr = calib.lookup(precision, mode, w, rmax).rmse
                sol = noise.optimal_companders(stats, rmax, s_repr=s_repr, w=w)
                d_hat = noise.combined_distortion(stats, sol.c_a, sol.c_b, s_repr).total
                opts.append(ctl.SubblockOption(l, w, mode, sol.c_a, sol.c_b, rmax,
                                               packing.compute_z(rmax), d_hat, fw))
        opts.append(ctl.SubblockOption(l, 1, mode, 1.0, 1.0, 0, 0.0, 0.0, 0.0))
        options_per_l.append(opts)
    return options_per_l


def frozen_plan_gemm(a, b, L, constraint, calib, mode, precision, profile, w_set):
    entries = {}
    for key, stats_per_l in frozen_kernel_stats(a, b, L).items():
        options = frozen_build_options(stats_per_l, mode, precision, calib, profile, w_set)
        if constraint.target_snr_db is not None:
            d_kernel = frozen_snr_to_distortion(
                constraint.target_snr_db, [(s.sigma_a, s.sigma_b) for s in stats_per_l], L)
            entries[key] = frozen_plan_kernel_distortion(options, d_kernel)
        else:
            entries[key] = frozen_plan_kernel_throughput(options,
                                                         constraint.target_accel_percent)
    return entries


def entry_bits(entry):
    """An entry's float results as exact hex strings."""
    return ([(s.l, s.from_w, s.to_w, float(s.removed_d_hat).hex(), float(s.total_after).hex())
             for s in entry.prune_trace],
            float(entry.total_d_hat).hex(), float(entry.accel_percent).hex())


# dyadic predictions tie exactly across l and sum exactly; huge ones overflow
# a kernel's total to inf
_D_HAT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 1e308]),
                   st.floats(0.0, 1e3))


class TestLockstepPrune:
    @given(st.sampled_from([(1,), (2, 1), (3, 2, 1), (4, 3, 2, 1)]), st.integers(1, 9),
           st.integers(1, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_kernel_greedy(self, ws, n_l, n_kernels, data):
        """Every kernel's choices, trace and total match the frozen greedy loop
        bit for bit, whether pruned together or alone."""
        kernels, budgets = [], []
        for _ in range(n_kernels):
            options = []
            for l in range(n_l):
                # a zero-sigma subblock has only W=1
                live = data.draw(st.booleans()) or data.draw(st.booleans())
                packed = [opt(l, w, data.draw(_D_HAT)) for w in ws[:-1]] if live else []
                options.append(packed + [opt(l, 1, 0.0)])
            kernels.append(options)
            full = frozen_plan_kernel_distortion(options, 0.0)  # the most steps there are
            exact = [frozen_sum(opts[0].d_hat for opts in options)]
            exact += [s.total_after for s in full.prune_trace]
            budgets.append(data.draw(st.one_of(
                st.just(0.0), st.just(math.inf), st.sampled_from(exact), st.floats(0.0, 10.0))))
        want = [frozen_plan_kernel_distortion(o, d) for o, d in zip(kernels, budgets)]

        rows = len(ws)
        d_hat = np.zeros((rows, n_l, n_kernels))
        w = np.ones((rows, n_l, n_kernels), dtype=np.int64)
        top = np.zeros((n_l, n_kernels), dtype=np.intp)
        for k, options in enumerate(kernels):
            for l, opts in enumerate(options):
                top[l, k] = rows - len(opts)
                d_hat[top[l, k]:, l, k] = [o.d_hat for o in opts]
                w[top[l, k]:, l, k] = [o.w for o in opts]
        idx = top.copy()
        total, traces = ctl._prune(d_hat, w, idx, np.array(budgets))
        for k, entry in enumerate(want):
            got_w = [int(w[idx[l, k], l, k]) for l in range(n_l)]
            assert got_w == [o.w for o in entry.choices]
            assert traces[k] == entry.prune_trace
            assert entry_bits(ctl.KernelPlanEntry([], total[k], 0.0, traces[k]))[:2] == \
                entry_bits(entry)[:2]
            alone = ctl.plan_kernel_distortion(kernels[k], budgets[k])
            assert all(a is b for a, b in zip(alone.choices, entry.choices))
            assert entry_bits(alone) == entry_bits(entry)

    def test_nan_budget_rejected(self):
        with pytest.raises(InvalidConfigError):
            ctl.plan_kernel_distortion(synth_options([[1.0]]), math.nan)


@pytest.fixture(scope="module")
def grid_calib():
    """Measured curves of W = 2, 3, 4 at L=12, over amplitudes spanning the
    input scales."""
    calib = cal.CalibrationTable()
    for w in (2, 3, 4):
        calib.extend(cal.measure_repr_noise(12, "single", "symmetric", w,
                                            sweep=[(1, 1), (2, 1), (2, 2), (4, 2), (4, 4),
                                                   (22, 1), (22, 3), (22, 9)],
                                            trials=2, seed=6))
    return calib


class TestBatchedPlanMatchesPerKernelPlanner:
    @given(st.integers(0, 2 ** 31), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["snr", "accel"]), st.sampled_from([None, "gains", "no_gain"]))
    @settings(max_examples=100, deadline=None)
    def test_same_options_and_prune(self, grid_calib, seed, bi, bj, bl, kind, prof):
        L = 12
        rng = np.random.default_rng(seed)

        def operand(rows, cols):
            m = np.empty((rows * L, cols * L), dtype=np.float32)
            for i in range(rows):
                for j in range(cols):
                    scale = 10.0 ** rng.uniform(-2.5, 3.5)
                    t = rng.uniform(-scale, scale, size=(L, L))
                    if rng.random() < 0.2:
                        t[:] = rng.choice([0.0, scale])  # a constant tile: sigma = 0
                    m[i * L:(i + 1) * L, j * L:(j + 1) * L] = t
            return m

        a, b = operand(bi, bl), operand(bl, bj)
        if kind == "snr":
            constraint = ctl.KernelConstraint(target_snr_db=float(rng.choice([0, 20, 40])))
        else:
            constraint = ctl.KernelConstraint(
                target_accel_percent=float(rng.choice([0, 50, 100])))
        profile = None
        if prof is not None:
            gains = {2: 40.0, 3: -5.0 if prof == "no_gain" else 80.0, 4: 0.0}
            profile = cal.SpeedupProfile(
                [cal.ProfileEntry("single", "symmetric", w, L, g, float(w), 3)
                 for w, g in gains.items()])
        args = (grid_calib, "symmetric", "single")
        try:
            want = frozen_plan_gemm(a, b, L, constraint, *args, profile, (2, 3, 4))
        except InfeasibleConstraintError:
            with pytest.raises(InfeasibleConstraintError):
                ctl.plan_gemm(a, b, L, constraint, *args, profile=profile, w_set=(2, 3, 4))
            return
        got = ctl.plan_gemm(a, b, L, constraint, *args, profile=profile,
                            w_set=(2, 3, 4)).entries
        assert list(got) == list(want)
        for key, entry in want.items():
            assert got[key].choices == entry.choices
            assert got[key].prune_trace == entry.prune_trace
            assert entry_bits(got[key]) == entry_bits(entry)
            for o in got[key].choices:
                assert all(type(v) is type(getattr(entry.choices[o.l], f))
                           for f, v in o._asdict().items())

    def test_option_lists_match_per_kernel_calls(self, grid_calib):
        """The whole-multiply call and one call per kernel give the same lists."""
        rng = np.random.default_rng(36)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 3 * L)).astype(np.float32)
        b = rng.uniform(-0.1, 0.1, size=(3 * L, 2 * L)).astype(np.float32)
        batched = option_lists(ctl.subblock_stats(a, b, L), grid_calib)
        per_kernel = [opts for stats in frozen_kernel_stats(a, b, L).values()
                      for opts in option_lists(stats, grid_calib)]
        assert batched == per_kernel
        assert [len(opts) for opts in batched] == [4] * 12
        assert [opts[-1].w for opts in batched] == [1] * 12


# R_max values of a calibration curve: measured-like ones, ones around the
# double W=4 cap, dyadic ones, and huge ones one apart, whose SNRs tie or
# differ by rounding alone
_CURVE_RMAX = st.one_of(st.integers(1, 10 ** 9), st.integers(100000, 140000),
                        st.builds(lambda e: 2 ** e, st.integers(3, 52)),
                        st.sampled_from([10 ** 15, 10 ** 15 + 1, 2 ** 50, 2 ** 50 + 1]))
# (R_max, RMSE kind, dyadic exponent, noise scale, |bias| / R_max): biases of
# 1e-4 and up are rejected
_CURVE_ENTRY = st.tuples(_CURVE_RMAX, st.sampled_from(["zero", "zero", "dyadic", "model"]),
                         st.integers(-4, 20), st.floats(1e-3, 1e3),
                         st.sampled_from([0.0, 5e-5, 1e-4, 1e-3]))


def planned_rmax(calib, precision, mode, L, w):
    """The R_max ``build_options`` gives W on a subblock of tile side L."""
    stats = [InputStats(2.0, 3.0, -4.0, 4.0, -6.0, 6.0, L)]
    packed, _plain = ctl.build_options(stats, mode, precision, calib, w_set=(w,))
    return int(packed["rmax"][0])


class TestOnePairRmax:
    """The planner's R_max of a W is the one the solution table holds in every
    row over the sigma grid ``tdgemm solutions`` builds."""

    @given(st.sampled_from(["single", "double"]), st.sampled_from([12, 48, 288]),
           st.sampled_from([2, 3, 4]), st.lists(_CURVE_ENTRY, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_every_grid_row_holds_the_planners_rmax(self, precision, L, w, curve):
        """Each row holds it, or an R_max whose SNR at that row differs from
        its SNR by rounding alone: there the first maximum of the row and of
        the pair (1, 1) may differ, and either is the best R_max."""
        calib = cal.CalibrationTable()
        for rmax, kind, k, u, bias in curve:
            rmse = {"zero": 0.0, "dyadic": 2.0 ** k,
                    "model": math.sqrt(rmax * u / (18 * L))}[kind]
            calib.add(cal.CalibEntry(precision, "symmetric", w, rmax, bias * rmax, rmse, 3, 0))
        sigmas = cal.log_sigma_grid(per_decade=8)
        try:
            rmax, snr, rows = frozen_build_solutions([(sa, sb) for sa in sigmas for sb in sigmas],
                                                     calib, precision, "symmetric", L, w)
        except CalibrationMissingError:
            with pytest.raises(CalibrationMissingError):
                planned_rmax(calib, precision, "symmetric", L, w)
            return
        planned = planned_rmax(calib, precision, "symmetric", L, w)
        best = snr.max(axis=1)
        miss = rows != planned
        gap = best[miss] - snr[miss][:, rmax == planned].max(axis=1)
        assert (gap <= 1e-12 * (1.0 + np.abs(best[miss]))).all()

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_measured_curves(self, mode):
        """On measured curves every row holds it exactly."""
        L = 12
        calib = cal.CalibrationTable()
        for w in (2, 3, 4):
            calib.extend(cal.measure_repr_noise(L, "single", mode, w, trials=2, seed=3))
        sigmas = cal.log_sigma_grid(per_decade=8)
        table = cal.build_offline_solutions([(sa, sb) for sa in sigmas for sb in sigmas], calib,
                                            "single", mode, L, w_set=(2, 3, 4))
        for w in (2, 3, 4):
            rows = table.data["rmax"][table.data["w"] == w]
            assert set(rows.tolist()) == {planned_rmax(calib, "single", mode, L, w)}


def test_dump_plan(tmp_path, calib):
    rng = np.random.default_rng(35)
    L = 12
    a = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
    plan = ctl.plan_gemm(a, a, L, ctl.KernelConstraint(target_snr_db=20.0),
                         calib, "symmetric", "single", w_set=(2,))
    path = tmp_path / "plan.csv"
    ctl.dump_plan(plan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# version 1"
    assert lines[1] == "i,j,l,W,c_a,c_b,rmax,d_hat"
    assert len(lines) == 3


def test_record_fields_unchanged():
    """plan.csv, the prune traces and callers read these fields by name and
    build the records by position."""
    assert ctl.SubblockOption._fields == ("l", "w", "mode", "c_a", "c_b", "rmax", "z", "d_hat",
                                          "fw_percent")
    assert ctl.PruneStep._fields == ("l", "from_w", "to_w", "removed_d_hat", "total_after")
