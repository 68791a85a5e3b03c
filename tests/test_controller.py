import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import batch_stats
from tdgemm import calibration as cal, controller as ctl, packing
from tdgemm.blocking import reorder_block_major, tiered_gemm
from tdgemm.errors import CalibrationMissingError, InfeasibleConstraintError, InvalidConfigError


def opt(w, d_hat, fw=None):
    """One ``OPTION_DTYPE`` row, as a tuple."""
    fw = (w - 1) * 100.0 if fw is None else fw
    return (w, 1.0, 1.0, 100 * w, 2.0 ** -10, d_hat, fw)


def synth_options(d_hats_per_l, ws=(2, 1)):
    """One option array per subblock, one row per W; W=1 always has zero
    distortion."""
    out = []
    for ds in d_hats_per_l:
        rows = [opt(w, d) for w, d in zip(ws[:-1], ds)] + [opt(1, 0.0)]
        out.append(np.array(rows, dtype=ctl.OPTION_DTYPE))
    return out


def chosen_ws(plan):
    """The chosen W of every subblock of a plan, in C order."""
    return plan.options["w"].reshape(-1).tolist()


def mean_gain(plan):
    """Mean gain of a one-kernel plan's choices."""
    fw = plan.options["fw_percent"].reshape(-1)
    return (ctl.ordered_sum(fw) / len(fw)).item()


def w_hist(plan):
    return dict(zip(*(x.tolist() for x in np.unique(plan.options["w"], return_counts=True))))


class TestSnrToDistortion:
    def test_formula(self):
        assert ctl.snr_to_distortion(10.0, [(1.0, 1.0)], 4) == pytest.approx(0.4)

    def test_infinite_snr(self):
        assert ctl.snr_to_distortion(math.inf, [(1.0, 2.0)], 4) == 0.0

    def test_minus_infinite_snr_has_no_budget(self):
        """-inf dB allows any distortion, also where the signal power is 0,
        and so does a finite floor whose power ratio overflows a float."""
        for floor in (-math.inf, -1e308, -3084.0):
            assert ctl.snr_to_distortion(floor, [(1.0, 2.0)], 4) == math.inf
            assert ctl.snr_to_distortion(floor, [(0.0, 2.0)], 4) == math.inf
        assert ctl.snr_to_distortion(-3000.0, [(1.0, 2.0)], 4) == pytest.approx(1.6e301)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidConfigError):
            ctl.snr_to_distortion(10.0, [(-1.0, 1.0)], 4)


class TestDistortionPlanner:
    def test_no_pruning_when_budget_large(self):
        plan = ctl.plan_kernel_distortion(synth_options([[3.0], [1.0]]), 100.0)
        assert chosen_ws(plan) == [2, 2]
        assert plan.prune_trace.dtype == ctl.PRUNE_DTYPE and len(plan.prune_trace) == 0

    def test_zero_budget_all_plain(self):
        plan = ctl.plan_kernel_distortion(synth_options([[3.0], [1.0]]), 0.0)
        assert chosen_ws(plan) == [1, 1]

    def test_hand_simulated_trace(self):
        # budget 3: remove 5 (l=1), then 3 (l=0) -> total 1
        options = synth_options([[3.0], [5.0], [1.0]])
        plan = ctl.plan_kernel_distortion(options, 3.0)
        assert plan.prune_trace[["k", "l", "from_w", "to_w"]].tolist() == [(0, 1, 2, 1),
                                                                           (0, 0, 2, 1)]
        assert chosen_ws(plan) == [1, 1, 2]
        assert plan.total_d_hat.shape == (1, 1)
        assert plan.total_d_hat.item() == pytest.approx(1.0)

    def test_tie_demotes_lowest_l(self):
        plan = ctl.plan_kernel_distortion(synth_options([[2.0], [2.0]]), 2.0)
        assert plan.prune_trace[0]["l"] == 0

    def test_multi_w_ladder(self):
        options = synth_options([[9.0, 2.0]], ws=(3, 2, 1))
        plan = ctl.plan_kernel_distortion(options, 2.5)
        assert chosen_ws(plan) == [2]

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
           st.floats(0.0, 20.0))
    @settings(max_examples=60)
    def test_bound_and_monotone_trace(self, ds, budget):
        plan = ctl.plan_kernel_distortion(synth_options([[d] for d in ds]), budget)
        assert plan.total_d_hat.item() <= budget + 1e-12
        totals = plan.prune_trace["total_after"].tolist()
        assert totals == sorted(totals, reverse=True) or all(
            totals[i] >= totals[i + 1] - 1e-12 for i in range(len(totals) - 1)
        )

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4),
           st.floats(0.0, 20.0))
    @settings(max_examples=40)
    def test_greedy_matches_exhaustive_acceleration(self, ds, budget):
        options = synth_options([[d] for d in ds])
        greedy_accel = mean_gain(ctl.plan_kernel_distortion(options, budget))
        assert greedy_accel == pytest.approx(oracles.best_gain(ds, budget))

    def test_relaxing_budget_never_lowers_w(self):
        options = synth_options([[3.0], [5.0], [1.0]])
        tight = ctl.plan_kernel_distortion(options, 2.0)
        loose = ctl.plan_kernel_distortion(options, 6.0)
        for a, b in zip(chosen_ws(tight), chosen_ws(loose)):
            assert b >= a


class TestThroughputPlanner:
    def test_zero_floor_all_plain(self):
        plan = ctl.plan_kernel_throughput(synth_options([[3.0], [1.0]]), 0.0)
        assert chosen_ws(plan) == [1, 1]

    def test_full_floor_keeps_max_w(self):
        plan = ctl.plan_kernel_throughput(synth_options([[3.0], [1.0]]), 100.0)
        assert chosen_ws(plan) == [2, 2]

    def test_infeasible_reports_achievable(self):
        with pytest.raises(InfeasibleConstraintError) as exc:
            ctl.plan_kernel_throughput(synth_options([[3.0]]), 150.0)
        assert exc.value.achievable_percent == pytest.approx(100.0)

    def test_partial_floor_demotes_worst_first(self):
        plan = ctl.plan_kernel_throughput(synth_options([[3.0], [5.0], [1.0]]), 30.0)
        # one subblock can stay packed (accel 33.3%); the cheapest one survives
        assert chosen_ws(plan) == [1, 1, 2]

    def test_matches_exhaustive_minimum_distortion(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ds = rng.uniform(0.1, 5.0, size=3)
            floor = float(rng.choice([0.0, 30.0, 60.0, 100.0]))
            plan = ctl.plan_kernel_throughput(synth_options([[d] for d in ds]), floor)
            assert plan.total_d_hat.item() == pytest.approx(oracles.least_distortion(ds, floor))


@pytest.fixture(scope="module")
def calib():
    return cal.CalibrationTable(cal.measure_repr_noise(12, "single", "symmetric", 2,
                                                       sweep=[(2, b) for b in (1, 4, 16)],
                                                       trials=3, seed=5))


def option_lists(stats, calib, **kwargs):
    """Per-subblock option arrays of a ``build_options`` call, symmetric
    mode, in C order: each subblock's ladder rows in W descending order, W=1
    last, and only the W=1 row of a subblock that has no other W."""
    options = ctl.build_options(stats, "symmetric", "single", calib, **kwargs)
    return [ladder if ladder[0]["w"] > 1 else ladder[-1:] for ladder in options.T]


class TestBuildOptions:
    def test_compander_product_invariant(self, calib):
        stats = batch_stats([(2.0, 3.0, -4.0, 4.0, -6.0, 6.0)], 12)
        opts = option_lists(stats, calib, w_set=(2,))[0]
        packed = opts[0]
        ct = 12 * 4.0 * 6.0 / packed["rmax"]
        assert packed["c_a"] * packed["c_b"] * ct == pytest.approx(1.0)
        assert opts[-1]["w"] == 1 and opts[-1]["d_hat"] == 0.0

    def test_degenerate_sigma_only_plain(self, calib):
        stats = batch_stats([(0.0, 3.0, -1.0, 1.0, -6.0, 6.0)], 12)
        opts = option_lists(stats, calib, w_set=(2,))[0]
        assert opts["w"].tolist() == [1]

    def test_one_array_per_w(self, calib):
        """One ladder row per W, W descending and W=1 last, one column per
        subblock in C order; a subblock without the W holds its W=1 option on
        that row too, so the rows' lengths add up to rows x subblocks."""
        stats = batch_stats([(2.0, 3.0, -4.0, 4.0, -6.0, 6.0),
                             (0.0, 3.0, -1.0, 1.0, -6.0, 6.0),
                             (1.0, 1.0, -2.0, 2.0, -2.0, 2.0)], 12)
        options = ctl.build_options(stats, "symmetric", "single", calib, w_set=(2,))
        assert options.dtype == ctl.OPTION_DTYPE
        assert options["w"].tolist() == [[2, 1, 2], [1, 1, 1]]
        assert options[0, 1].tolist() == options[1, 1].tolist() == (1, 1.0, 1.0, 0, 0.0, 0.0, 0.0)
        assert sum(map(len, options)) == 6
        assert [len(opts) for opts in option_lists(stats, calib, w_set=(2,))] == [2, 1, 2]

    def test_d_hat_matches_monte_carlo(self, calib):
        rng = np.random.default_rng(32)
        L = 12
        a = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
        stats = ctl.subblock_stats(a, b, L)
        packed = option_lists(stats, calib, w_set=(2,))[0][0]
        exact = a.astype(np.float64) @ b.astype(np.float64)
        errs = []
        for _ in range(200):
            aa = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
            bb = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
            o = option_lists(ctl.subblock_stats(aa, bb, L), calib, w_set=(2,))[0][:1]
            assert o["w"] == 2
            got = tiered_gemm(aa, bb, L, ctl.fixed_plan("symmetric", o.reshape(1, 1, 1)))
            e = got.astype(np.float64) - aa.astype(np.float64) @ bb.astype(np.float64)
            errs.append(float((e ** 2).mean()) / o["d_hat"].item())
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
            return w_hist(plan)

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
        assert w_hist(plan) == {1: 8}
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
        assert plan.total_d_hat.shape == (2, 2)
        for (i, j), total in np.ndenumerate(plan.total_d_hat):
            sig = [(sigma_a[i, l], sigma_b[l, j]) for l in range(2)]
            assert total <= ctl.snr_to_distortion(target, sig, L) + 1e-12

    def test_constraint_requires_exactly_one_target(self):
        with pytest.raises(InvalidConfigError):
            ctl.KernelConstraint()
        with pytest.raises(InvalidConfigError):
            ctl.KernelConstraint(target_snr_db=1.0, target_accel_percent=1.0)

    def test_nan_target_rejected(self):
        for field in ("target_snr_db", "target_accel_percent"):
            with pytest.raises(InvalidConfigError):
                ctl.KernelConstraint(**{field: math.nan})


def kernel_bits(steps, total, accel):
    """A kernel's ``PRUNE_DTYPE`` steps as bytes, its total and mean gain as
    exact hex strings."""
    return steps.tobytes(), float(total).hex(), float(accel).hex()


def entry_bits(entry, k=0):
    """``kernel_bits`` of an ``oracles.KernelChoice`` as kernel k."""
    return kernel_bits(oracles.prune_records(entry.prune_trace, k), entry.total_d_hat,
                       entry.accel_percent)


def steps_of(trace, k):
    """Kernel k's records of a prune trace, in step order."""
    return trace[trace["k"] == k]


def plan_bits(plan, k=0):
    """``entry_bits`` of kernel k of a plan, its mean gain ``ordered_sum`` /
    n_l of its options' gains."""
    i, j = divmod(k, plan.total_d_hat.shape[1])
    fw = plan.options["fw_percent"][i, j]
    return kernel_bits(steps_of(plan.prune_trace, k), plan.total_d_hat[i, j],
                       ctl.ordered_sum(fw) / len(fw))


# dyadic predictions tie exactly across l and sum exactly; huge ones overflow
# a kernel's total to inf
_D_HAT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 1e308]),
                   st.floats(0.0, 1e3))
# gains of a packed option: the MAC-count ones, zero, negative and non-integer
_GAIN = st.one_of(st.sampled_from([100.0, 200.0, 300.0, 0.0, -20.0, 0.1, 1 / 3]),
                  st.floats(-100.0, 400.0))
# ladder widths: the W's of a live subblock, W=1 last
_WS = st.sampled_from([(1,), (2, 1), (3, 2, 1), (4, 3, 2, 1)])


def draw_kernels(data, ws, n_l, n_kernels, gain=None):
    """Option lists of ``n_kernels`` kernels of ``n_l`` subblocks; a
    zero-sigma subblock has only W=1."""
    kernels = []
    for _ in range(n_kernels):
        options = []
        for l in range(n_l):
            live = data.draw(st.booleans()) or data.draw(st.booleans())
            packed = [opt(w, data.draw(_D_HAT), None if gain is None else data.draw(gain))
                      for w in ws[:-1]] if live else []
            options.append(np.array(packed + [opt(1, 0.0)], dtype=ctl.OPTION_DTYPE))
        kernels.append(options)
    return kernels


def ladder_of(kernels, rows):
    """The kernels' predictions, W's and gains as ``_prune`` takes them, each
    subblock's options on the last rows of its ladder, and the starting rows."""
    n_l, n_kernels = len(kernels[0]), len(kernels)
    d_hat, fw = np.zeros((2, rows, n_l, n_kernels))
    w = np.ones((rows, n_l, n_kernels), dtype=np.int64)
    top = np.zeros((n_l, n_kernels), dtype=np.intp)
    for k, options in enumerate(kernels):
        for l, opts in enumerate(options):
            top[l, k] = rows - len(opts)
            d_hat[top[l, k]:, l, k] = opts["d_hat"]
            w[top[l, k]:, l, k] = opts["w"]
            fw[top[l, k]:, l, k] = opts["fw_percent"]
    return d_hat, w, fw, top


class TestLockstepPrune:
    @given(_WS, st.integers(1, 9), st.integers(1, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_kernel_greedy(self, ws, n_l, n_kernels, data):
        """Every kernel's choices, trace and total match the frozen greedy loop
        bit for bit, whether pruned together or alone."""
        kernels, budgets = draw_kernels(data, ws, n_l, n_kernels), []
        for options in kernels:
            full = oracles.plan_kernel_distortion(options, 0.0)  # the most steps there are
            exact = [oracles.left_sum(opts[0]["d_hat"].item() for opts in options)]
            exact += [s[-1] for s in full.prune_trace]
            budgets.append(data.draw(st.one_of(
                st.just(0.0), st.just(math.inf), st.sampled_from(exact), st.floats(0.0, 10.0))))
        want = [oracles.plan_kernel_distortion(o, d) for o, d in zip(kernels, budgets)]

        d_hat, w, _fw, idx = ladder_of(kernels, len(ws))
        total, trace = ctl._prune(d_hat, w, idx, np.array(budgets))
        for k, entry in enumerate(want):
            got_w = [int(w[idx[l, k], l, k]) for l in range(n_l)]
            assert got_w == entry.choices["w"].tolist()
            assert kernel_bits(steps_of(trace, k), total[k], 0.0)[:2] == \
                entry_bits(entry, k)[:2]
            alone = ctl.plan_kernel_distortion(kernels[k], budgets[k])
            assert alone.options.tobytes() == entry.choices.tobytes()
            assert set(alone.prune_trace["k"].tolist()) <= {0}
            assert plan_bits(alone) == entry_bits(entry)
        assert trace.tobytes() == oracles.lockstep_trace(want).tobytes()

    @given(_WS, st.integers(1, 9), st.integers(1, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_floor_matches_per_kernel_greedy(self, ws, n_l, n_kernels, data):
        """Under an acceleration floor every kernel's choices, trace, total
        and mean gain match the frozen floor loop bit for bit, whether pruned
        together or alone; a floor a kernel's top options cannot reach raises
        the frozen loop's error for the first such kernel."""
        kernels = draw_kernels(data, ws, n_l, n_kernels, gain=_GAIN)
        reachable = []  # mean gains of each kernel's top rows and of drawn rows
        for options in kernels:
            for rows in ([0] * n_l, [data.draw(st.integers(0, len(o) - 1)) for o in options]):
                gains = (o[i]["fw_percent"].item() for o, i in zip(options, rows))
                reachable.append(sum(gains) / n_l)
        floor = data.draw(st.one_of(st.just(0.0), st.sampled_from(reachable),
                                    st.floats(-100.0, 400.0), st.just(max(reachable) + 1.0)))
        want = []
        for options in kernels:
            try:
                want.append(oracles.plan_kernel_throughput(options, floor))
            except InfeasibleConstraintError as exc:
                want.append(exc)

        def same_error(got, exc):
            assert str(got) == str(exc)
            assert float(got.achievable_percent).hex() == float(exc.achievable_percent).hex()

        for options, entry in zip(kernels, want):
            if isinstance(entry, InfeasibleConstraintError):
                with pytest.raises(InfeasibleConstraintError) as exc:
                    ctl.plan_kernel_throughput(options, floor)
                same_error(exc.value, entry)
                continue
            alone = ctl.plan_kernel_throughput(options, floor)
            assert alone.options.tobytes() == entry.choices.tobytes()
            assert plan_bits(alone) == entry_bits(entry)

        d_hat, w, fw, idx = ladder_of(kernels, len(ws))
        errors = [e for e in want if isinstance(e, InfeasibleConstraintError)]
        if errors:
            with pytest.raises(InfeasibleConstraintError) as exc:
                ctl._prune(d_hat, w, idx, fw=fw, floor=floor)
            same_error(exc.value, errors[0])
            return
        total, trace = ctl._prune(d_hat, w, idx, fw=fw, floor=floor)
        for k, entry in enumerate(want):
            chosen = [(int(w[idx[l, k], l, k]), fw[idx[l, k], l, k].hex()) for l in range(n_l)]
            assert chosen == [(o["w"].item(), o["fw_percent"].item().hex())
                              for o in entry.choices]
            assert kernel_bits(steps_of(trace, k), total[k], 0.0)[:2] == \
                entry_bits(entry, k)[:2]
        assert trace.tobytes() == oracles.lockstep_trace(want).tobytes()

    def test_nan_budget_rejected(self):
        with pytest.raises(InvalidConfigError):
            ctl.plan_kernel_distortion(synth_options([[1.0]]), math.nan)


@pytest.fixture(scope="module")
def grid_calib():
    """Measured curves of W = 2, 3, 4 at L=12, over amplitudes spanning the
    input scales."""
    return cal.CalibrationTable([e for w in (2, 3, 4) for e in cal.measure_repr_noise(
        12, "single", "symmetric", w, sweep=[(1, 1), (2, 1), (2, 2), (4, 2), (4, 4),
                                             (22, 1), (22, 3), (22, 9)], trials=2, seed=6)])


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
            want = oracles.plan_gemm(a, b, L, constraint, *args, profile, (2, 3, 4))
        except InfeasibleConstraintError:
            with pytest.raises(InfeasibleConstraintError):
                ctl.plan_gemm(a, b, L, constraint, *args, profile=profile, w_set=(2, 3, 4))
            return
        got = ctl.plan_gemm(a, b, L, constraint, *args, profile=profile, w_set=(2, 3, 4))
        assert got.mode == "symmetric"
        assert got.options.shape == (bi, bj, bl) and got.total_d_hat.shape == (bi, bj)
        assert list(np.ndindex(bi, bj)) == list(want)
        for k, (key, entry) in enumerate(want.items()):
            assert got.options[key].tobytes() == entry.choices.tobytes()
            assert plan_bits(got, k) == entry_bits(entry, k)
        assert got.prune_trace.tobytes() == oracles.lockstep_trace(want.values()).tobytes()

    def test_option_lists_match_per_kernel_calls(self, grid_calib):
        """The whole-multiply call and one call per kernel give the same lists."""
        rng = np.random.default_rng(36)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 3 * L)).astype(np.float32)
        b = rng.uniform(-0.1, 0.1, size=(3 * L, 2 * L)).astype(np.float32)
        batched = option_lists(ctl.subblock_stats(a, b, L), grid_calib)
        per_kernel = [opts for stats in oracles.kernel_stats(a, b, L).values()
                      for opts in option_lists(stats, grid_calib)]
        assert [opts.tolist() for opts in batched] == [opts.tolist() for opts in per_kernel]
        assert [len(opts) for opts in batched] == [4] * 12
        assert [opts[-1]["w"] for opts in batched] == [1] * 12


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
    stats = batch_stats([(2.0, 3.0, -4.0, 4.0, -6.0, 6.0)], L)
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
        entries = []
        for rmax, kind, k, u, bias in curve:
            rmse = {"zero": 0.0, "dyadic": 2.0 ** k,
                    "model": math.sqrt(rmax * u / (18 * L))}[kind]
            entries.append(cal.CalibEntry(precision, "symmetric", w, rmax, bias * rmax, rmse,
                                          3, 0))
        calib = cal.CalibrationTable(entries)
        sigmas = cal.log_sigma_grid(per_decade=8)
        try:
            rows, curves = oracles.build_solutions([(sa, sb) for sa in sigmas for sb in sigmas],
                                                   calib, precision, "symmetric", L, (w,))
        except CalibrationMissingError:
            with pytest.raises(CalibrationMissingError):
                planned_rmax(calib, precision, "symmetric", L, w)
            return
        planned = planned_rmax(calib, precision, "symmetric", L, w)
        rmax, snr = curves[w]
        best = snr.max(axis=1)
        miss = np.array([row[3] for row in rows]) != planned
        gap = best[miss] - snr[miss][:, rmax == planned].max(axis=1)
        assert (gap <= 1e-12 * (1.0 + np.abs(best[miss]))).all()

    @pytest.mark.parametrize("mode", packing.MODES)
    def test_measured_curves(self, mode):
        """On measured curves every row holds it exactly."""
        L = 12
        calib = cal.CalibrationTable([e for w in (2, 3, 4) for e in cal.measure_repr_noise(
            L, "single", mode, w, trials=2, seed=3)])
        sigmas = cal.log_sigma_grid(per_decade=8)
        table = cal.build_offline_solutions([(sa, sb) for sa in sigmas for sb in sigmas], calib,
                                            "single", mode, L, w_set=(2, 3, 4))
        for w in (2, 3, 4):
            rows = table["rmax"][table["w"] == w]
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


class TestDumpPlanBytes:
    """``dump_plan`` writes the bytes of the ``csv.writer`` version."""

    def test_planned(self, tmp_path, calib):
        rng = np.random.default_rng(36)
        L = 12
        a = rng.uniform(-4, 4, size=(3 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 3 * L)).astype(np.float32)
        plan = ctl.plan_gemm(a, b, L, ctl.KernelConstraint(target_snr_db=25.0),
                             calib, "symmetric", "single", w_set=(2,))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        ctl.dump_plan(plan, got)
        oracles.dump_plan(plan, want)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().split(b"\r\n")) == 2 + 9 * 2

    @given(st.lists(st.tuples(
        st.integers(0, 2 ** 40), st.sampled_from([1, 2, 3, 4]),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                  st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.inf,
                                   -math.inf, math.nan]))), min_size=0, max_size=6),
        st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_special_fields(self, tmp_path_factory, rows, bi, bj):
        """Infinities, NaN, -0.0 and subnormals, in kernels whose subblocks
        run in other orders."""
        options = np.zeros((bi, bj, len(rows)), dtype=ctl.OPTION_DTYPE)
        for k, (i, j) in enumerate(np.ndindex(bi, bj)):
            for l, (rmax, w, x) in enumerate(rows[k % 2::] + rows[:k % 2]):
                options[i, j, l] = (w, x, -x, rmax, 2.0 ** -10, x, 0.0)
        plan = ctl.Plan("symmetric", options, np.zeros((bi, bj)), np.empty(0, ctl.PRUNE_DTYPE))
        tmp = tmp_path_factory.mktemp("plan")
        ctl.dump_plan(plan, tmp / "got.csv")
        oracles.dump_plan(plan, tmp / "want.csv")
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_record_fields_unchanged():
    """plan.csv, the prune traces and callers read these fields by name and
    build the records by position."""
    assert ctl.OPTION_DTYPE.names == ("w", "c_a", "c_b", "rmax", "z", "d_hat", "fw_percent")
    assert ctl.PRUNE_DTYPE.names == ("k", "l", "from_w", "to_w", "removed_d_hat", "total_after")
    assert ctl.Plan._fields == ("mode", "options", "total_d_hat", "prune_trace")
