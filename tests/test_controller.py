import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdgemm import calibration as cal, controller as ctl, packing
from tdgemm.blocking import tiered_gemm
from tdgemm.errors import InfeasibleConstraintError, InvalidConfigError
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
def desk_tables():
    L = 12
    calib = cal.CalibrationTable()
    calib.extend(cal.measure_repr_noise(L, "single", "symmetric", 2,
                                        sweep=[(2, b) for b in (1, 4, 16)],
                                        trials=3, seed=5))
    sols = cal.build_offline_solutions([(1.0, 1.0), (5.0, 5.0)], calib,
                                       "single", "symmetric", L, w_set=(2,))
    return calib, sols


class TestBuildOptions:
    def test_compander_product_invariant(self, desk_tables):
        calib, sols = desk_tables
        stats = [InputStats(2.0, 3.0, -4.0, 4.0, -6.0, 6.0, 12)]
        opts = ctl.build_options(stats, sols, "symmetric", "single", calib, w_set=(2,))[0]
        packed = opts[0]
        ct = 12 * 4.0 * 6.0 / packed.rmax
        assert packed.c_a * packed.c_b * ct == pytest.approx(1.0)
        assert opts[-1].w == 1 and opts[-1].d_hat == 0.0

    def test_degenerate_sigma_only_plain(self, desk_tables):
        calib, sols = desk_tables
        stats = [InputStats(0.0, 3.0, -1.0, 1.0, -6.0, 6.0, 12)]
        opts = ctl.build_options(stats, sols, "symmetric", "single", calib, w_set=(2,))[0]
        assert [o.w for o in opts] == [1]

    def test_d_hat_matches_monte_carlo(self, desk_tables):
        calib, sols = desk_tables
        rng = np.random.default_rng(32)
        L = 12
        a = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
        stats = [InputStats.from_tiles(a, b)]
        packed = ctl.build_options(stats, sols, "symmetric", "single", calib,
                                   w_set=(2,))[0][0]
        exact = a.astype(np.float64) @ b.astype(np.float64)
        errs = []
        for _ in range(200):
            aa = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
            bb = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
            st_mc = InputStats.from_tiles(aa, bb)
            o = ctl.build_options([st_mc], sols, "symmetric", "single", calib,
                                  w_set=(2,))[0][0]
            got = packing.packed_subblock_product(aa, bb, o.to_packing_config())
            e = got.astype(np.float64) - aa.astype(np.float64) @ bb.astype(np.float64)
            errs.append(float((e ** 2).mean()) / o.d_hat)
        assert abs(np.mean(errs) - 1.0) < 0.25


    def test_nonpositive_measured_gain_is_never_planned(self, desk_tables):
        """W=1 dominates a packed option that costs accuracy and buys no speed."""
        calib, sols = desk_tables
        rng = np.random.default_rng(34)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)

        def histogram(fw_percent, constraint):
            profile = cal.SpeedupProfile(
                [cal.ProfileEntry("single", "symmetric", 2, L, fw_percent, 2.0, 3)])
            plan = ctl.plan_gemm(a, b, L, constraint, sols, calib, "symmetric", "single",
                                 profile=profile, w_set=(2,))
            return plan.w_histogram()

        snr_floor = ctl.KernelConstraint(target_snr_db=0.0)
        accel_floor = ctl.KernelConstraint(target_accel_percent=0.0)
        assert histogram(50.0, snr_floor) == {2: 8}
        for fw_percent in (-20.0, 0.0):
            assert histogram(fw_percent, snr_floor) == {1: 8}
            assert histogram(fw_percent, accel_floor) == {1: 8}


class TestPlanGemm:
    def test_infinite_snr_is_bitwise_plain(self, desk_tables):
        calib, sols = desk_tables
        rng = np.random.default_rng(33)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        plan = ctl.plan_gemm(a, b, L, ctl.KernelConstraint(target_snr_db=math.inf),
                             sols, calib, "symmetric", "single", w_set=(2,))
        assert plan.w_histogram() == {1: 8}
        np.testing.assert_array_equal(tiered_gemm(a, b, L, plan), tiered_gemm(a, b, L))

    def test_budgets_respected_per_kernel(self, desk_tables):
        calib, sols = desk_tables
        rng = np.random.default_rng(34)
        L = 12
        a = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        b = rng.uniform(-4, 4, size=(2 * L, 2 * L)).astype(np.float32)
        target = 30.0
        plan = ctl.plan_gemm(a, b, L, ctl.KernelConstraint(target_snr_db=target),
                             sols, calib, "symmetric", "single", w_set=(2,))
        from tdgemm.blocking import reorder_block_major, ROWWISE, COLUMNWISE
        abm = reorder_block_major(a, L, ROWWISE)
        bbm = reorder_block_major(b, L, COLUMNWISE)
        for (i, j), entry in plan.entries.items():
            sig = [(abm.tile_stats(i, l).sigma, bbm.tile_stats(l, j).sigma)
                   for l in range(2)]
            assert entry.total_d_hat <= ctl.snr_to_distortion(target, sig, L) + 1e-12

    def test_constraint_requires_exactly_one_target(self):
        with pytest.raises(InvalidConfigError):
            ctl.KernelConstraint()
        with pytest.raises(InvalidConfigError):
            ctl.KernelConstraint(target_snr_db=1.0, target_accel_percent=1.0)


def test_dump_plan(tmp_path, desk_tables):
    calib, sols = desk_tables
    rng = np.random.default_rng(35)
    L = 12
    a = rng.uniform(-4, 4, size=(L, L)).astype(np.float32)
    plan = ctl.plan_gemm(a, a, L, ctl.KernelConstraint(target_snr_db=20.0),
                         sols, calib, "symmetric", "single", w_set=(2,))
    path = tmp_path / "plan.csv"
    ctl.dump_plan(plan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# version 1"
    assert lines[1] == "i,j,l,W,c_a,c_b,rmax,d_hat"
    assert len(lines) == 3
