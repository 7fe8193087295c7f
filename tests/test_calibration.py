import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import pocpd.calibration as calibration
import pocpd.monitor
import pocpd.sampler as sampler
from pocpd.calibration import (
    STREAM_CALIBRATION,
    STREAM_EVALUATION,
    CalibrationSpec,
    RunLengthSample,
    calibrate_h,
    estimate_add,
    ic_trajectories,
    run_once,
)
from pocpd.detector import WindowConfig
from pocpd.errors import CalibrationError, NumericalError
from pocpd.model import ChangeSpec, ModelParams
from pocpd.monitor import (
    Monitor,
    Policy,
    Scenario,
    replication_rngs,
    run_single,
    simulate_run_stream,
)
from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, built_in_scenario


def small_scenario(h=None, policy_kind="random", m=1, replications=100):
    model = ModelParams(
        A=np.diag([0.5, 0.3]),
        C=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]]),
        sigma_q=0.1,
        sigma_r=0.1,
    )
    if policy_kind == "random":
        policy = Policy(kind="random")
    else:
        policy = Policy(kind=policy_kind, alpha=DEFAULT_ALPHA_SCHEDULE)
    return Scenario(
        name="small",
        model=model,
        m=m,
        window=WindowConfig(m1=12, m2=1, h=h),
        policy=policy,
        replications=replications,
        horizon_cap=60,
        n0=8,
        seed=9,
    )


def sample(alarm_time, censored=False):
    return RunLengthSample(alarm_time=alarm_time, censored=censored)


class TestCalibrationSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CalibrationSpec(target_add_ic=0.0)
        with pytest.raises(ValueError):
            CalibrationSpec(target_add_ic=10.0, replications=50)
        with pytest.raises(ValueError):
            CalibrationSpec(target_add_ic=100.0, horizon_cap=200)
        with pytest.raises(ValueError, match="seed"):
            CalibrationSpec(target_add_ic=10.0, seed=-1)
        for workers in (0, -2):
            with pytest.raises(ValueError, match="^workers must be >= 1"):
                CalibrationSpec(target_add_ic=10.0, workers=workers)
        with pytest.raises(ValueError, match="^tol must be positive"):
            CalibrationSpec(target_add_ic=10.0, tol=math.nan)


class TestEstimateAdd:
    def test_ic_arithmetic_mean(self):
        est = estimate_add([sample(210), sample(190), sample(260)], tau=0)
        assert est.add == pytest.approx(220.0)
        assert est.n_used == 3

    def test_oc_conditioning(self):
        # tau = 100: the first shifted step is 101, so only alarms after tau
        # count (an alarm at 100 is a false alarm); delays are T - tau.
        est = estimate_add([sample(90), sample(100), sample(150), sample(130)], tau=100)
        assert est.add == pytest.approx(40.0)
        assert est.n_used == 2

    def test_ic_infinite_tau(self):
        est = estimate_add([sample(10), sample(30)], tau=math.inf)
        assert est.add == pytest.approx(20.0)

    def test_censored_counted_at_cap(self):
        est = estimate_add([sample(50), sample(100, censored=True)], tau=0)
        assert est.add == pytest.approx(75.0)
        assert est.censored_fraction == pytest.approx(0.5)

    def test_all_censored_raises(self):
        with pytest.raises(CalibrationError):
            estimate_add([sample(100, censored=True)], tau=0)


class TestRunOnce:
    def test_h_negative_guarantees_alarm(self):
        s = small_scenario(h=-1.0)
        out = run_once(s, ChangeSpec.none(2), rep=0)
        assert out.alarm_time == 1
        assert not out.censored

    def test_h_infinite_censors(self):
        s = small_scenario(h=math.inf)
        out = run_once(s, ChangeSpec.none(2), rep=0)
        assert out.censored
        assert out.alarm_time == s.horizon_cap

    def test_alarm_at_first_strict_crossing(self):
        """run_single alarms at the first monitored step with T_n > h: a
        step whose statistic equals h does not alarm."""
        s = small_scenario()
        change = ChangeSpec(tau=0, f=np.array([1.0, 0.0]))

        def run(h, stop_at_alarm):
            sim_rng, mask_rng = replication_rngs(s.seed, STREAM_EVALUATION, 0)
            scenario = replace(s, window=replace(s.window, h=h))
            obs = simulate_run_stream(scenario, change, sim_rng)
            return run_single(scenario, obs, mask_rng, stop_at_alarm=stop_at_alarm)

        path = run(None, stop_at_alarm=False).t_stats
        j = int(np.flatnonzero(path > 0)[0])
        h = float(path[j])
        later = np.flatnonzero(path > h)
        assert later.size and later[0] > j
        record = run(h, stop_at_alarm=True)
        assert record.alarm_time == later[0] + 1
        np.testing.assert_array_equal(record.t_stats, path[: later[0] + 1])

    def test_requires_control_limit(self):
        s = small_scenario(h=None)
        with pytest.raises(ValueError, match="control limit"):
            run_once(s, ChangeSpec.none(2), rep=0)

    def test_deterministic_given_rep(self):
        s = small_scenario(h=4.0)
        a = run_once(s, ChangeSpec.none(2), rep=3)
        b = run_once(s, ChangeSpec.none(2), rep=3)
        assert a == b

    def test_shift_detected_faster(self):
        s = small_scenario(h=6.0)
        change = ChangeSpec(tau=0, f=np.array([1.5, 0.0]))
        oc = [run_once(s, change, rep).alarm_time for rep in range(30)]
        ic = [run_once(s, ChangeSpec.none(2), rep).alarm_time for rep in range(30)]
        assert np.mean(oc) < np.mean(ic)


class TestCalibrateH:
    def _ramp_trajectories(self, n=100, horizon=40):
        # Statistic grows linearly 1, 2, ...: alarm_time(h) = floor(h) + 1.
        return np.tile(np.arange(1.0, horizon + 1), (n, 1))

    def _calibrate(self, target, trajectories, tol=0.05):
        spec = CalibrationSpec(
            target_add_ic=target, replications=100, horizon_cap=2000, tol=tol
        )
        return calibrate_h(spec, small_scenario(), trajectories=trajectories)

    def test_returns_endpoint_when_exact(self):
        # ADD(1.0) = 2 on the ramp: the bracket's lower end is the answer.
        res = self._calibrate(2.0, self._ramp_trajectories())
        assert res.h == 1.0
        assert res.achieved_add_ic == pytest.approx(2.0)
        assert res.iterations == 0

    def test_bracket_widens_down(self):
        # ADD(1.0) = 2 > 1, so the lower end halves to 0.5, where ADD = 1.
        res = self._calibrate(1.0, self._ramp_trajectories())
        assert (res.h, res.achieved_add_ic, res.iterations) == (0.5, 1.0, 0)

    def test_bracket_widens_up(self):
        # ADD(200) = 201 < 250 on a 1,250-step ramp, so the upper end doubles
        # to 400 and the bisection runs inside [1, 400].
        res = self._calibrate(250.0, self._ramp_trajectories(horizon=1250))
        assert 200.0 < res.h < 400.0
        assert res.achieved_add_ic == pytest.approx(250.0, rel=0.05)
        assert res.iterations >= 1

    def test_bisection_on_ramp(self):
        res = self._calibrate(7.0, self._ramp_trajectories())
        assert res.achieved_add_ic == pytest.approx(7.0, rel=0.05)

    def test_impossible_bracket_raises(self):
        # Statistic is identically zero: no positive h ever alarms, so every
        # trial censors at the horizon and the target cannot be bracketed.
        with pytest.raises(CalibrationError, match="bracket"):
            self._calibrate(8.0, np.zeros((100, 40)))

    def test_crn_determinism_end_to_end(self):
        spec = CalibrationSpec(
            target_add_ic=10.0, replications=100, horizon_cap=60, seed=4, tol=0.1
        )
        scenario = small_scenario()
        r1 = calibrate_h(spec, scenario)
        r2 = calibrate_h(spec, scenario)
        assert r1.h == r2.h
        assert r1.achieved_add_ic == r2.achieved_add_ic

    def test_process_pool_matches_serial(self):
        spec = CalibrationSpec(
            target_add_ic=4.0, replications=100, horizon_cap=20, seed=4
        )
        scenario = small_scenario()
        np.testing.assert_array_equal(
            ic_trajectories(scenario, replace(spec, workers=2)),
            ic_trajectories(scenario, spec),
        )

    def test_monotone_in_h(self):
        spec = CalibrationSpec(
            target_add_ic=10.0, replications=100, horizon_cap=60, seed=4
        )
        scenario = small_scenario()
        traj = ic_trajectories(scenario, spec)
        from pocpd.calibration import _alarm_times

        for h in (2.0, 5.0, 9.0):
            t1, _ = _alarm_times(traj, h)
            t2, _ = _alarm_times(traj, 1.2 * h)
            assert np.all(t2 >= t1)

    def test_achieved_matches_fresh_evaluation(self):
        """The h from trajectory bisection reproduces its ADD via run_once."""
        spec = CalibrationSpec(
            target_add_ic=10.0, replications=100, horizon_cap=60, seed=4, tol=0.1
        )
        scenario = small_scenario()
        res = calibrate_h(spec, scenario)
        cal_scenario = replace(
            scenario,
            window=replace(scenario.window, h=res.h),
            horizon_cap=spec.horizon_cap,
            seed=spec.seed,
        )
        from pocpd.calibration import STREAM_CALIBRATION

        times = [
            run_once(cal_scenario, ChangeSpec.none(2), rep, stream_id=STREAM_CALIBRATION).alarm_time
            for rep in range(spec.replications)
        ]
        assert np.mean(times) == pytest.approx(res.achieved_add_ic, abs=1e-9)


def test_numerical_failure_names_its_source():
    """sigma_r = 0 and C rows all along one state axis: every 2-row V is
    singular, so replication 3 fails at its first step."""
    scenario = small_scenario(h=5.0, m=2)
    model = ModelParams(
        A=np.diag([0.5, 0.3]),
        C=np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]),
        sigma_q=0.1,
        sigma_r=0.0,
    )
    scenario = replace(scenario, model=model)
    with pytest.raises(
        NumericalError,
        match=r"^seed 9, stream lane 2, replication 3, absolute step 1: "
        r"innovation covariance singular at step t=1 \(mask \(\d, \d\)\)$",
    ):
        run_once(scenario, ChangeSpec.none(2), 3, stream_id=STREAM_EVALUATION)


def bench_arm(model, m, kind, horizon, grid=False):
    """An in-control benchmark arm with a short warm-up, and its spec; with
    `grid`, the scenario keeps its shift grid, which calibration ignores."""
    if kind == "random":
        policy = Policy(kind="random")
    else:
        policy = Policy(kind=kind, alpha=DEFAULT_ALPHA_SCHEDULE)
    scenario = replace(built_in_scenario(model, m=m, policy=policy, seed=5), n0=10)
    if not grid:
        scenario = replace(scenario, changes=())
    spec = CalibrationSpec(
        target_add_ic=horizon / 5, replications=100, horizon_cap=horizon, seed=5
    )
    return scenario, spec


def one_by_one(scenario, spec):
    """ic_trajectories as a loop of run_single calls, one replication each."""
    base = replace(
        scenario,
        window=replace(scenario.window, h=None),
        horizon_cap=spec.horizon_cap,
        seed=spec.seed,
    )
    ic = ChangeSpec.none(base.model.q)
    rows = []
    for rep in range(spec.replications):
        sim_rng, mask_rng = replication_rngs(spec.seed, STREAM_CALIBRATION, rep)
        rows.append(run_single(base, simulate_run_stream(base, ic, sim_rng), mask_rng).t_stats)
    return np.vstack(rows)


@functools.lru_cache
def reference_trajectories(*arm):
    return one_by_one(*bench_arm(*arm))


class TestLockstepBlocks:
    """ic_trajectories advances replications in lockstep blocks, one
    sampler call per step for all their decisions.  Every row must equal a
    run_single of its replication bit for bit, whatever the block size and
    the worker count."""

    GREEDY = ("bench-p10", 2, "e_aucrss", 20)

    @pytest.mark.parametrize(
        "arm",
        [
            ("bench-p10", 2, "random", 20),
            ("bench-p10", 2, "e_aucrss", 20),
            ("bench-p10", 2, "aucrss", 10),
            ("bench-p10", 3, "random", 20),
            ("bench-p10", 3, "e_aucrss", 20),
            ("bench-p10", 3, "aucrss", 10),
            ("bench-p30", 2, "e_aucrss", 10),
            ("bench-p10", 2, "e_aucrss", 20, "grid"),
        ],
        ids=lambda arm: "-".join([arm[0], f"m{arm[1]}", arm[2], *arm[4:]]),
    )
    def test_equals_run_single_loop(self, arm):
        got = ic_trajectories(*bench_arm(*arm))
        assert got.tobytes() == reference_trajectories(*arm).tobytes()

    @pytest.mark.parametrize("block", [1, 7, 100, 128])
    def test_block_size_does_not_matter(self, monkeypatch, block):
        monkeypatch.setattr(calibration, "IC_BLOCK", block)
        got = ic_trajectories(*bench_arm(*self.GREEDY))
        assert got.tobytes() == reference_trajectories(*self.GREEDY).tobytes()

    def test_workers_take_whole_blocks(self, monkeypatch):
        monkeypatch.setattr(calibration, "IC_BLOCK", 7)
        scenario, spec = bench_arm(*self.GREEDY)
        got = ic_trajectories(scenario, replace(spec, workers=2))
        assert got.tobytes() == reference_trajectories(*self.GREEDY).tobytes()

    def test_failure_names_its_replication(self, monkeypatch):
        """A NaN injected into one replication's decision inside a stacked
        sampler call is reported with that replication's seed, lane and
        step."""
        monkeypatch.setattr(calibration, "IC_BLOCK", 7)
        scenario, spec = bench_arm(*self.GREEDY)
        rep, step = 9, 22  # the third replication of the second block
        solve = sampler._secular_boundary_max
        # The rows the replication's last greedy round scores after `step`,
        # when it runs alone; in a block its rows carry the same bits.
        calls = []

        def record(lams, xs, hinv_f, radius2):
            calls.append(lams.copy())
            return solve(lams, xs, hinv_f, radius2)

        monkeypatch.setattr(sampler, "_secular_boundary_max", record)
        base = replace(scenario, window=replace(scenario.window, h=None),
                       horizon_cap=spec.horizon_cap, seed=spec.seed)
        sim_rng, mask_rng = replication_rngs(spec.seed, STREAM_CALIBRATION, rep)
        alone = Monitor(base, [mask_rng])
        stream = simulate_run_stream(base, ChangeSpec.none(base.model.q), sim_rng)
        alone.advance([stream[: step - 1]])
        calls.clear()
        alone.advance([stream[step - 1 : step]])
        assert len(calls) == 2 and len(calls[-1]) == 1  # two rounds of one decision
        key = calls[-1][0]

        def poison(lams, xs, hinv_f, radius2):
            hit = [r for r in range(len(lams)) if np.array_equal(lams[r], key)]
            if hit:
                lams = lams.copy()
                lams[hit, 1, 0] = np.nan
            return solve(lams, xs, hinv_f, radius2)

        monkeypatch.setattr(sampler, "_secular_boundary_max", poison)
        with pytest.raises(
            NumericalError,
            match=rf"^seed 5, stream lane 1, replication {rep}, absolute step {step}: "
            r"UCR score of candidate 1 is not finite$",
        ):
            ic_trajectories(scenario, spec)

    def test_first_failing_replication_raises_its_error(self, monkeypatch):
        """Replications 9 and 11 of the second block of 7 fail in the filter,
        11 sooner than 9: the error of 9, the first to fail in replication
        order, is raised, with its type and message."""
        monkeypatch.setattr(calibration, "IC_BLOCK", 7)
        scenario, spec = bench_arm(*self.GREEDY)
        base = replace(scenario, horizon_cap=spec.horizon_cap)
        ic = ChangeSpec.none(base.model.q)
        rows = {}  # (replication, absolute step): the row it reads at that step
        for rep, step in [(9, 20), (11, 5)]:
            sim_rng, _ = replication_rngs(spec.seed, STREAM_CALIBRATION, rep)
            rows[rep, step] = simulate_run_stream(base, ic, sim_rng)[step - 1]
        filter_step = pocpd.monitor.filter_step

        def failing(state, params, mask, y_obs):
            for (rep, step), row in rows.items():
                if state.t + 1 == step and np.array_equal(y_obs, row[list(mask.indices)]):
                    raise np.linalg.LinAlgError(f"injected into replication {rep}")
            return filter_step(state, params, mask, y_obs)

        monkeypatch.setattr(pocpd.monitor, "filter_step", failing)
        with pytest.raises(np.linalg.LinAlgError, match=r"^injected into replication 9$"):
            ic_trajectories(scenario, spec)


class TestSeeding:
    def test_lanes_disjoint(self):
        sim1, mask1 = replication_rngs(0, 1, 0)
        sim2, mask2 = replication_rngs(0, 1, 0)
        assert sim1.normal() == sim2.normal()
        assert mask1.normal() == mask2.normal()
        sim3, _ = replication_rngs(0, 1, 1)
        assert sim1.normal() != sim3.normal()
        sim4, _ = replication_rngs(0, 2, 0)
        assert sim2.normal() != sim4.normal()


class TestScenarioValidation:
    def test_m_bounds(self):
        s = small_scenario()
        with pytest.raises(ValueError):
            replace(s, m=4)

    def test_replications_and_seed_ranges(self):
        s = small_scenario()
        with pytest.raises(ValueError, match="replications"):
            replace(s, replications=0)
        with pytest.raises(ValueError, match="seed"):
            replace(s, seed=-1)
        with pytest.raises(ValueError, match="replications"):
            built_in_scenario("bench-p10", replications=0)
        with pytest.raises(ValueError, match="seed"):
            built_in_scenario("bench-p10", seed=-1)

    def test_rank_deficient_scenario_does_not_warn(self):
        """m * m2 < q is legal: the scan skips each rank-deficient candidate
        itself (Detector's RCOND_SKIP test), so building a scenario says nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = small_scenario()  # m * m2 = 1 < q = 2
            Scenario(
                name="w",
                model=s.model,
                m=1,
                window=WindowConfig(m1=10, m2=1, h=None),
                policy=Policy(kind="random"),
            )
            replace(s, seed=1)
            built_in_scenario("bench-p10", m=1)

    def test_calibration_does_not_repeat_rank_warning(self):
        s = small_scenario()  # m * m2 = 1 < q = 2
        spec = CalibrationSpec(target_add_ic=4.0, replications=100, horizon_cap=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate_h(spec, s)
