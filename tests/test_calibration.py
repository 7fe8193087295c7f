import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pocpd.calibration import (
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
from pocpd.monitor import Policy, Scenario, replication_rngs, run_single, simulate_run_stream
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
            CalibrationSpec(target_add_ic=10.0, h_lo=5.0, h_hi=2.0)
        with pytest.raises(ValueError):
            CalibrationSpec(target_add_ic=10.0, replications=50)
        with pytest.raises(ValueError):
            CalibrationSpec(target_add_ic=100.0, horizon_cap=200)
        with pytest.raises(ValueError, match="max_iters"):
            CalibrationSpec(target_add_ic=10.0, max_iters=0)
        with pytest.raises(ValueError, match="seed"):
            CalibrationSpec(target_add_ic=10.0, seed=-1)


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

    def test_returns_endpoint_when_exact(self):
        spec = CalibrationSpec(
            target_add_ic=2.0, replications=100, h_lo=1.5, h_hi=30.0, horizon_cap=40
        )
        scenario = small_scenario()
        res = calibrate_h(spec, scenario, trajectories=self._ramp_trajectories())
        assert res.h == 1.5
        assert res.achieved_add_ic == pytest.approx(2.0)
        assert res.iterations == 0

    def test_bisection_on_ramp(self):
        spec = CalibrationSpec(
            target_add_ic=7.0, replications=100, h_lo=0.5, h_hi=30.0,
            horizon_cap=40, tol=0.05,
        )
        res = calibrate_h(spec, small_scenario(), trajectories=self._ramp_trajectories())
        assert res.achieved_add_ic == pytest.approx(7.0, rel=0.05)

    def test_impossible_bracket_raises(self):
        # Statistic is identically zero: no positive h ever alarms, so every
        # trial censors at the horizon and the target cannot be bracketed.
        traj = np.zeros((100, 40))
        spec = CalibrationSpec(
            target_add_ic=8.0, replications=100, h_lo=10.0, h_hi=20.0, horizon_cap=40
        )
        with pytest.raises(CalibrationError, match="bracket"):
            calibrate_h(spec, small_scenario(), trajectories=traj)

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
        match=r"seed 9, stream lane 2, replication 3, absolute step 1: .*singular",
    ):
        run_once(scenario, ChangeSpec.none(2), 3, stream_id=STREAM_EVALUATION)


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

    def test_rank_warning(self):
        with pytest.warns(UserWarning, match="rank-deficient"):
            Scenario(
                name="w",
                model=small_scenario().model,
                m=1,
                window=WindowConfig(m1=10, m2=1, h=None),
                policy=Policy(kind="random"),
            )
