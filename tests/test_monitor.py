from dataclasses import replace

import numpy as np
import pytest

from pocpd.calibration import STREAM_EVALUATION
from pocpd.detector import WindowConfig
from pocpd.model import ChangeSpec, ModelParams
from pocpd.monitor import (
    Monitor,
    advance_lockstep,
    Policy,
    Scenario,
    replication_rngs,
    run_single,
    simulate_run_stream,
)
from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE

SHIFT = ChangeSpec(tau=0, f=np.array([1.0, 0.0]))


def mini_scenario(h=None, policy_kind="e_aucrss"):
    model = ModelParams(
        A=np.diag([0.5, 0.3]),
        C=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]]),
        sigma_q=0.1,
        sigma_r=0.1,
    )
    alpha = None if policy_kind == "random" else DEFAULT_ALPHA_SCHEDULE
    return Scenario(
        name="mini",
        model=model,
        m=2,
        window=WindowConfig(m1=12, m2=1, h=h),
        policy=Policy(kind=policy_kind, alpha=alpha),
        horizon_cap=60,
        n0=8,
        seed=17,
    )


def stream(scenario, change=SHIFT, rep=0):
    """The rows of one replication and a fresh mask generator for them."""
    sim_rng, mask_rng = replication_rngs(scenario.seed, STREAM_EVALUATION, rep)
    return simulate_run_stream(scenario, change, sim_rng), mask_rng


def mask_rng(scenario, rep=0):
    return replication_rngs(scenario.seed, STREAM_EVALUATION, rep)[1]


def assert_same_record(got, want):
    np.testing.assert_array_equal(got.t_stats, want.t_stats)
    assert got.alarm_time == want.alarm_time
    assert got.tau_hat == want.tau_hat
    np.testing.assert_array_equal(got.f_hat, want.f_hat)
    assert got.masks == want.masks
    assert got.n0 == want.n0


class TestMonitor:
    @pytest.mark.parametrize("h", [None, 6.0])
    def test_uneven_chunks_equal_one_run(self, h):
        s = mini_scenario(h)
        obs, rng = stream(s)
        want = run_single(s, obs, rng)
        assert (want.alarm_time is None) == (h is None)
        monitor = Monitor(s, mask_rng(s))
        for chunk in np.split(obs, [5, 9, 10, 31]):
            if monitor.alarm_time is not None:
                break
            monitor.advance(chunk)
        assert_same_record(monitor.record(), want)

    def test_advance_stops_at_the_alarm(self):
        s = mini_scenario(6.0)
        obs, rng = stream(s)
        monitor = Monitor(s, rng)
        monitor.advance(obs)
        assert monitor.alarm_time is not None
        assert monitor.t_abs == s.n0 + monitor.alarm_time < obs.shape[0]

    @pytest.mark.parametrize("policy_kind", ["random", "e_aucrss"])
    def test_advancing_a_fork_leaves_the_original(self, policy_kind):
        s = mini_scenario(policy_kind=policy_kind)
        obs, rng = stream(s)
        want = run_single(s, obs, rng)
        monitor = Monitor(s, mask_rng(s))
        monitor.advance(obs[:20])
        other = monitor.fork()
        other.advance(obs[20:] + 1.0)
        same = monitor.fork()
        same.advance(obs[20:])
        monitor.advance(obs[20:])
        assert_same_record(monitor.record(), want)
        assert_same_record(same.record(), want)
        assert not np.array_equal(other.record().t_stats, want.t_stats)


def test_no_stop_reports_the_first_crossing():
    """run_single(stop_at_alarm=False) with a finite h monitors to the end
    of the stream, and its alarm is the first step with T_n > h."""
    s = mini_scenario()
    obs, rng = stream(s)
    free = run_single(s, obs, rng, stop_at_alarm=False)
    h = float(np.median(free.t_stats))
    crossings = np.flatnonzero(free.t_stats > h)
    assert crossings.size >= 2
    limited = replace(s, window=replace(s.window, h=h))
    record = run_single(limited, obs, mask_rng(s), stop_at_alarm=False)
    assert record.alarm_time == crossings[0] + 1
    np.testing.assert_array_equal(record.t_stats, free.t_stats)
    assert record.masks == free.masks


@pytest.mark.parametrize("policy_kind", ["e_aucrss", "random"])
def test_alarm_on_the_last_row_decides_nothing_more(policy_kind, monkeypatch):
    """With the alarm on the stream's last row, stop_at_alarm=False makes the
    same sampler calls as stopping: the decision after an alarm waits for a
    row that never comes."""
    import pocpd.monitor as monitor

    s = mini_scenario(h=8.0, policy_kind=policy_kind)
    obs, rng = stream(s)
    alarm = run_single(s, obs, rng).alarm_time
    obs = obs[: s.n0 + alarm]  # the alarm falls on the last row
    calls = []
    for name in ("select_greedy", "select_random"):
        fn = getattr(monitor, name)
        monkeypatch.setattr(
            monitor, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
        )
    counts = []
    for stop in (True, False):
        calls.clear()
        record = run_single(s, obs, mask_rng(s), stop_at_alarm=stop)
        assert record.alarm_time == alarm
        counts.append(list(calls))
    assert counts[0] == counts[1]
    assert "select_greedy" in counts[0] or policy_kind == "random"


def test_stream_must_be_a_matrix():
    s = mini_scenario(h=6.0)
    obs, rng = stream(s)
    with pytest.raises(ValueError, match=r"^stream must be a \(T, p\) matrix, got shape \(68,\)"):
        run_single(s, obs[:, 0], rng)


@pytest.mark.parametrize("policy_kind", ["e_aucrss", "aucrss", "random"])
def test_lockstep_equals_separate_runs(policy_kind):
    """A block of monitors over streams of different lengths, some of which
    alarm early, gives each monitor the record it gets alone."""
    s = mini_scenario(h=8.0, policy_kind=policy_kind)
    runs = [stream(s, change=ChangeSpec.none(2), rep=rep) for rep in range(6)]
    rows = [obs[: 20 + 8 * rep] for rep, (obs, _) in enumerate(runs)]
    monitors = [Monitor(s, mask_rng(s, rep)) for rep in range(6)]
    advance_lockstep(monitors, rows)
    alarms = 0
    for rep, monitor in enumerate(monitors):
        want = run_single(s, rows[rep], mask_rng(s, rep))
        assert_same_record(monitor.record(), want)
        alarms += want.alarm_time is not None
    assert 0 < alarms < 6
