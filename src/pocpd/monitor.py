"""Monitoring loop: filter -> detector -> alarm -> next subset.

Time bookkeeping: a run consists of n0 warm-up steps with random subsets
followed by monitored steps.  Monitoring step n (n = 1, 2, ...) corresponds
to absolute step n0 + n; alarm times, change points, and detection delays
are all reported on the monitoring clock.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .detector import Detector, ScanResult, WindowConfig, make_step_term
from .errors import NumericalError
from .filtering import StepOutput, filter_init, filter_step
from .model import ChangeSpec, ModelParams, ObservationMask, simulate_stream
from .sampler import (
    AlphaSchedule,
    UcrInputs,
    adaptive_alpha,
    select_exhaustive,
    select_greedy,
    select_random,
)

__all__ = [
    "Policy",
    "Scenario",
    "RunRecord",
    "Monitor",
    "advance_lockstep",
    "run_single",
    "replication_rngs",
]

POLICY_NAMES = ("aucrss", "e_aucrss", "random")


@dataclass(frozen=True)
class Policy:
    """Subset-selection policy plus its exploration level (a constant alpha
    is the flat schedule, alpha_min = alpha_max)."""

    kind: str
    alpha: AlphaSchedule | None = None

    def __post_init__(self):
        if self.kind not in POLICY_NAMES:
            raise ValueError(f"kind must be one of {POLICY_NAMES}, got {self.kind!r}")
        if self.kind != "random" and not isinstance(self.alpha, AlphaSchedule):
            raise ValueError(f"alpha of policy {self.kind!r} must be an AlphaSchedule")


@dataclass(frozen=True)
class Scenario:
    """One named experiment configuration."""

    name: str
    model: ModelParams
    m: int
    window: WindowConfig
    policy: Policy
    changes: tuple = ()
    replications: int = 1000
    horizon_cap: int = 1000
    n0: int = 50
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "changes", tuple(self.changes))
        if not 1 <= self.m <= self.model.p:
            raise ValueError(f"m must be in [1, p={self.model.p}], got {self.m}")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")
        if self.horizon_cap < 1:
            raise ValueError("horizon_cap must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for change in self.changes:
            if change.f.shape != (self.model.q,):
                raise ValueError(f"changes must shift vectors of length q={self.model.q}")


@dataclass
class RunRecord:
    """Trajectory of one monitored stream (monitoring clock)."""

    t_stats: np.ndarray  # scan statistic per monitored step
    alarm_time: int | None  # first monitored step with T_n > h, None if censored
    tau_hat: int | None  # estimated change point at the last scan
    f_hat: np.ndarray | None  # shift estimate at the last scan
    n0: int
    masks: list  # observed indices per absolute step


def replication_rngs(seed: int, stream_id: int, rep: int):
    """Deterministic (simulation, mask) generator pair for one replication.

    All randomness flows from SeedSequence([seed, stream_id, rep, lane]);
    results are therefore independent of scheduling order.
    """
    sim = np.random.default_rng(np.random.SeedSequence([seed, stream_id, rep, 0]))
    mask = np.random.default_rng(np.random.SeedSequence([seed, stream_id, rep, 1]))
    return sim, mask


def absolute_change(scenario: Scenario, change: ChangeSpec) -> ChangeSpec:
    """`change` on the absolute stream: monitoring step n >= tau + 1 sees
    the shifted state (an infinite tau stays infinite)."""
    return ChangeSpec(tau=scenario.n0 + change.tau, f=change.f)


def simulate_run_stream(
    scenario: Scenario, change: ChangeSpec, sim_rng
) -> np.ndarray:
    """Full-observation stream for one replication, warm-up included."""
    y, _ = simulate_stream(
        scenario.model,
        absolute_change(scenario, change),
        horizon=scenario.n0 + scenario.horizon_cap,
        seed=sim_rng,
    )
    return y


class Monitor:
    """The monitoring loop of one stream, resumable and forkable.

    Each step has two phases.  The observe phase filters the row through the
    decided mask, folds the step into the detector and scans; scanning and
    alarms start after the n0 random warm-up steps.  The decide phase then
    picks the next step's mask: the policy's choice from this scan, or a
    random one during warm-up.  A monitor is one row of a lockstep block:
    its detector and last scan are stacks of one, which `advance_lockstep`
    joins into the block's stacks, pushes and scans once per step for the
    whole block, and hands back when the monitor leaves the block.
    `advance` is the block of one.
    """

    def __init__(self, scenario: Scenario, mask_rng):
        params = scenario.model
        self.scenario = scenario
        self.state = filter_init(params)
        self.det = Detector(params.q, scenario.window, rows=1)
        self.mask_rng = mask_rng
        self.h = scenario.window.h if scenario.window.h is not None else math.inf
        # The next step's mask; None while the decision after an alarm is pending.
        self.mask: ObservationMask | None = select_random(params.p, scenario.m, mask_rng)
        self.scan = ScanResult.none(1, params.q)
        self.t_abs = 0
        self.t_stats: list[float] = []
        self.masks: list[tuple] = []
        self.alarm_time = self.tau_hat = self.f_hat = None  # as in RunRecord

    def advance(self, rows) -> None:
        """Consume rows; stop after the first alarm (T_n > h), if it comes.
        A NumericalError names the absolute step."""
        try:
            advance_lockstep([self], [rows])
        except NumericalError as exc:
            raise NumericalError(f"absolute step {self.t_abs}: {exc}") from exc

    def _filter(self, row) -> StepOutput:
        """Filter the next row through the decided mask."""
        mask, self.mask = self.mask, None
        self.t_abs += 1
        self.masks.append(mask.indices)
        self.state, out = filter_step(
            self.state, self.scenario.model, mask, row[list(mask.indices)]
        )
        return out

    def _note(self, scan: ScanResult, r: int) -> bool:
        """Record row r of this step's stacked scan; True when it raises the
        first alarm."""
        mon = self.t_abs - self.scenario.n0
        if mon < 1:
            return False
        t_stat = float(scan.t_stat[r])
        self.t_stats.append(t_stat)
        if scan.tau_hat[r] is not None:
            self.tau_hat = scan.tau_hat[r] - self.scenario.n0
            self.f_hat = scan.f_hat[r]
        if t_stat > self.h and self.alarm_time is None:
            self.alarm_time = mon
            return True
        return False

    def fork(self) -> "Monitor":
        """An independent copy: advancing it leaves this monitor as it is."""
        return copy.deepcopy(self, {id(self.scenario): self.scenario})

    def record(self) -> RunRecord:
        return RunRecord(
            t_stats=np.asarray(self.t_stats),
            alarm_time=self.alarm_time,
            tau_hat=self.tau_hat,
            f_hat=self.f_hat,
            n0=self.scenario.n0,
            masks=list(self.masks),
        )


def advance_lockstep(monitors: list, streams: list) -> None:
    """Advance monitors of one scenario, all at the same step, in lockstep,
    each over the rows of its own stream, until each has raised its first
    alarm or read all its rows.  Monitors at different steps raise
    ValueError.

    The block holds one stacked detector and scan for the monitors still in
    it.  Every step filters each monitor's row, then pushes one stacked step
    term and makes one scan for the block, then decides the next masks of
    all that go on with one `_next_mask` call.  A monitor leaves the block,
    taking its detector row and scan, when it alarms or its stream ends.  A
    mask left pending by an alarm is decided when the monitor's next row
    comes.  Each monitor's results equal those of advancing it alone, which
    is how to find the monitor that raised a NumericalError.
    """
    scenario = monitors[0].scenario
    params, n0, m2 = scenario.model, scenario.n0, scenario.window.m2
    det = Detector.concat([mon.det for mon in monitors])
    scan = ScanResult.concat([mon.scan for mon in monitors])
    for mon in monitors:
        mon.det = mon.scan = None  # lent to the block until the monitor leaves
    mons, iters = list(monitors), [iter(stream) for stream in streams]
    while mons:
        rows = [next(it, None) for it in iters]
        if any(row is None for row in rows):
            mons, iters, det, scan = _leave(mons, iters, det, scan, [row is None for row in rows])
            rows = [row for row in rows if row is not None]
            if not mons:
                break
        pending = [r for r, mon in enumerate(mons) if mon.mask is None]
        if pending:
            _next_mask(mons, scan, det, pending)
        det.push_step(make_step_term([mon._filter(row) for mon, row in zip(mons, rows)], params.C))
        # Until the first scan, the block's scan stays its monitors' initial
        # ScanResult.none.
        t_abs = mons[0].t_abs
        if t_abs >= n0 and t_abs > m2 + 1:
            scan = det.scan()
        alarms = [mon._note(scan, r) for r, mon in enumerate(mons)]
        if any(alarms):
            mons, iters, det, scan = _leave(mons, iters, det, scan, alarms)
        _next_mask(mons, scan, det, range(len(mons)))


def _leave(monitors: list, iters: list, det: Detector, scan: ScanResult, gone: list) -> tuple:
    """Hand the monitors that go their detector rows and scans, and return
    the block (monitors, row iterators, detector, scan) of those that stay."""
    for r in np.flatnonzero(gone):
        monitors[r].det, monitors[r].scan = det.take([r]), scan.take([r])
    keep = [r for r, g in enumerate(gone) if not g]
    if not keep:
        return [], [], None, None
    return [monitors[r] for r in keep], [iters[r] for r in keep], det.take(keep), scan.take(keep)


def check_stream(scenario: Scenario, observations: np.ndarray) -> None:
    """Reject a stream that is not a finite (T, p) matrix."""
    params = scenario.model
    if observations.ndim != 2:
        raise ValueError(f"stream must be a (T, p) matrix, got shape {observations.shape}")
    if observations.shape[1] != params.p:
        raise ValueError(
            f"stream has {observations.shape[1]} columns, model expects p={params.p}"
        )
    if not np.all(np.isfinite(observations)):
        raise ValueError("stream contains non-finite entries")


def run_single(
    scenario: Scenario,
    observations: np.ndarray,
    mask_rng,
    stop_at_alarm: bool = True,
) -> RunRecord:
    """Run the monitoring loop over a recorded/simulated stream: the R = 1
    case of `advance_lockstep`.

    With stop_at_alarm=False the run goes on to the end of the stream; the
    alarm time stays the first crossing.
    """
    check_stream(scenario, observations)
    monitor = Monitor(scenario, mask_rng)
    monitor.advance(observations)
    if not stop_at_alarm:
        monitor.advance(observations[monitor.t_abs :])
    return monitor.record()


def _next_mask(monitors: list, scan: ScanResult, det: Detector, rows) -> None:
    """The decide phase: the next masks of these rows of a block, whose
    monitors, stacked scan and stacked detector these are, in one call.
    Warm-up steps, scans without an estimate and the random policy draw at
    random; all other decisions go to the UCR sampler as one stack."""
    if not rows:
        return
    scenario = monitors[0].scenario
    policy, params = scenario.policy, scenario.model
    ucr = []
    for r in rows:
        if policy.kind == "random" or scan.tau_hat[r] is None:
            monitors[r].mask = select_random(params.p, scenario.m, monitors[r].mask_rng)
        else:
            ucr.append(r)
    if not ucr:
        return
    inputs = UcrInputs(
        f_hat=scan.f_hat[ucr],
        sigma_f=scan.sigma_f[ucr],
        g_next=det.g_next([scan.tau_hat[r] for r in ucr], ucr),
        p_pred=np.array([monitors[r].state.p_pred for r in ucr]),
        params=params,
        alpha=np.array([adaptive_alpha(scan.t_stat[r], policy.alpha) for r in ucr]),
    )
    select = select_exhaustive if policy.kind == "aucrss" else select_greedy
    for r, decision in zip(ucr, select(inputs, scenario.m)):
        monitors[r].mask = decision.mask
