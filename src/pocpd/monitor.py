"""Single-stream monitoring loop: filter -> detector -> alarm -> next subset.

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
from .filtering import filter_init, filter_step
from .model import ChangeSpec, ModelParams, ObservationMask, simulate_stream
from .sampler import (
    AlphaSchedule,
    UcrInputs,
    adaptive_alpha,
    select_exhaustive,
    select_greedy,
    select_random,
)

__all__ = ["Policy", "Scenario", "RunRecord", "Monitor", "run_single", "replication_rngs"]

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

    `advance` consumes full p-dimensional rows; the policy decides which
    columns the filter actually sees.  Scanning and alarms start after the
    n0 random warm-up steps.
    """

    def __init__(self, scenario: Scenario, mask_rng):
        params = scenario.model
        self.scenario = scenario
        self.state = filter_init(params)
        self.det = Detector(params.q, scenario.window)
        self.mask_rng = mask_rng
        # The next step's mask; None while the decision after an alarm is pending.
        self.mask: ObservationMask | None = select_random(params.p, scenario.m, mask_rng)
        self.scan: ScanResult | None = None
        self.t_abs = 0
        self.t_stats: list[float] = []
        self.masks: list[tuple] = []
        self.alarm_time = self.tau_hat = self.f_hat = None  # as in RunRecord

    def advance(self, rows) -> None:
        """Consume rows; stop after the first alarm (T_n > h), if it comes."""
        scenario = self.scenario
        params, window, n0 = scenario.model, scenario.window, scenario.n0
        h = window.h if window.h is not None else math.inf
        try:
            for row in rows:
                if self.mask is None:
                    self.mask = _next_mask(
                        scenario, self.det, self.state, self.scan, self.mask_rng
                    )
                mask = self.mask
                self.t_abs = t_abs = self.t_abs + 1
                self.masks.append(mask.indices)
                self.state, out = filter_step(self.state, params, mask, row[list(mask.indices)])
                self.det.push_step(make_step_term(out, params.C))
                scan = None
                if t_abs >= n0 and t_abs > window.m2 + 1:
                    scan = self.det.scan()
                self.scan = scan
                mon = t_abs - n0
                if mon >= 1:
                    t_stat = scan.t_stat if scan is not None else 0.0
                    self.t_stats.append(t_stat)
                    if scan is not None and scan.tau_hat is not None:
                        self.tau_hat = scan.tau_hat - n0
                        self.f_hat = scan.f_hat
                    if t_stat > h and self.alarm_time is None:
                        self.alarm_time = mon
                        self.mask = None
                        return
                self.mask = _next_mask(scenario, self.det, self.state, scan, self.mask_rng)
        except NumericalError as exc:
            raise NumericalError(f"absolute step {self.t_abs}: {exc}") from exc

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


def run_single(
    scenario: Scenario,
    observations: np.ndarray,
    mask_rng,
    stop_at_alarm: bool = True,
) -> RunRecord:
    """Run the monitoring loop over a recorded/simulated stream.

    With stop_at_alarm=False the run goes on to the end of the stream; the
    alarm time stays the first crossing.
    """
    params = scenario.model
    if observations.ndim != 2:
        raise ValueError(f"stream must be a (T, p) matrix, got shape {observations.shape}")
    if observations.shape[1] != params.p:
        raise ValueError(
            f"stream has {observations.shape[1]} columns, model expects p={params.p}"
        )
    if not np.all(np.isfinite(observations)):
        raise ValueError("stream contains non-finite entries")
    monitor = Monitor(scenario, mask_rng)
    monitor.advance(observations)
    if not stop_at_alarm:
        monitor.advance(observations[monitor.t_abs :])
    return monitor.record()


def _next_mask(
    scenario: Scenario,
    det: Detector,
    state,
    scan: ScanResult | None,
    mask_rng,
) -> ObservationMask:
    policy = scenario.policy
    params = scenario.model
    if policy.kind == "random" or scan is None or scan.tau_hat is None:
        return select_random(params.p, scenario.m, mask_rng)
    inputs = UcrInputs(
        f_hat=scan.f_hat,
        sigma_f=scan.sigma_f,
        g_next=det.g_next(scan.tau_hat),
        p_pred=state.p_pred,
        params=params,
        alpha=adaptive_alpha(scan.t_stat, policy.alpha),
    )
    if policy.kind == "aucrss":
        return select_exhaustive(inputs, scenario.m).mask
    return select_greedy(inputs, scenario.m).mask
