"""Single-stream monitoring loop: filter -> detector -> alarm -> next subset.

Time bookkeeping: a run consists of n0 warm-up steps with random subsets
followed by monitored steps.  Monitoring step n (n = 1, 2, ...) corresponds
to absolute step n0 + n; alarm times, change points, and detection delays
are all reported on the monitoring clock.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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

__all__ = ["Policy", "Scenario", "RunRecord", "run_single", "replication_rngs"]

POLICY_NAMES = ("aucrss", "e_aucrss", "random")


@dataclass(frozen=True)
class Policy:
    """Subset-selection policy plus its exploration level."""

    kind: str
    alpha: AlphaSchedule | float | None = None

    def __post_init__(self):
        if self.kind not in POLICY_NAMES:
            raise ValueError(f"kind must be one of {POLICY_NAMES}, got {self.kind!r}")
        if self.kind != "random":
            if isinstance(self.alpha, AlphaSchedule):
                pass
            elif isinstance(self.alpha, (int, float)) and 0.0 < float(self.alpha) < 1.0:
                pass
            else:
                raise ValueError(
                    f"alpha of policy {self.kind!r} must be in (0, 1) or an AlphaSchedule"
                )

    def alpha_for(self, t_stat: float) -> float:
        if isinstance(self.alpha, AlphaSchedule):
            return adaptive_alpha(t_stat, self.alpha)
        return float(self.alpha)


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
        if self.m * self.window.m2 < self.model.q:
            warnings.warn(
                f"m*m2 = {self.m * self.window.m2} < q = {self.model.q}: the "
                "youngest scan candidates may be rank-deficient and skipped",
                stacklevel=2,
            )


@dataclass
class RunRecord:
    """Trajectory of one monitored stream (monitoring clock)."""

    t_stats: np.ndarray  # scan statistic per monitored step
    alarm_time: int | None  # first monitored step with T_n > h, None if censored
    tau_hat: int | None  # estimated change point at the last scan
    f_hat: np.ndarray | None  # shift estimate at the last scan
    n0: int
    masks: list = field(default_factory=list)  # per absolute step, if recorded


def replication_rngs(seed: int, stream_id: int, rep: int):
    """Deterministic (simulation, mask) generator pair for one replication.

    All randomness flows from SeedSequence([seed, stream_id, rep, lane]);
    results are therefore independent of scheduling order.
    """
    sim = np.random.default_rng(np.random.SeedSequence([seed, stream_id, rep, 0]))
    mask = np.random.default_rng(np.random.SeedSequence([seed, stream_id, rep, 1]))
    return sim, mask


def simulate_run_stream(
    scenario: Scenario, change: ChangeSpec, sim_rng
) -> np.ndarray:
    """Full-observation stream for one replication, warm-up included.

    The change point is mapped from the monitoring clock to the absolute
    stream: monitoring step n >= tau + 1 sees the shifted state.
    """
    tau_abs = math.inf if change.tau == math.inf else scenario.n0 + change.tau
    y, _ = simulate_stream(
        scenario.model,
        ChangeSpec(tau=tau_abs, f=change.f),
        horizon=scenario.n0 + scenario.horizon_cap,
        seed=sim_rng,
    )
    return y


def run_single(
    scenario: Scenario,
    observations: np.ndarray,
    mask_rng,
    stop_at_alarm: bool = True,
    record_masks: bool = False,
) -> RunRecord:
    """Run the full monitoring loop over a recorded/simulated stream.

    `observations` holds full p-dimensional rows; the policy decides which
    columns the filter actually sees.  Scanning and alarms start after the
    n0 random warm-up steps.
    """
    params = scenario.model
    window = scenario.window
    h = window.h if window.h is not None else math.inf
    n0, m = scenario.n0, scenario.m
    if observations.shape[1] != params.p:
        raise ValueError(
            f"stream has {observations.shape[1]} columns, model expects p={params.p}"
        )
    if not np.all(np.isfinite(observations)):
        raise ValueError("stream contains non-finite entries")
    state = filter_init(params)
    det = Detector(params.q, window)
    mask = select_random(params.p, m, mask_rng)
    t_stats: list[float] = []
    masks: list[tuple] = []
    record = RunRecord(
        t_stats=np.empty(0), alarm_time=None, tau_hat=None, f_hat=None, n0=n0
    )
    total = observations.shape[0]
    t_abs = 0
    try:
        for i in range(total):
            t_abs = i + 1
            if record_masks:
                masks.append(mask.indices)
            y_obs = observations[i, list(mask.indices)]
            state, out = filter_step(state, params, mask, y_obs)
            det.push_step(make_step_term(out, params.C))
            scan: ScanResult | None = None
            if t_abs >= n0 and t_abs > window.m2 + 1:
                scan = det.scan()
            mon = t_abs - n0
            if mon >= 1:
                t_stat = scan.t_stat if scan is not None else 0.0
                t_stats.append(t_stat)
                if scan is not None and scan.tau_hat is not None:
                    record.tau_hat = scan.tau_hat - n0
                    record.f_hat = scan.f_hat
                if t_stat > h:
                    record.alarm_time = mon
                    if stop_at_alarm:
                        break
            mask = _next_mask(scenario, det, state, scan, mask_rng)
    except NumericalError as exc:
        raise NumericalError(f"absolute step {t_abs}: {exc}") from exc
    record.t_stats = np.asarray(t_stats)
    record.masks = masks
    return record


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
    alpha = policy.alpha_for(scan.t_stat)
    inputs = UcrInputs(
        f_hat=scan.f_hat,
        sigma_f=scan.sigma_f,
        g_next=det.g_next(scan.tau_hat),
        p_pred=state.p_pred,
        params=params,
        alpha=alpha,
    )
    if policy.kind == "aucrss":
        return select_exhaustive(inputs, scenario.m).mask
    return select_greedy(inputs, scenario.m).mask
