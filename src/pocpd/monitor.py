"""Monitoring loop: filter -> detector -> alarm -> next subset, run by one
`Monitor` for a lockstep block of streams (one stream is the block of one).

Time bookkeeping: a run consists of n0 warm-up steps with random subsets
followed by monitored steps.  Monitoring step n (n = 1, 2, ...) corresponds
to absolute step n0 + n; alarm times, change points, and detection delays
are all reported on the monitoring clock.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .detector import Detector, ScanResult, WindowConfig, make_step_term
from .errors import NumericalError
from .filtering import filter_init, filter_step
from .model import ChangeSpec, ModelParams, simulate_stream
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


@dataclass
class _Row:
    """One stream of a block: its mask generator and its record so far (as
    in RunRecord)."""

    mask_rng: object
    t_stats: list
    masks: list
    alarm_time: int | None = None
    tau_hat: int | None = None
    f_hat: np.ndarray | None = None


class Monitor:
    """The monitoring loop of R streams of one scenario, in lockstep:
    resumable and forkable.  One stream is the block of one.

    Each step has two phases.  The observe phase filters the live rows
    through their decided masks as one stack, pushes one stacked step term
    into the block's detector and scans once; scanning and alarms start
    after the n0 random warm-up steps.  The decide phase then picks the next
    masks of the rows that go on with one `_next_mask` call on this scan: the
    policy's choice, or random ones during warm-up.  A row that stops at its
    alarm leaves the block after it.  `live` lists the rows still in the
    block, whose filter state, detector rows and next masks `masks`, an
    (R, m) index array, these are.
    """

    def __init__(self, scenario: Scenario, mask_rngs: list):
        params = scenario.model
        self.scenario = scenario
        self.h = scenario.window.h if scenario.window.h is not None else math.inf
        self.det = Detector(params.q, scenario.window, rows=len(mask_rngs))
        self.state = filter_init(params, rows=len(mask_rngs))
        self.live = list(range(len(mask_rngs)))
        self.masks = np.array([select_random(params.p, scenario.m, rng) for rng in mask_rngs])
        self._rows = [_Row(rng, [], []) for rng in mask_rngs]

    def advance(self, streams: list, stop_at_alarm: bool = True) -> None:
        """Advance the live rows in lockstep over their streams, one per live
        row and all of one length (ValueError otherwise).  With stop_at_alarm
        a row leaves the block at its first alarm (T_n > h); without, it goes
        on, and its alarm time stays the first crossing.  Every row that goes
        on has its next mask decided at the end of each step.  A
        NumericalError names the absolute step; each row's results equal
        those of advancing it alone, which is how to find the row that
        raised it."""
        if len(streams) != len(self.live):
            raise ValueError(f"{len(streams)} streams for {len(self.live)} live rows")
        scenario = self.scenario
        params, n0, m2 = scenario.model, scenario.n0, scenario.window.m2
        live, iters = [self._rows[i] for i in self.live], [iter(s) for s in streams]
        t = self.det.n  # the absolute step
        try:
            while live:
                obs = [next(it, None) for it in iters]
                ended = sum(y is None for y in obs)
                if 0 < ended < len(obs):
                    raise ValueError(f"streams end at different steps: {ended} of "
                                     f"{len(obs)} after absolute step {t}")
                if ended:
                    break
                t += 1
                masks = self.masks
                for row, mask in zip(live, masks.tolist()):
                    row.masks.append(tuple(mask))
                self.state, out = filter_step(self.state, params, masks,
                                              np.take_along_axis(np.array(obs), masks, 1))
                self.det.push_step(make_step_term(out, params.C))
                scan = (self.det.scan() if t >= n0 and t > m2 + 1
                        else ScanResult.none(len(live), params.q))
                alarms = [self._note(row, scan, r) for r, row in enumerate(live)]
                going = [r for r, alarm in enumerate(alarms) if not (stop_at_alarm and alarm)]
                self.masks = _next_mask(self, live, going, scan)
                if len(going) < len(live):
                    self.det, self.state = self.det.take(going), self.state.take(going)
                    self.live = [self.live[r] for r in going]
                    live, iters = [live[r] for r in going], [iters[r] for r in going]
        except NumericalError as exc:
            raise NumericalError(f"absolute step {t}: {exc}") from exc

    def _note(self, row: _Row, scan: ScanResult, r: int) -> bool:
        """Record row r of this step's scan; True when it raises the row's
        first alarm."""
        mon = self.det.n - self.scenario.n0
        if mon < 1:
            return False
        t_stat = float(scan.t_stat[r])
        row.t_stats.append(t_stat)
        if scan.tau_hat[r] is not None:
            row.tau_hat = scan.tau_hat[r] - self.scenario.n0
            row.f_hat = scan.f_hat[r]
        if t_stat > self.h and row.alarm_time is None:
            row.alarm_time = mon
            return True
        return False

    def fork(self, copies: int = 1) -> "Monitor":
        """`copies` independent copies of the block's R rows as one block:
        row c * R + i is copy c of row i.  They share f_hat, which is
        replaced, not written."""
        other, n, stack = copy.copy(self), len(self._rows), list(range(len(self.live))) * copies
        other.det, other.state = self.det.take(stack), self.state.take(stack)
        other.masks = self.masks[stack]
        other.live = [c * n + i for c in range(copies) for i in self.live]
        other._rows = [replace(r, t_stats=list(r.t_stats), masks=list(r.masks),
                               mask_rng=copy.deepcopy(r.mask_rng)) for r in self._rows * copies]
        return other

    def records(self) -> list[RunRecord]:
        """Each row's record so far, in the order of the mask generators."""
        return [RunRecord(t_stats=np.asarray(row.t_stats), alarm_time=row.alarm_time,
                          tau_hat=row.tau_hat, f_hat=row.f_hat, n0=self.scenario.n0,
                          masks=list(row.masks)) for row in self._rows]


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
    """Run the monitoring loop over a recorded/simulated stream: the block
    of one.

    With stop_at_alarm=False the run goes on to the end of the stream; the
    alarm time stays the first crossing.
    """
    check_stream(scenario, observations)
    monitor = Monitor(scenario, [mask_rng])
    monitor.advance([observations], stop_at_alarm)
    return monitor.records()[0]


def _next_mask(block: Monitor, live: list, rows: list, scan: ScanResult) -> np.ndarray:
    """The decide phase: the next masks of these rows of a block, whose
    live, filter and detector rows these are, from this step's scan, in one
    call, as a (len(rows), m) index array.  Warm-up steps, scans without an
    estimate and the random policy draw at random; all other decisions go
    to the UCR sampler as one stack."""
    scenario = block.scenario
    policy, params = scenario.policy, scenario.model
    masks = np.empty((len(rows), scenario.m), dtype=np.intp)
    at, ucr = [], []  # the UCR decisions' positions in rows, and their rows
    for k, r in enumerate(rows):
        if policy.kind == "random" or scan.tau_hat[r] is None:
            masks[k] = select_random(params.p, scenario.m, live[r].mask_rng)
        else:
            at.append(k)
            ucr.append(r)
    if ucr:
        inputs = UcrInputs(
            f_hat=scan.f_hat[ucr],
            sigma_f=scan.sigma_f[ucr],
            g_next=block.det.g_next([scan.tau_hat[r] for r in ucr], ucr),
            p_pred=block.state.p_pred[ucr],
            params=params,
            alpha=adaptive_alpha(scan.t_stat[ucr], policy.alpha),
        )
        select = select_exhaustive if policy.kind == "aucrss" else select_greedy
        masks[at] = select(inputs, scenario.m)[0]
    return masks
