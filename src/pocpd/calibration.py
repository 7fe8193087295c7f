"""Run-length estimation and control-limit search.

The control limit h is found by bisection on the in-control average detection
delay.  Every replication is simulated once with the alarm disabled and its
full statistic trajectory stored; the alarm time for any trial h is then the
first threshold crossing of that trajectory.  This is common-random-numbers
bisection in its exact form: per-replication alarm times are nondecreasing
in h by construction.  The replications are monitored in lockstep blocks
(`monitor.advance_lockstep`), so each step makes one sampler call for the
decisions of a whole block; the trajectories equal those of monitoring
each replication alone.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CalibrationError, NumericalError
from .model import ChangeSpec
from .monitor import Monitor, Scenario, advance_lockstep, check_stream, replication_rngs
from .monitor import run_single, simulate_run_stream

__all__ = [
    "CalibrationSpec",
    "RunLengthSample",
    "AddEstimate",
    "CalibrationResult",
    "run_once",
    "estimate_add",
    "ic_trajectories",
    "calibrate_h",
]

# Stream-id lanes keeping calibration draws disjoint from evaluation draws.
STREAM_CALIBRATION = 1
STREAM_EVALUATION = 2

# Initial bisection bracket for h, widened by halving and doubling until it
# straddles the target, and the most bisection steps before giving up.
H_BRACKET = (1.0, 200.0)
MAX_ITERS = 40

# In-control replications advanced together: one sampler call per step
# scores the decisions of the whole block.  Past a few dozen, larger blocks
# save no measurable time but hold more monitors in memory: on the
# ic-p10-greedy benchmark, blocks of 50 raised the peak RSS by 5.6 % and
# blocks of 25 by 2.5 %, at the same speed.  Exhaustive search scores
# C(p, m) candidates per decision, so its blocks are smaller (_ic_block_size).
IC_BLOCK = 25


@dataclass(frozen=True)
class CalibrationSpec:
    target_add_ic: float
    replications: int = 1000
    tol: float = 0.05
    horizon_cap: int = 1000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.target_add_ic > 0:
            raise ValueError("target_add_ic must be positive")
        if self.replications < 100:
            raise ValueError("replications must be >= 100")
        if self.horizon_cap < 5 * self.target_add_ic:
            raise ValueError("horizon_cap must be >= 5 * target_add_ic")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class RunLengthSample:
    alarm_time: int  # monitoring steps; horizon cap when censored
    censored: bool

    @classmethod
    def of(cls, scenario: Scenario, alarm_time: int | None) -> "RunLengthSample":
        """A run's sample; a run without alarm is censored at the horizon."""
        return cls(alarm_time or scenario.horizon_cap, censored=alarm_time is None)


@dataclass(frozen=True)
class AddEstimate:
    add: float
    sdd: float
    n_used: int
    censored_fraction: float


@dataclass(frozen=True)
class CalibrationResult:
    h: float
    achieved_add_ic: float
    sdd: float
    censored_fraction: float
    iterations: int
    replications: int

    def report(self) -> dict:
        return asdict(self)

    def write_report(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(self.report(), fh, indent=2)
            fh.write("\n")


def require_control_limit(scenario: Scenario) -> None:
    if scenario.window.h is None:
        raise ValueError("scenario window has no control limit; calibrate first")


@contextmanager
def replication_errors(scenario: Scenario, stream_id: int, rep: int):
    """Name the seed, lane and replication in a NumericalError raised inside."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(
            f"seed {scenario.seed}, stream lane {stream_id}, replication {rep}, {exc}"
        ) from exc


def run_once(
    scenario: Scenario,
    change: ChangeSpec,
    rep: int,
    stream_id: int = STREAM_EVALUATION,
) -> RunLengthSample:
    """One full monitored replication; stops at the first alarm."""
    require_control_limit(scenario)
    sim_rng, mask_rng = replication_rngs(scenario.seed, stream_id, rep)
    with replication_errors(scenario, stream_id, rep):
        observations = simulate_run_stream(scenario, change, sim_rng)
        record = run_single(scenario, observations, mask_rng)
    return RunLengthSample.of(scenario, record.alarm_time)


def estimate_add(samples: list[RunLengthSample], tau: float) -> AddEstimate:
    """Average detection delay: IC uses all alarm times, OC conditions on
    alarms after the change point and reports T - tau.

    The first shifted monitoring step is tau + 1, so an alarm at tau has
    seen only in-control data: it is a false alarm, not a delay of 0.
    """
    if tau == math.inf:
        delays = [s.alarm_time for s in samples]
        censored = sum(s.censored for s in samples)
    else:
        kept = [s for s in samples if s.alarm_time > tau]
        delays = [s.alarm_time - tau for s in kept]
        censored = sum(s.censored for s in kept)
    if not delays or len(delays) == censored:
        raise CalibrationError("no uncensored replication available for the estimate")
    arr = np.asarray(delays, dtype=float)
    return AddEstimate(
        add=float(arr.mean()),
        sdd=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        n_used=int(arr.size),
        censored_fraction=censored / arr.size,
    )


def _ic_replication(scenario: Scenario, rep: int) -> tuple[Monitor, np.ndarray]:
    """A fresh monitor and the in-control stream of one replication."""
    sim_rng, mask_rng = replication_rngs(scenario.seed, STREAM_CALIBRATION, rep)
    with replication_errors(scenario, STREAM_CALIBRATION, rep):
        stream = simulate_run_stream(scenario, ChangeSpec.none(scenario.model.q), sim_rng)
    check_stream(scenario, stream)
    return Monitor(scenario, mask_rng), stream


def _ic_block(args) -> np.ndarray:
    """In-control trajectories of a block of replications, advanced in lockstep."""
    scenario, reps = args
    monitors, streams = zip(*(_ic_replication(scenario, rep) for rep in reps))
    try:
        advance_lockstep(monitors, streams)
    except NumericalError:
        # Each replication fails alone as it fails in the block, and alone
        # it names its seed, lane, replication and step.
        for rep in reps:
            monitor, stream = _ic_replication(scenario, rep)
            with replication_errors(scenario, STREAM_CALIBRATION, rep):
                monitor.advance(stream)
        raise
    return np.array([monitor.t_stats for monitor in monitors])


def _ic_block_size(scenario: Scenario) -> int:
    """Replications per lockstep block: IC_BLOCK, or for exhaustive search
    as many as score about IC_BLOCK * p candidates per call, the most that
    IC_BLOCK greedy decisions score (at least one)."""
    p, m = scenario.model.p, scenario.m
    if scenario.policy.kind != "aucrss":
        return IC_BLOCK
    return max(1, IC_BLOCK * p // math.comb(p, m))


def ic_trajectories(scenario: Scenario, spec: CalibrationSpec) -> np.ndarray:
    """(replications, horizon_cap) in-control scan-statistic trajectories.

    Replications run in lockstep blocks of _ic_block_size, and each worker
    takes whole blocks; every row equals a run_single of its replication,
    so the result depends on neither the block size nor the worker count.
    """
    base = replace(
        scenario,
        window=replace(scenario.window, h=None),
        horizon_cap=spec.horizon_cap,
        seed=spec.seed,
    )
    reps = range(spec.replications)
    size = _ic_block_size(base)
    jobs = [(base, reps[i : i + size]) for i in range(0, len(reps), size)]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            blocks = list(pool.map(_ic_block, jobs))
    else:
        blocks = [_ic_block(job) for job in jobs]
    return np.vstack(blocks)


def _alarm_times(trajectories: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    crossed = trajectories > h
    any_cross = crossed.any(axis=1)
    first = np.where(any_cross, crossed.argmax(axis=1) + 1, trajectories.shape[1])
    return first.astype(float), ~any_cross


def calibrate_h(
    spec: CalibrationSpec,
    scenario: Scenario,
    trajectories: np.ndarray | None = None,
) -> CalibrationResult:
    """Bisection search for the control limit meeting the ADD_IC target.

    Precomputed `trajectories` may be passed to reuse simulations (tests,
    sweeps); they must come from ic_trajectories with the same spec.
    """
    if trajectories is None:
        trajectories = ic_trajectories(scenario, spec)
    target = spec.target_add_ic

    def achieved(h: float) -> float:
        return float(_alarm_times(trajectories, h)[0].mean())

    def result(h: float, iterations: int) -> CalibrationResult:
        times, censored = _alarm_times(trajectories, h)
        return CalibrationResult(
            h=h,
            achieved_add_ic=float(times.mean()),
            sdd=float(times.std(ddof=1)),
            censored_fraction=float(censored.mean()),
            iterations=iterations,
            replications=spec.replications,
        )

    lo, hi = H_BRACKET
    add_lo = achieved(lo)
    add_hi = achieved(hi)
    for _ in range(60):
        if add_lo <= target:
            break
        lo /= 2.0
        add_lo = achieved(lo)
    for _ in range(60):
        if add_hi >= target:
            break
        hi *= 2.0
        add_hi = achieved(hi)
    if not (add_lo <= target <= add_hi):
        raise CalibrationError(
            f"bracket [{lo:.4g}, {hi:.4g}] does not straddle target "
            f"{target} (achieved [{add_lo:.4g}, {add_hi:.4g}])"
        )

    if abs(add_lo - target) / target <= spec.tol:
        return result(lo, 0)

    best_gap, best = math.inf, None  # closest to the target so far
    for iteration in range(1, MAX_ITERS + 1):
        mid = 0.5 * (lo + hi)
        add_mid = achieved(mid)
        gap = abs(add_mid - target) / target
        if gap <= spec.tol:
            return result(mid, iteration)
        if gap < best_gap:
            best_gap, best = gap, mid
        if add_mid < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection did not reach tol={spec.tol} in {MAX_ITERS} "
        f"iterations (best gap {best_gap:.4g} at h={best:.6g})"
    )
