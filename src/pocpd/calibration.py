"""Run-length estimation and control-limit search.

The control limit h is found by bisection on the in-control average detection
delay.  Every replication is simulated once with the alarm disabled and its
full statistic trajectory stored; the alarm time for any trial h is then the
first threshold crossing of that trajectory.  This is common-random-numbers
bisection in its exact form: per-replication alarm times are nondecreasing
in h by construction.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CalibrationError, NumericalError
from .model import ChangeSpec
from .monitor import RunRecord, Scenario, replication_rngs, run_single, simulate_run_stream

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


@dataclass(frozen=True)
class CalibrationSpec:
    target_add_ic: float
    replications: int = 1000
    h_lo: float = 1.0
    h_hi: float = 200.0
    tol: float = 0.05
    max_iters: int = 40
    horizon_cap: int = 1000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.target_add_ic > 0:
            raise ValueError("target_add_ic must be positive")
        if not 0 < self.h_lo < self.h_hi:
            raise ValueError(
                f"h_lo must satisfy 0 < h_lo < h_hi, got ({self.h_lo}, {self.h_hi})"
            )
        if self.replications < 100:
            raise ValueError("replications must be >= 100")
        if self.horizon_cap < 5 * self.target_add_ic:
            raise ValueError("horizon_cap must be >= 5 * target_add_ic")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RunLengthSample:
    alarm_time: int  # monitoring steps; horizon cap when censored
    censored: bool


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


def run_once(
    scenario: Scenario,
    change: ChangeSpec,
    rep: int,
    stream_id: int = STREAM_EVALUATION,
) -> RunLengthSample:
    """One full monitored replication; stops at the first alarm."""
    if scenario.window.h is None:
        raise ValueError("scenario window has no control limit; calibrate first")
    record = _run_record(scenario, change, rep, stream_id)
    if record.alarm_time is None:
        return RunLengthSample(scenario.horizon_cap, censored=True)
    return RunLengthSample(record.alarm_time, censored=False)


def _run_record(
    scenario: Scenario, change: ChangeSpec, rep: int, stream_id: int
) -> RunRecord:
    """One replication, stopped at the first alarm; with window.h unset
    (in-control trajectories) it runs to the horizon."""
    sim_rng, mask_rng = replication_rngs(scenario.seed, stream_id, rep)
    try:
        observations = simulate_run_stream(scenario, change, sim_rng)
        return run_single(scenario, observations, mask_rng)
    except NumericalError as exc:
        raise NumericalError(
            f"seed {scenario.seed}, stream lane {stream_id}, replication {rep}, {exc}"
        ) from exc


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


def _ic_trajectory(args) -> np.ndarray:
    scenario, rep = args
    ic = ChangeSpec.none(scenario.model.q)
    return _run_record(scenario, ic, rep, STREAM_CALIBRATION).t_stats


def ic_trajectories(scenario: Scenario, spec: CalibrationSpec) -> np.ndarray:
    """(replications, horizon_cap) in-control scan-statistic trajectories."""
    base = replace(
        scenario,
        window=replace(scenario.window, h=None),
        horizon_cap=spec.horizon_cap,
        seed=spec.seed,
    )
    jobs = [(base, rep) for rep in range(spec.replications)]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(_ic_trajectory, jobs, chunksize=8))
    else:
        rows = [_ic_trajectory(job) for job in jobs]
    return np.vstack(rows)


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

    h_lo, h_hi = spec.h_lo, spec.h_hi
    add_lo = achieved(h_lo)
    add_hi = achieved(h_hi)
    for _ in range(60):
        if add_lo <= target:
            break
        h_lo /= 2.0
        add_lo = achieved(h_lo)
    for _ in range(60):
        if add_hi >= target:
            break
        h_hi *= 2.0
        add_hi = achieved(h_hi)
    if not (add_lo <= target <= add_hi):
        raise CalibrationError(
            f"bracket [{h_lo:.4g}, {h_hi:.4g}] does not straddle target "
            f"{target} (achieved [{add_lo:.4g}, {add_hi:.4g}])"
        )

    if abs(add_lo - target) / target <= spec.tol:
        return result(h_lo, 0)

    best_gap, best_h, best_iteration = math.inf, None, None
    for iteration in range(1, spec.max_iters + 1):
        h_mid = 0.5 * (h_lo + h_hi)
        add_mid = achieved(h_mid)
        gap = abs(add_mid - target) / target
        if gap < best_gap:
            best_gap, best_h, best_iteration = gap, h_mid, iteration
        if gap <= spec.tol:
            break
        if add_mid < target:
            h_lo = h_mid
        else:
            h_hi = h_mid
    if best_gap > spec.tol:
        raise CalibrationError(
            f"bisection did not reach tol={spec.tol} in {spec.max_iters} "
            f"iterations (best gap {best_gap:.4g} at h={best_h:.6g})",
            best_h=best_h,
        )
    return result(best_h, best_iteration)
