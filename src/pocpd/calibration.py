"""Run-length estimation, control-limit search and the Monte-Carlo engine.

`run_blocks`, the one Monte-Carlo engine, runs a scenario's replications in
lockstep blocks (one `monitor.Monitor` each), one sampler call per step for
a block's decisions.  Sweeps read each run's length from it and calibration
each run's statistic trajectory: `ic_trajectories` is its single in-control
cell without a control limit.  The control limit h is found by bisection on
the in-control average detection delay, the alarm time for a trial h being
the first crossing of h on a stored trajectory.  This is common-random-
numbers bisection in its exact form: per-replication alarm times are
nondecreasing in h by construction.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import CalibrationError, NumericalError
from .model import ChangeSpec, SimulatedStream
from .monitor import Monitor, RunRecord, Scenario, absolute_change, replication_rngs
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

# Replications advanced together, in calibration and in sweeps: one sampler
# call per step scores the decisions of the whole block.  Past a few dozen,
# larger blocks save no measurable time but hold more monitors in memory: on
# the ic-p10-greedy benchmark, blocks of 50 raised the peak RSS by 5.6 % and
# blocks of 25 by 2.5 %, at the same speed.  Exhaustive search scores C(p, m)
# candidates per decision, so its blocks are smaller (_block_size).
IC_BLOCK = 25

# Errors that fail one cell of a scenario instead of the whole run.
CELL_ERRORS = (NumericalError, RuntimeError, np.linalg.LinAlgError)


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


def _block_size(scenario: Scenario) -> int:
    """Replications per lockstep block: IC_BLOCK, or for exhaustive search
    as many as score about IC_BLOCK * p candidates per call, the most that
    IC_BLOCK greedy decisions score (at least one)."""
    p, m = scenario.model.p, scenario.m
    if scenario.policy.kind != "aucrss":
        return IC_BLOCK
    return max(1, IC_BLOCK * p // math.comb(p, m))


def run_blocks(scenario: Scenario, lane: int, outcome, workers: int = 1) -> list:
    """Per change of the scenario: outcome(scenario, record) of each
    replication's RunRecord, on stream `lane`, up to the cell's first error,
    and that error (or None).  Replications run in lockstep blocks (_block,
    one Monitor each) of _block_size, which a pool of `workers` processes
    takes whole (`outcome` must then pickle); outcomes join in replication
    order, so none depends on either."""
    samples, errors = [[] for _ in scenario.changes], [None] * len(scenario.changes)
    reps, size = range(scenario.replications), _block_size(scenario)

    def jobs():
        # Drawn as blocks run here, to leave out failed cells; a pool draws all.
        for start in range(0, len(reps), size):
            if live := [i for i, error in enumerate(errors) if error is None]:
                yield (scenario, lane, outcome), reps[start : start + size], live

    if workers == 1:
        _join(samples, errors, map(_block, jobs()))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            _join(samples, errors, pool.map(_block, jobs()))
    return list(zip(samples, errors))


def _join(samples: list, errors: list, blocks) -> None:
    """Add blocks' samples and errors, in order, to the cells without an error."""
    for block_samples, block_errors in blocks:
        for i, error in enumerate(errors):
            if error is None:
                samples[i] += block_samples[i]
                errors[i] = block_errors[i]


def _block(args) -> tuple:
    """Outcomes and errors, per cell, of a block of replications of the
    given cells (the other cells get none).  One Monitor advances the block
    over the rows before the cells' earliest change point (or horizon); then
    it forks per cell, and the fork's rows that have not alarmed advance
    under the cell's change.  A failed block runs its replications alone,
    cell by cell, where an error names its seed, lane, replication and step.
    """
    (scenario, lane, outcome), reps, cells = args
    samples, errors = [[] for _ in scenario.changes], [None] * len(scenario.changes)
    total = scenario.n0 + scenario.horizon_cap
    shared = int(min([scenario.n0 + scenario.changes[i].tau for i in cells] + [total]))
    try:
        with replication_errors(scenario, lane, reps[0]):
            rngs = [replication_rngs(scenario.seed, lane, rep) for rep in reps]
            ic = ChangeSpec.none(scenario.model.q)
            streams = [SimulatedStream(scenario.model, ic, total, sim) for sim, _ in rngs]
            block = Monitor(scenario, [mask_rng for _, mask_rng in rngs])
            block.advance([stream.rows(shared) for stream in streams])
            for i in cells:
                run = block
                if block.live and shared < total:
                    run = block.fork()
                    change = absolute_change(scenario, scenario.changes[i])
                    run.advance([streams[r].fork(change).rows(total - shared) for r in block.live])
                samples[i] = [outcome(scenario, record) for record in run.records()]
    except CELL_ERRORS as exc:
        samples, errors = [[] for _ in scenario.changes], [None] * len(scenario.changes)
        if len(reps) == len(cells) == 1:
            errors[cells[0]] = exc
        else:
            alone = ((args[0], [rep], [i]) for rep in reps for i in cells if errors[i] is None)
            _join(samples, errors, map(_block, alone))
    return samples, errors


def _trajectory(scenario: Scenario, record: RunRecord) -> np.ndarray:
    """Calibration's outcome of a run (a function, so that a pool pickles it)."""
    return record.t_stats


def ic_trajectories(scenario: Scenario, spec: CalibrationSpec) -> np.ndarray:
    """(replications, horizon_cap) in-control scan-statistic trajectories:
    run_blocks's in-control cell, on the calibration lane and without a
    control limit; the scenario's own changes do not run.  Every row equals
    a run_single of its replication.  A failure raises the first failing
    replication's error; a NumericalError names its seed, lane, replication
    and step.
    """
    base = replace(
        scenario,
        window=replace(scenario.window, h=None),
        changes=(ChangeSpec.none(scenario.model.q),),
        replications=spec.replications,
        horizon_cap=spec.horizon_cap,
        seed=spec.seed,
    )
    [(rows, error)] = run_blocks(base, STREAM_CALIBRATION, _trajectory, spec.workers)
    if error is not None:
        raise error
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
