"""Experiment sweeps, metric tables, CSV emission, and replay of recorded data.

A scenario fixes the model, window, policy, and a grid of change specs.
`run_scenario` fills one table cell per change spec; cells that fail record
the reason and the sweep keeps going.  `ingest_csv` + `replay_monitor` run
the same monitoring loop over recorded (or externally simulated) streams,
with subset masking applied in software.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import STREAM_EVALUATION, estimate_add, run_once
from .errors import ConfigError, NumericalError
from .monitor import RunRecord, Scenario, replication_rngs, run_single

__all__ = [
    "CellResult",
    "ResultTable",
    "RecordedStream",
    "run_scenario",
    "ingest_csv",
    "replay_monitor",
    "emit_outputs",
]

RESULT_COLUMNS = ("scenario", "policy", "f", "ADD", "SDD", "n_reps", "censored", "h")


@dataclass(frozen=True)
class CellResult:
    """One (scenario, policy, shift magnitude) grid cell."""

    scenario: str
    policy: str
    f: float
    add: float | None
    sdd: float | None
    n_reps: int
    censored: float | None
    h: float | None
    error: str | None = None


@dataclass
class ResultTable:
    cells: list

    def __post_init__(self):
        self.cells = list(self.cells)

    def merge(self, other: "ResultTable") -> "ResultTable":
        return ResultTable(self.cells + other.cells)

    def cell(self, policy: str, f: float) -> CellResult:
        for c in self.cells:
            if c.policy == policy and c.f == f:
                return c
        raise KeyError(f"no cell for policy={policy!r}, f={f}")


@dataclass(frozen=True)
class RecordedStream:
    """T x p observation matrix plus the normalization that produced it."""

    data: np.ndarray
    column_mean: np.ndarray
    column_std: np.ndarray
    source: str

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("stream data must be a 2-d matrix")
        if not np.all(np.isfinite(data)):
            raise ValueError("stream contains non-finite entries")


def run_scenario(scenario: Scenario) -> ResultTable:
    """One table cell per change spec, `replications` runs each.

    Deterministic given scenario.seed: replication r of every cell draws
    from its own seed lane regardless of execution order.
    """
    cells = []
    for change in scenario.changes:
        try:
            samples = [
                run_once(scenario, change, rep, stream_id=STREAM_EVALUATION)
                for rep in range(scenario.replications)
            ]
            est = estimate_add(samples, change.tau)
            stats = dict(
                add=est.add, sdd=est.sdd, n_reps=est.n_used, censored=est.censored_fraction
            )
        except (NumericalError, RuntimeError, np.linalg.LinAlgError) as exc:
            stats = dict(add=None, sdd=None, n_reps=0, censored=None, error=str(exc))
        cells.append(
            CellResult(
                scenario=scenario.name,
                policy=scenario.policy.kind,
                f=float(change.magnitude),
                h=scenario.window.h,
                **stats,
            )
        )
    return ResultTable(cells)


def _parse_csv_matrix(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_idx, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            values = []
            for col_idx, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    if row_idx == 0 and not rows:
                        values = None  # header row
                        break
                    raise ConfigError(
                        f"{path}: non-numeric cell {cell!r} at row {row_idx}, "
                        f"column {col_idx}"
                    ) from None
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{path}: non-finite cell {cell!r} at row {row_idx}, "
                        f"column {col_idx}"
                    )
                values.append(value)
            if values is None:
                continue
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ConfigError(
                    f"{path}: ragged row {row_idx} has {len(values)} cells, "
                    f"expected {width}"
                )
            rows.append(values)
    if not rows:
        raise ConfigError(f"{path}: no numeric rows")
    return np.asarray(rows, dtype=float)


def ingest_csv(
    path, normalization: str = "none", reference=None
) -> RecordedStream:
    """Load a T x p stream; `zscore-from-reference` standardizes every column
    by the reference file's statistics (the reference plays the role of a
    recorded in-control run)."""
    data = _parse_csv_matrix(path)
    if normalization == "none":
        mean = np.zeros(data.shape[1])
        std = np.ones(data.shape[1])
    elif normalization == "zscore-from-reference":
        ref = data if reference is None else _parse_csv_matrix(reference)
        if ref.shape[1] != data.shape[1]:
            raise ConfigError(
                f"reference has {ref.shape[1]} columns, stream has {data.shape[1]}"
            )
        mean = ref.mean(axis=0)
        std = ref.std(axis=0, ddof=0)
        if np.any(std == 0):
            bad = int(np.flatnonzero(std == 0)[0])
            raise ConfigError(f"reference column {bad} is constant; cannot z-score")
        data = (data - mean) / std
    else:
        raise ConfigError(f"unknown normalization {normalization!r}")
    return RecordedStream(
        data=data, column_mean=mean, column_std=std, source=str(path)
    )


def replay_monitor(stream: RecordedStream, scenario: Scenario) -> RunRecord:
    """Run the monitoring loop over a recorded stream.

    Full rows are recorded; at each step the policy chooses which columns
    the filter actually observes, so replay exercises the same decision
    path as live monitoring.
    """
    p = scenario.model.p
    if stream.data.shape[1] != p:
        raise ConfigError(
            f"stream has {stream.data.shape[1]} columns, model expects p={p}"
        )
    if stream.data.shape[0] < scenario.n0 + scenario.window.m2 + 2:
        raise ConfigError(
            f"stream of length {stream.data.shape[0]} is shorter than "
            f"n0 + m2 + 2 = {scenario.n0 + scenario.window.m2 + 2}"
        )
    if scenario.window.h is None:
        # Without a control limit the stream could never alarm, and the
        # replay would report "no alarm" whatever the data.
        raise ConfigError("window.h is not set: replay needs a calibrated control limit")
    _, mask_rng = replication_rngs(scenario.seed, STREAM_EVALUATION, 0)
    return run_single(scenario, stream.data, mask_rng, record_masks=True)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_outputs(table: ResultTable, out_dir) -> list:
    """Write results.csv plus one plot_<scenario>.csv per scenario.

    Plot files are wide-form (one ADD column per policy) so any plotting
    tool can consume them directly.  LF endings, round-trip float text.
    """
    if not table.cells:
        raise ValueError("result table is empty")
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []

    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", newline="\n") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for c in table.cells:
            row = (c.scenario, c.policy, c.f, c.add, c.sdd, c.n_reps, c.censored, c.h)
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    written.append(results_path)

    scenarios = sorted({c.scenario for c in table.cells})
    for name in scenarios:
        cells = [c for c in table.cells if c.scenario == name]
        policies = sorted({c.policy for c in cells})
        fs = sorted({c.f for c in cells})
        by_key = {(c.policy, c.f): c for c in cells}
        path = os.path.join(out_dir, f"plot_{name}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(["f"] + [f"ADD_{p}" for p in policies]) + "\n")
            for f in fs:
                row = [repr(float(f))]
                for p in policies:
                    c = by_key.get((p, f))
                    row.append(_fmt(c.add) if c is not None else "")
                fh.write(",".join(row) + "\n")
        written.append(path)
    return written
