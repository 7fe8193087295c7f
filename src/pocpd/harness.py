"""Experiment sweeps, metric tables, CSV emission, and replay of recorded data.

A scenario fixes the model, window, policy, and a grid of change specs.
`run_scenario` fills one table cell per change spec from the run lengths
of `calibration.run_blocks`, the Monte-Carlo engine calibration runs too.
Cells that fail record the reason and the sweep keeps going.  `ingest_csv`
+ `replay_monitor` run the same monitoring loop over recorded (or
externally simulated) streams, with subset masking applied in software.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .calibration import CELL_ERRORS, STREAM_EVALUATION, RunLengthSample, estimate_add, run_blocks
from .calibration import require_control_limit, run_once  # run_once: a traced lookup site
from .errors import ConfigError
from .monitor import RunRecord, Scenario, replication_rngs, run_single

__all__ = [
    "CellResult",
    "ResultTable",
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


def run_scenario(scenario: Scenario, workers: int = 1) -> ResultTable:
    """One table cell per change spec, `replications` runs each.

    The runs are calibration.run_blocks's, whose `workers` processes take
    whole blocks; the table equals running each cell on its own, replication
    by replication.  A failed cell records the error of its first failing
    replication; the others go on.
    """
    require_control_limit(scenario)
    cells = []
    runs = run_blocks(scenario, STREAM_EVALUATION, _run_length, workers)
    for change, (samples, error) in zip(scenario.changes, runs):
        try:
            if error is not None:
                raise error
            est = estimate_add(samples, change.tau)
            stats = dict(
                add=est.add, sdd=est.sdd, n_reps=est.n_used, censored=est.censored_fraction
            )
        except CELL_ERRORS as exc:
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


def _run_length(scenario: Scenario, record: RunRecord) -> RunLengthSample:
    """A sweep's outcome of a run (a function, so that a pool pickles it)."""
    return RunLengthSample.of(scenario, record.alarm_time)


def _parse_csv_matrix(path) -> np.ndarray:
    rows = []
    width = None
    # utf-8-sig drops the byte-order mark Excel writes before the first cell.
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def ingest_csv(path, reference=None) -> np.ndarray:
    """Load a (T, p) stream; with a `reference` CSV, standardize every column
    by the reference's statistics (the reference plays the role of a
    recorded in-control run, and may be the stream's own file)."""
    data = _parse_csv_matrix(path)
    if reference is None:
        return data
    ref = _parse_csv_matrix(reference)
    if ref.shape[1] != data.shape[1]:
        raise ConfigError(
            f"reference has {ref.shape[1]} columns, stream has {data.shape[1]}"
        )
    # Huge values or a tiny spread can carry finite cells past the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ref.mean(axis=0)
        std = ref.std(axis=0, ddof=0)
        if np.any(std == 0):
            bad = int(np.flatnonzero(std == 0)[0])
            raise ConfigError(f"reference column {bad} is constant; cannot z-score")
        z = (data - mean) / std
    finite = np.isfinite(z).all(axis=0)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ConfigError(
            f"column {bad} leaves the float range when z-scored by the reference "
            f"(reference mean {mean[bad]:g}, std {std[bad]:g})"
        )
    return z


def replay_monitor(data: np.ndarray, scenario: Scenario) -> RunRecord:
    """Run the monitoring loop over a recorded (T, p) stream, as ingest_csv
    returns it.

    Full rows are recorded; at each step the policy chooses which columns
    the filter actually observes, so replay exercises the same decision
    path as live monitoring.
    """
    p = scenario.model.p
    if data.ndim != 2 or data.shape[1] != p:
        raise ConfigError(f"stream of shape {data.shape} does not have p={p} columns")
    if data.shape[0] < scenario.n0 + scenario.window.m2 + 2:
        raise ConfigError(
            f"stream of length {data.shape[0]} is shorter than "
            f"n0 + m2 + 2 = {scenario.n0 + scenario.window.m2 + 2}"
        )
    if scenario.window.h is None:
        # Without a control limit the stream could never alarm, and the
        # replay would report "no alarm" whatever the data.
        raise ConfigError("window.h is not set: replay needs a calibrated control limit")
    _, mask_rng = replication_rngs(scenario.seed, STREAM_EVALUATION, 0)
    return run_single(scenario, data, mask_rng)


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
