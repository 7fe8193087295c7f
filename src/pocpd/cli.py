"""Command-line interface: simulate | calibrate | benchmark | replay.

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure,
4 I/O error.  Stdout carries a human-readable summary; all machine-readable
output goes to files under --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .calibration import calibrate_h
from .config import Config, build, load_config, parse_config
from .errors import CalibrationError, ConfigError, NumericalError
from .harness import ResultTable, emit_outputs, ingest_csv, replay_monitor, run_scenario
from .model import ChangeSpec, simulate_stream
from .monitor import absolute_change

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are valid before and after the subcommand; the
    # subparser copies default to SUPPRESS so they don't clobber values
    # parsed at the top level.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help="JSON configuration file")
    parser.add_argument(
        "--seed", type=int, default=default, help="override the experiment seed"
    )
    parser.add_argument(
        "--out", default=default, help="output directory (default: config io.out_dir)"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=argparse.SUPPRESS if suppress else 1,
        help="worker processes for calibration",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocpd",
        description="Sequential change detection with adaptive partial observation.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a full-observation stream CSV")
    _add_global_flags(sim, suppress=True)
    sim.add_argument("--horizon", type=int, default=500)

    cal = sub.add_parser("calibrate", help="search the control limit h")
    _add_global_flags(cal, suppress=True)

    bench = sub.add_parser("benchmark", help="run the scenario grid and emit tables")
    _add_global_flags(bench, suppress=True)

    rep = sub.add_parser("replay", help="monitor a recorded CSV stream")
    _add_global_flags(rep, suppress=True)
    rep.add_argument("--input", help="stream CSV (default: config io.input_csv)")
    rep.add_argument("--reference", help="reference CSV for z-score normalization")
    rep.add_argument(
        "--normalization",
        choices=["none", "zscore-from-reference"],
        default="none",
    )
    return parser


def _load(args) -> Config:
    if args.config:
        cfg = load_config(args.config, seed=args.seed)
    else:
        cfg = parse_config({}, source="<defaults>", seed=args.seed)
    spec = build({"workers": "--threads"}, replace, cfg.calibration, workers=args.threads)
    cfg = replace(cfg, calibration=spec)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _write_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_simulate(cfg: Config, args) -> int:
    base = cfg.arms[0]  # the arms share model, grid and seed
    change = base.changes[0] if base.changes else ChangeSpec.none(base.model.q)
    # Row n0 + tau is the first shifted row, as in benchmark's replications.
    change = absolute_change(base, change)
    if change.magnitude > 0 and change.tau >= args.horizon:
        raise ConfigError(
            f"--horizon: the shift of experiment.grid[0] starts at row {int(change.tau)} "
            f"(n0 + tau), after the last of {args.horizon} rows"
        )
    y, _ = build(
        {"horizon": "--horizon"}, simulate_stream, base.model, change, args.horizon, base.seed
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "stream.csv")
    _write_csv(path, y)
    print(f"wrote {y.shape[0]}x{y.shape[1]} stream to {path}")
    return EXIT_OK


def cmd_calibrate(cfg: Config, args) -> int:
    result = calibrate_h(cfg.calibration, cfg.base)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "calibration.json")
    result.write_report(path)
    print(
        f"h = {result.h:.6g} (ADD_IC {result.achieved_add_ic:.2f} over "
        f"{result.replications} replications, report in {path})"
    )
    return EXIT_OK


def cmd_benchmark(cfg: Config, args) -> int:
    table = ResultTable([])
    for arm in cfg.arms:
        if arm.window.h is None:
            # Each arm at its own h, so delays compare at equal ADD_IC.
            result = calibrate_h(cfg.calibration, arm)
            arm = replace(arm, window=replace(arm.window, h=result.h))
            print(
                f"{arm.name} {arm.policy.kind}: calibrated h = {result.h:.6g} "
                f"(ADD_IC {result.achieved_add_ic:.2f})"
            )
        table = table.merge(run_scenario(arm))
    written = emit_outputs(table, cfg.out_dir)
    for cell in table.cells:
        status = f"ADD {cell.add:.2f}" if cell.add is not None else f"FAILED: {cell.error}"
        print(f"  {cell.scenario} {cell.policy:>9}  f={cell.f:<5g} {status}")
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_replay(cfg: Config, args) -> int:
    path = args.input or cfg.input_csv
    if path is None:
        raise ConfigError("replay needs --input or io.input_csv")
    scenario = cfg.base
    reference = args.reference or cfg.reference_csv
    stream = ingest_csv(path, normalization=args.normalization, reference=reference)
    record = replay_monitor(stream, scenario)
    out = {
        "source": str(path),
        "n0": record.n0,
        "t_stats": [float(v) for v in record.t_stats],
        "masks": [list(map(int, m)) for m in record.masks],
        "alarm_time": record.alarm_time,
        "tau_hat": record.tau_hat,
        "f_hat": None if record.f_hat is None else [float(v) for v in record.f_hat],
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "replay.json")
    with open(out_path, "w", newline="\n") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    alarm = "no alarm" if record.alarm_time is None else f"alarm at step {record.alarm_time}"
    print(f"{alarm}; record in {out_path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "benchmark": cmd_benchmark,
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, CalibrationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
