"""One workload process of the pocpd benchmark.

``run.py`` starts this file in a fresh interpreter for every sample, so that
set-up (interpreter start, imports, scenario build, CSV ingest) is measured
the way a user pays it.  Modes:

  prepare  write the workload's generated inputs into the run directory
  setup    set up, then stop where the Monte-Carlo or replay phase begins
  op       one operation end to end, untraced, then the correctness checks
  trace    the same operation with every layer wrapped in spans

Usage: python3 perfbench/workload.py MODE WORKLOAD SEED SIZE RUN_DIR T0 [REF]
where T0 is the ``time.monotonic()`` reading taken by the parent just before
it started this process, and REF the reference file checked at seed 0.
Results go to RUN_DIR/<mode>-<pid>.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

WORKLOADS = ("ic-p10-random", "ic-p10-greedy", "oc-p10-exhaustive", "replay-p30-greedy")

# Operation sizes.  IC: replications x (n0 warm-up + horizon) steps;
# OC: replications per cell; replay: rows of the recorded stream.
SIZES = {
    "full": {"ic_reps": 100, "ic_horizon": 50, "ic_n0": 25,
             "oc_reps": 30, "replay_rows": 850},
    "tiny": {"ic_reps": 100, "ic_horizon": 10, "ic_n0": 10,
             "oc_reps": 2, "replay_rows": 120},
}
# Calibrated h for bench-p10 / m = 2 / aucrss with the adaptive schedule, as
# cached in artifacts/acceptance/calibration_a2_adaptive.json.
OC_H = 19.55908203125
OC_SHIFTS = (0.2, 0.6, 1.0)
# Far above the in-control statistic range, so replay monitors every row.
REPLAY_H = 1000.0
REPLAY_N0 = 50
# Calibration-lane replications re-run at the calibrated h by the invariant.
INVARIANT_REPS = 3
# Relative tolerance of the replay statistic path against the reference.
T_STATS_RTOL = 1e-6

DEFAULT_SEED = 0


class SetupDone(BaseException):
    """Raised in setup mode where the timed phase would begin.  A
    BaseException, so no ``except`` clause inside pocpd can swallow it."""


def keep_results(owner, attr, sink):
    """Replace owner.attr by a wrapper that appends (args, result) to sink."""
    fn = getattr(owner, attr)

    def hook(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(owner, attr, hook)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# --------------------------------------------------------------------- inputs

def prepare(workload, seed, size, run_dir) -> dict:
    """Write the generated inputs of one workload; return their hash."""
    sz = SIZES[size]
    if workload.startswith("ic-"):
        inputs = {"model": "bench-p10", "m": 2,
                  "policy": "random" if workload == "ic-p10-random" else "e_aucrss",
                  "replications": sz["ic_reps"], "horizon_cap": sz["ic_horizon"],
                  "target_add_ic": sz["ic_horizon"] / 5.0, "n0": sz["ic_n0"],
                  "seed": seed}
    elif workload == "oc-p10-exhaustive":
        inputs = {"model": "bench-p10", "m": 2, "policy": "aucrss", "h": OC_H,
                  "shifts": list(OC_SHIFTS),
                  "replications": sz["oc_reps"], "horizon_cap": 1000, "seed": seed}
    else:
        stream = os.path.join(run_dir, "stream.csv")
        write_stream(stream, sz["replay_rows"], seed)
        config = {"model": {"builtin": "bench-p30"},
                  "window": {"m1": 50, "m2": 5, "h": REPLAY_H},
                  "policy": {"name": "e_aucrss"},
                  "sampling": {"m": 2, "n0": REPLAY_N0},
                  "experiment": {"seed": seed}}
        with open(os.path.join(run_dir, "config.json"), "w") as fh:
            json.dump(config, fh, indent=2)
        inputs = {"config": config, "rows": sz["replay_rows"],
                  "stream_sha256": sha256_file(stream)}
    text = json.dumps(inputs, sort_keys=True)
    with open(os.path.join(run_dir, "inputs.json"), "w") as fh:
        fh.write(text)
    return {"inputs_sha256": hashlib.sha256(text.encode()).hexdigest()}


def write_stream(path, rows, seed) -> None:
    """In-control bench-p30 stream, simulated here rather than by pocpd so
    that the replay input does not change when pocpd's simulator does."""
    import numpy as np
    from pocpd.scenarios import benchmark_p30_model

    model = benchmark_p30_model()
    rng = np.random.default_rng([seed, 30])
    x = np.zeros(model.q)
    for _ in range(200):  # burn-in towards the stationary law
        x = model.A @ x + model.sigma_q * rng.standard_normal(model.q)
    with open(path, "w", newline="\n") as fh:
        for _ in range(rows):
            x = model.A @ x + model.sigma_q * rng.standard_normal(model.q)
            y = model.C @ x + model.sigma_r * rng.standard_normal(model.p)
            fh.write(",".join(repr(float(v)) for v in y) + "\n")


# ----------------------------------------------------------------- operations

def enter_phase(marks, mode):
    """Mark the end of set-up: the Monte-Carlo or replay phase starts now."""
    marks["entry"] = time.monotonic()
    if mode == "setup":
        raise SetupDone


def ic_operation(inputs, run_dir, marks, mode):
    from dataclasses import replace

    import pocpd.calibration as calibration
    from pocpd import CalibrationSpec, Policy
    from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, built_in_scenario

    if inputs["policy"] == "random":
        policy = Policy(kind="random")
    else:
        policy = Policy(kind="e_aucrss", alpha=DEFAULT_ALPHA_SCHEDULE)
    scenario = replace(
        built_in_scenario("bench-p10", m=inputs["m"], policy=policy, seed=inputs["seed"]),
        n0=inputs["n0"], changes=(),
    )
    spec = CalibrationSpec(
        target_add_ic=inputs["target_add_ic"],
        replications=inputs["replications"],
        horizon_cap=inputs["horizon_cap"],
        seed=inputs["seed"],
    )
    captured = []
    keep_results(calibration, "ic_trajectories", captured)
    enter_phase(marks, mode)
    result = calibration.calibrate_h(spec, scenario)
    marks["phase_end"] = time.monotonic()
    result.write_report(os.path.join(run_dir, "calibration.json"))
    steps = spec.replications * (scenario.n0 + spec.horizon_cap)
    summary = {"h": result.h, "achieved_add_ic": result.achieved_add_ic,
               "iterations": result.iterations}
    return steps, 1, summary, (scenario, spec, result, captured)


def oc_operation(inputs, run_dir, marks, mode):
    import pocpd.harness as harness
    from pocpd import Policy
    from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, built_in_scenario

    scenario = built_in_scenario(
        "bench-p10", m=inputs["m"],
        policy=Policy(kind="aucrss", alpha=DEFAULT_ALPHA_SCHEDULE),
        h=inputs["h"], magnitudes=tuple(inputs["shifts"]),
        replications=inputs["replications"], horizon_cap=inputs["horizon_cap"],
        seed=inputs["seed"],
    )
    captured = []
    keep_results(harness, "run_once", captured)
    enter_phase(marks, mode)
    table = harness.run_scenario(scenario)
    marks["phase_end"] = time.monotonic()
    harness.emit_outputs(table, run_dir)
    steps = sum(
        round(c.n_reps * (scenario.n0 + c.add)) for c in table.cells if c.add is not None
    )
    summary = {"cells": [{"f": c.f, "add": c.add, "sdd": c.sdd, "n_reps": c.n_reps,
                          "error": c.error} for c in table.cells]}
    return steps, len(table.cells), summary, (scenario, captured)


def replay_operation(inputs, run_dir, marks, mode):
    import pocpd.cli as cli
    import pocpd.harness as harness

    # The CLI looks replay_monitor up in its own namespace if it imported the
    # name, else through the harness module.
    owner = cli if hasattr(cli, "replay_monitor") else harness
    monitor = owner.replay_monitor

    def timed_replay(*args, **kwargs):
        enter_phase(marks, mode)
        record = monitor(*args, **kwargs)
        marks["phase_end"] = time.monotonic()
        return record

    owner.replay_monitor = timed_replay
    config = os.path.join(run_dir, "config.json")
    code = cli.main(["--config", config, "--out", run_dir, "replay",
                     "--input", os.path.join(run_dir, "stream.csv")])
    owner.replay_monitor = monitor
    if code != 0:
        raise RuntimeError(f"pocpd replay exited with code {code}")
    with open(os.path.join(run_dir, "replay.json")) as fh:
        out = json.load(fh)
    summary = {"alarm_time": out["alarm_time"], "masks": out["masks"],
               "t_stats": out["t_stats"]}
    return inputs["rows"], 1, summary, (config, run_dir)


OPERATIONS = {
    "ic-p10-random": ic_operation,
    "ic-p10-greedy": ic_operation,
    "oc-p10-exhaustive": oc_operation,
    "replay-p30-greedy": replay_operation,
}


# --------------------------------------------------------------------- checks

def check_reference(workload, summary, reference) -> list:
    """Mismatches against the stored outputs, as (operation index, message)."""
    bad = []
    if workload.startswith("ic-"):
        for key in ("h", "achieved_add_ic", "iterations"):
            if summary[key] != reference[key]:
                bad.append((0, f"{key} {summary[key]!r} != reference {reference[key]!r}"))
    elif workload == "oc-p10-exhaustive":
        if len(summary["cells"]) != len(reference["cells"]):
            return [(0, "cell count differs from the reference")]
        for i, (got, ref) in enumerate(zip(summary["cells"], reference["cells"])):
            for key in ("f", "add", "n_reps"):
                if got[key] != ref[key]:
                    bad.append((i, f"cell {i} {key} {got[key]!r} != reference {ref[key]!r}"))
            if got["sdd"] is None or not math.isclose(got["sdd"], ref["sdd"], rel_tol=1e-12):
                bad.append((i, f"cell {i} sdd {got['sdd']!r} != reference {ref['sdd']!r}"))
    else:
        if summary["alarm_time"] != reference["alarm_time"]:
            bad.append((0, f"alarm_time {summary['alarm_time']!r} != reference "
                           f"{reference['alarm_time']!r}"))
        if summary["masks"] != reference["masks"]:
            first = next((i for i, (a, b) in enumerate(zip(summary["masks"], reference["masks"]))
                          if a != b), min(len(summary["masks"]), len(reference["masks"])))
            bad.append((0, f"masks differ from the reference from step {first}"))
        got, ref = summary["t_stats"], reference["t_stats"]
        if len(got) != len(ref) or any(
            not math.isclose(a, b, rel_tol=T_STATS_RTOL, abs_tol=1e-9) for a, b in zip(got, ref)
        ):
            bad.append((0, f"t_stats differ from the reference beyond rtol {T_STATS_RTOL}"))
    return bad


def check_invariant(workload, summary, context) -> list:
    """Seed-independent check, run outside the timed phase: an alarm must be
    the first crossing of h on the statistic path of the same replication."""
    import numpy as np

    bad = []
    if workload.startswith("ic-"):
        from dataclasses import replace

        from pocpd import ChangeSpec, ic_trajectories, run_once
        from pocpd.calibration import STREAM_CALIBRATION

        scenario, spec, result, captured = context
        # calibrate_h's own trajectories, or the same ones recomputed if it
        # no longer goes through ic_trajectories.
        trajectories = captured[0][1] if captured else ic_trajectories(scenario, spec)
        base = replace(scenario, window=replace(scenario.window, h=result.h),
                       horizon_cap=spec.horizon_cap, seed=spec.seed)
        ic = ChangeSpec.none(scenario.model.q)
        for rep in range(INVARIANT_REPS):
            crossed = np.flatnonzero(trajectories[rep] > result.h)
            want = int(crossed[0]) + 1 if crossed.size else spec.horizon_cap
            sample = run_once(base, ic, rep, stream_id=STREAM_CALIBRATION)
            if sample.alarm_time != want or sample.censored != (crossed.size == 0):
                bad.append((0, f"run_once rep {rep} alarms at {sample.alarm_time}, "
                               f"stored IC trajectory first crosses h at {want}"))
    elif workload == "oc-p10-exhaustive":
        from pocpd import run_once, run_single
        from pocpd.calibration import STREAM_EVALUATION
        from pocpd.monitor import replication_rngs, simulate_run_stream

        scenario, captured = context
        h = scenario.window.h
        alarms = {(id(args[1]), args[2]): sample.alarm_time for args, sample in captured}
        for cell, change in enumerate(scenario.changes):
            for rep in range(min(INVARIANT_REPS, scenario.replications)):
                got = alarms.get((id(change), rep))
                if got is None:  # run_scenario no longer goes through run_once
                    got = run_once(scenario, change, rep).alarm_time
                sim_rng, mask_rng = replication_rngs(scenario.seed, STREAM_EVALUATION, rep)
                obs = simulate_run_stream(scenario, change, sim_rng)
                path = run_single(scenario, obs, mask_rng, stop_at_alarm=True).t_stats
                crossed = np.flatnonzero(path > h)
                want = int(crossed[0]) + 1 if crossed.size else scenario.horizon_cap
                if got != want:
                    bad.append((cell, f"cell {cell} rep {rep}: run_once alarms at {got}, "
                                      f"path first crosses h at {want}"))
    else:
        from dataclasses import replace

        from pocpd import ingest_csv, replay_monitor
        from pocpd.config import load_config

        config, run_dir = context
        path = np.asarray(summary["t_stats"])
        window = path[: min(100, path.size)]
        h = float(window.max()) * (1.0 - 1e-9)
        want = int(np.flatnonzero(path > h)[0]) + 1
        cfg = load_config(config)
        scenario = cfg.scenario(changes=(), window=replace(cfg.window, h=h))
        stream = ingest_csv(os.path.join(run_dir, "stream.csv"))
        record = replay_monitor(stream, scenario)
        if record.alarm_time != want:
            bad.append((0, f"replay at h={h!r} alarms at {record.alarm_time}, "
                           f"stored path first crosses h at {want}"))
    return bad


# ---------------------------------------------------------------------- main

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv) -> int:
    mode, workload, seed, size, run_dir, t0 = argv[:6]
    seed, t0 = int(seed), float(t0)
    out = {"mode": mode}
    if mode == "prepare":
        out.update(prepare(workload, seed, size, run_dir))
        out.update(versions())
        return finish(run_dir, mode, out)

    marks = {}
    with open(os.path.join(run_dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        steps, operations, summary, context = OPERATIONS[workload](
            inputs, run_dir, marks, mode)
    except SetupDone:
        out["setup_s"] = marks["entry"] - t0
        return finish(run_dir, mode, out)
    marks["end"] = time.monotonic()
    out.update(
        setup_s=marks["entry"] - t0,
        wall_s=marks["end"] - t0,
        phase_s=marks["phase_end"] - marks["entry"],
        steps=steps,
        operations=operations,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    out["steps_per_s"] = steps / out["phase_s"]
    out["blas_threads"] = blas_threads()
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["absent"] = tracer.absent
        tracer.write(os.path.join(run_dir, "spans.npz"))
    bad = [(i, f"cell {i} failed: {cell['error']}")
           for i, cell in enumerate(summary.get("cells", ())) if cell["error"]]
    bad += check_invariant(workload, summary, context)
    if seed == DEFAULT_SEED and len(argv) > 6 and argv[6]:
        with open(argv[6]) as fh:
            reference = json.load(fh)[size][workload]
        bad += check_reference(workload, summary, reference)
    out["failures"] = [msg for _, msg in bad]
    out["failed_ops"] = len({i for i, _ in bad})
    out["summary"] = summary
    return finish(run_dir, mode, out)


def finish(run_dir, mode, out) -> int:
    with open(os.path.join(run_dir, f"{mode}-{os.getpid()}.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
