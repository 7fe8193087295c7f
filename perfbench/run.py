"""pocpd benchmark: Monte-Carlo and online workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload from the root of a source checkout (no install needed: the
workload processes import pocpd from ./src).  Without --workload it runs all
four in turn.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The exit code is 0 only when every correctness check passed.

One run of a workload, each sample in a fresh interpreter (workload.py):
  1. prepare   generate the inputs from --seed into .perfbench_runs/<workload>
  2. setup     SETUP_PROBES processes that stop where the timed phase begins
  3. op        whole operations (set-up, Monte Carlo or replay, outputs,
               then the correctness checks) until --seconds have been spent;
               with --trace 1, one untraced and one traced operation

Set-up ends where the workload enters its Monte-Carlo or replay phase
(calibrate_h or run_scenario called, or replay_monitor called by the CLI
after config load and CSV ingest); the first replication step follows within
milliseconds.  The phase ends when that call returns; wall_s also counts
writing the outputs.  BLAS runs single-threaded in every workload process.

setup_s is the median over the probes and the operations.  wall_s is the
mean time to result of the operations, and steps_per_s their total steps
over their total phase time.  The CPU speed of a shared machine drifts by
10-20 % over tens of seconds: a mean over the whole run averages that drift,
where the median of three or four operations follows it.  The medians that a
comparison takes over runs guard against outliers.

--size tiny shrinks every operation for the smoke test; --write-reference
stores the seed-0 outputs as the new reference (only after a change that is
meant to alter results).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ic-p10-random", "ic-p10-greedy", "oc-p10-exhaustive", "replay-p30-greedy")
SETUP_PROBES = 4
MAX_OPS = 50
# The whole run must end well inside the 180 s the benchmark contract allows.
DEADLINE_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """A workload process failed or the run ran out of time."""


def git_sha() -> str:
    """HEAD of the checkout, read from its .git directory if it has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    def __init__(self, workload, seed, size, reference, deadline):
        self.workload = workload
        self.seed = seed
        self.size = size
        # The workload processes skip the reference check when this is "".
        self.reference = reference
        self.deadline = deadline
        self.run_dir = os.path.join(ROOT, ".perfbench_runs", workload)
        self.env = dict(os.environ, **CHILD_ENV)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def child(self, mode) -> dict:
        """Run one workload process to completion and return its result."""
        log_path = os.path.join(self.run_dir, f"{mode}.log")
        with open(log_path, "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "workload.py"), mode, self.workload,
                 str(self.seed), self.size, self.run_dir, repr(t0), self.reference],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            try:
                code = proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} process exceeded the run deadline") from None
            finally:
                if proc.poll() is None:  # timed out, or this process is exiting
                    proc.kill()
                    proc.wait()
        result_path = os.path.join(self.run_dir, f"{mode}-{proc.pid}.json")
        if code != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-3000:]
            raise BenchError(f"{mode} process exited with code {code}:\n{tail}")
        with open(result_path) as fh:
            return json.load(fh)

    def run(self, seconds, trace) -> dict:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        prepared = self.child("prepare")
        setups = [self.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        if trace:
            ops = [self.child("op")]
            traced = self.child("trace")
        else:
            traced = None
            start = time.monotonic()
            ops = []
            while len(ops) < MAX_OPS:
                ops.append(self.child("op"))
                elapsed = time.monotonic() - start
                # Stop when one more operation would end nearer past the
                # budget than this one ends before it.
                if elapsed + 0.5 * elapsed / len(ops) > seconds:
                    break
        return {"prepared": prepared, "setups": setups, "ops": ops, "traced": traced}


def end_to_end(raw) -> dict:
    ops = raw["ops"]
    return {
        "setup_s": statistics.median(raw["setups"] + [op["setup_s"] for op in ops]),
        "wall_s": statistics.fmean(op["wall_s"] for op in ops),
        "steps_per_s": sum(op["steps"] for op in ops) / sum(op["phase_s"] for op in ops),
        "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
    }


ZERO_SPAN = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "p50_s": 0.0, "p90_s": 0.0,
             "count": 0, "errors": 0}
# Per-layer metric "<span name>.<stat>" from the span summary of workload.py.
SPAN_STATS = {
    "calls": lambda s: s["calls"],
    "self_s": lambda s: s["self_s"],
    "s": lambda s: s["incl_s"],
    "us_p50": lambda s: s["p50_s"] * 1e6,
    "ms_p50": lambda s: s["p50_s"] * 1e3,
    "ms_p90": lambda s: s["p90_s"] * 1e3,
    "masks": lambda s: s["count"],
    "rows": lambda s: s["count"],
    "hit_frac": lambda s: s["count"] / s["calls"] if s["calls"] else 0.0,
}


def layer_metric(name, traced, untraced) -> float:
    """One per-layer metric of BENCHMARK.json from the traced operation."""
    spans = traced["spans"]
    if name == "trace.overhead_s":
        return traced["wall_s"] - untraced["wall_s"]
    if name == "calibration.bisection_s":
        return (spans.get("calibration.calibrate_h", ZERO_SPAN)["incl_s"]
                - spans.get("calibration.ic_trajectories", ZERO_SPAN)["incl_s"])
    if name == "calibration.bisection_iters":
        return traced["summary"].get("iterations", 0)
    span, _, stat = name.rpartition(".")
    if stat == "errors":
        return sum(s["errors"] for n, s in spans.items() if n.split(".")[0] == span)
    return SPAN_STATS[stat](spans.get(span, ZERO_SPAN))


def run_workload(spec, workload, args, deadline) -> tuple[dict, int]:
    """Run one workload, print its report, return (result line, exit code)."""
    reference = "" if args.write_reference else args.reference
    runner = Runner(workload, args.seed, args.size, reference, deadline)
    raw = runner.run(args.seconds, args.trace)
    samples = raw["ops"] + ([raw["traced"]] if raw["traced"] else [])
    attempted = sum(op["operations"] for op in samples)
    failed = sum(op["failed_ops"] for op in samples)
    failures = sorted({msg for op in samples for msg in op["failures"]})

    e2e = end_to_end(raw)
    manifest = {
        "workload": workload, "seed": args.seed, "size": args.size,
        "inputs_sha256": raw["prepared"]["inputs_sha256"], "git_sha": git_sha(),
        "python": raw["prepared"]["python"], "numpy": raw["prepared"]["numpy"],
        "scipy": raw["prepared"]["scipy"], "blas": raw["prepared"]["blas"],
        "nproc": nproc(),
        "blas_threads": sorted({op["blas_threads"] for op in samples},
                               key=lambda v: -1 if v is None else v),
        "blas_threads_env": raw["prepared"]["blas_threads_env"],
        "ops": len(raw["ops"]), "setup_samples": len(raw["setups"]) + len(raw["ops"]),
        "steps_per_op": raw["ops"][0]["steps"],
        "wall_s_ops": [op["wall_s"] for op in raw["ops"]],
        "steps_per_s_ops": [op["steps_per_s"] for op in raw["ops"]],
    }
    print(f"== {workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':<12} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    traced = raw["traced"]
    if traced:
        if traced["absent"]:
            print("  absent (not traced): " + ", ".join(traced["absent"]))
        print("  self-time shares of the traced Monte-Carlo/replay phase:")
        for name, s in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            if s["self_s"] > 0.005 * traced["phase_s"]:
                print(f"    {name:<32} {s['self_s'] / traced['phase_s']:7.1%}")
        metrics = {m["name"]: {"value": layer_metric(m["name"], traced, raw["ops"][0]),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for msg in failures:
        print(f"  CHECK FAILED: {msg}")
    with open(os.path.join(runner.run_dir, "manifest.json"), "w") as fh:
        json.dump(dict(manifest, metrics=metrics, failures=failures), fh, indent=2)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    if args.write_reference:
        write_reference(args, workload, raw["ops"][0]["summary"])
    return line, 0 if failed == 0 else 1


def write_reference(args, workload, summary) -> None:
    if args.seed != 0:
        raise BenchError("references are stored for seed 0 only")
    try:
        with open(args.reference) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref.setdefault(args.size, {})[workload] = summary
    with open(args.reference, "w") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0 or math.isinf(args.seconds):
        parser.error("--seconds must be a positive number")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that Runner.child stops its process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "pocpd", "__init__.py")):
        print(f"no pocpd sources under {os.path.join(ROOT, 'src')}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not args.write_reference and not os.path.isfile(args.reference):
        print(f"missing reference file {args.reference}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines, code = {}, 0
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            lines[workload], status = run_workload(spec, workload, args, deadline)
            code = max(code, status)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return code


if __name__ == "__main__":
    sys.exit(main())
