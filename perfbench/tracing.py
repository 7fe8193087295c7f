"""Span tracing of pocpd from outside the program.

Each traced layer function is replaced *where it is looked up* (for example
``pocpd.monitor.filter_step``, the name ``run_single`` resolves at every step)
by a wrapper that records one span: name, start, end, parent span and the
replication it ran in.  A replication opens at its stream simulation or at
``run_single``, whichever comes first, and closes when ``run_single``
returns; its ordinal keys every span in between.

Spans stay in memory and are written once, at the end, by ``Tracer.write``.
Self time is a span's duration minus the time covered by its child spans.

A target that no longer exists (a private helper removed by a refactor) is
reported in ``Tracer.absent`` and does not fail the run.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# (module or class path, attribute, span name).  The same function can be
# looked up from several modules; each lookup site gets its own wrapper and
# all of them share one span name.
TARGETS = (
    ("pocpd.calibration", "calibrate_h", "calibration.calibrate_h"),
    ("pocpd.calibration", "ic_trajectories", "calibration.ic_trajectories"),
    ("pocpd.harness", "run_scenario", "harness.run_scenario"),
    ("pocpd.harness", "run_once", "calibration.run_once"),
    ("pocpd.harness", "emit_outputs", "harness.emit_outputs"),
    ("pocpd.cli", "ingest_csv", "harness.ingest_csv"),
    ("pocpd.cli", "replay_monitor", "harness.replay_monitor"),
    ("pocpd.calibration", "run_single", "monitor.run_single"),
    ("pocpd.harness", "run_single", "monitor.run_single"),
    ("pocpd.monitor", "simulate_stream", "model.simulate_stream"),
    ("pocpd.model", "stationary_covariance", "model.stationary_covariance"),
    ("pocpd.filtering", "stationary_covariance", "model.stationary_covariance"),
    ("pocpd.monitor", "filter_step", "filtering.filter_step"),
    ("pocpd.monitor", "make_step_term", "detector.make_step_term"),
    ("pocpd.detector.Detector", "push_step", "detector.push_step"),
    ("pocpd.detector.Detector", "scan", "detector.scan"),
    ("pocpd.monitor", "_next_mask", "monitor._next_mask"),
    ("pocpd.monitor", "select_greedy", "sampler.select_greedy"),
    ("pocpd.monitor", "select_exhaustive", "sampler.select_exhaustive"),
    ("pocpd.sampler", "_score_mask_array", "sampler._score_mask_array"),
    ("pocpd.sampler", "_secular_boundary_max", "sampler._secular_boundary_max"),
)

REPLICATION_SPAN = "monitor.run_single"
OPENS_REPLICATION = (REPLICATION_SPAN, "model.simulate_stream")


def resolve(path: str):
    """Import a module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


# Work done by one call, for the spans that count it.
COUNTERS = {
    "detector.scan": lambda args, result: int(result.tau_hat is not None),
    "sampler._score_mask_array": lambda args, result: len(args[0]),
    "sampler._secular_boundary_max": lambda args, result: int(args[0].shape[0]),
}


class Tracer:
    """Installs span wrappers and keeps the spans of one process in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name_id, start, end, parent, replication)
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._rep = -1
        self._reps = 0

    def install(self, targets=TARGETS) -> None:
        from pocpd.errors import NumericalError

        for path, attr, name in targets:
            try:
                owner = resolve(path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{path}.{attr}")
                continue
            if name not in self.names:
                self.names.append(name)
                self.counts[name] = 0
                self.errors[name] = 0
            setattr(owner, attr, self._wrap(fn, name, NumericalError))

    def _wrap(self, fn, name, numerical_error):
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, errors = self.counts, self.errors
        is_rep = name == REPLICATION_SPAN
        opens_rep = name in OPENS_REPLICATION
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if opens_rep and self._rep < 0:
                self._rep = self._reps
                self._reps += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except numerical_error:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self._rep)
                if is_rep:
                    self._rep = -1
            if counter is not None:
                counts[name] += counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        done = [s for s in self.spans if s is not None]
        arr = np.array(done, dtype=float).reshape(-1, 5)
        name_id = arr[:, 0].astype(np.int64)
        start, end = arr[:, 1], arr[:, 2]
        parent = arr[:, 3].astype(np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": name_id,
            "start": start,
            "end": end,
            "parent": parent,
            "replication": arr[:, 4].astype(np.int64),
            "duration": dur,
            "self": dur - child,
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, latency
        percentiles in seconds, work count and NumericalErrors raised."""
        arr = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            sel = arr["name_id"] == i
            dur = arr["duration"][sel]
            out[name] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur.sum()),
                "self_s": float(arr["self"][sel].sum()),
                "p50_s": float(np.median(dur)) if dur.size else 0.0,
                "p90_s": float(np.percentile(dur, 90)) if dur.size else 0.0,
                "count": self.counts[name],
                "errors": self.errors[name],
            }
        return out

    def write(self, path) -> None:
        arr = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: arr[k] for k in ("name_id", "start", "end", "parent", "replication")},
        )
