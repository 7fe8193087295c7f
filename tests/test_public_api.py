"""Names that other code looks up in pocpd must exist.

A refactor that removes a function can leave its name behind in a module's
`__all__`, or remove a lookup site that the benchmark's tracer wraps
(`perfbench/tracing.py`, TARGETS); the tracer then reports the target as
absent instead of failing.  Both are caught here, cheaply.
"""

import importlib
import pkgutil
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pocpd
from pocpd import (
    CalibrationSpec,
    ChangeSpec,
    ModelParams,
    Policy,
    Scenario,
    WindowConfig,
    calibrate_h,
    replay_monitor,
    run_scenario,
    simulate_stream,
)
from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE

MODULES = ["pocpd"] + [
    f"pocpd.{info.name}" for info in pkgutil.iter_modules(pocpd.__path__)
]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, read only: no bytecode is written."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_trace_targets_resolve():
    tracing = load_tracing()
    missing = [
        (path, attr)
        for path, attr, _ in tracing.TARGETS
        if not hasattr(tracing.resolve(path), attr)
    ]
    assert missing == []


# Spans that only record calls while the monitoring loop, and the sampler
# inside it, look their layers up where the tracer wraps them.
LOOP_SPANS = (
    "filtering.filter_step",
    "detector.make_step_term",
    "detector.push_step",
    "detector.scan",
    "monitor._next_mask",
    "sampler.select_greedy",
    "sampler.select_exhaustive",
    "sampler._score_mask_array",
    "sampler._secular_boundary_max",
)


def tiny_scenario(policy_kind, h):
    return Scenario(
        name="tiny",
        model=ModelParams(
            A=np.diag([0.5, 0.3]),
            C=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]]),
            sigma_q=0.1,
            sigma_r=0.1,
        ),
        m=2,
        window=WindowConfig(m1=12, m2=1, h=h),
        policy=Policy(kind=policy_kind, alpha=DEFAULT_ALPHA_SCHEDULE),
        changes=(ChangeSpec.none(2), ChangeSpec(tau=2, f=np.array([1.0, 0.0]))),
        replications=2,
        horizon_cap=20,
        n0=8,
        seed=3,
    )


def test_monitoring_loop_reaches_traced_sites():
    """A sweep, a greedy calibration and a replay each run through the
    lookup sites perfbench traces; a loop that bypasses them shows here."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        run_scenario(tiny_scenario("aucrss", h=6.0))
        greedy = tiny_scenario("e_aucrss", h=None)
        spec = CalibrationSpec(target_add_ic=2.0, replications=100, horizon_cap=10, tol=0.5)
        calibrate_h(spec, replace(greedy, changes=()))
        rows = simulate_stream(greedy.model, ChangeSpec.none(2), 30, seed=1)[0]
        replay_monitor(rows, replace(greedy, window=replace(greedy.window, h=6.0)))
    finally:
        for path, attr, _ in tracing.TARGETS:
            owner = tracing.resolve(path)
            fn = getattr(owner, attr)
            setattr(owner, attr, getattr(fn, "__wrapped__", fn))
    assert pocpd.monitor.filter_step is pocpd.filtering.filter_step  # unwrapped
    assert tracer.absent == []
    calls = {name: span["calls"] for name, span in tracer.summary().items()}
    assert [name for name in LOOP_SPANS if calls[name] == 0] == []
