"""Built-in benchmark models and experiment grids."""

from __future__ import annotations

import math

import numpy as np

from .detector import WindowConfig
from .model import ChangeSpec, ModelParams
from .monitor import Policy, Scenario
from .sampler import AlphaSchedule

__all__ = [
    "DEFAULT_ALPHA_SCHEDULE",
    "POLICY_SHIFTS",
    "benchmark_p10_model",
    "benchmark_p30_model",
    "BUILT_IN_MODELS",
    "single_dim_shift",
    "shift_grid",
    "built_in_scenario",
]

# Exploration schedule used throughout the benchmark experiments.
DEFAULT_ALPHA_SCHEDULE = AlphaSchedule(d=15.0, l=6.67, alpha_min=0.1, alpha_max=0.85)

# Shift grid of the policy comparison.
POLICY_SHIFTS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

_P10_A = np.array(
    [
        [0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.6, 0.0, 0.0, 0.1, 0.0, 0.0],
        [0.0, 0.0, 0.6, 0.0, 0.0, 0.15, 0.0],
        [0.0, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0],
        [0.0, 0.15, 0.0, 0.0, 0.6, 0.0, 0.0],
        [0.0, 0.0, 0.1, 0.0, 0.0, 0.6, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6],
    ]
)

_P10_C = np.array(
    [
        [1.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.1, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.5],
        [0.0, 0.2, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.2, 1.0],
        [0.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.7],
        [0.0, 0.0, 0.2, 0.0, 0.0, 1.0, 0.0],
    ]
)


# Noise level of the benchmark scenarios: Q = R = 0.1 * I, i.e. 0.1 is the
# noise *variance*.  The in-control statistic is scale-invariant in the noise
# level, so this choice only fixes the meaning of the shift-magnitude grids
# (delays depend on f through the ratio f / sigma alone).
BENCHMARK_SIGMA = math.sqrt(0.1)


def benchmark_p10_model(
    sigma_q: float = BENCHMARK_SIGMA, sigma_r: float = BENCHMARK_SIGMA
) -> ModelParams:
    """Benchmark model with p = 10 observed and q = 7 latent dimensions."""
    return ModelParams(A=_P10_A, C=_P10_C, sigma_q=sigma_q, sigma_r=sigma_r)


def benchmark_p30_model(
    seed: int = 7,
    sigma_q: float = BENCHMARK_SIGMA,
    sigma_r: float = BENCHMARK_SIGMA,
) -> ModelParams:
    """Sparse p = 30 / q = 15 benchmark model generated from a fixed seed.

    A symmetric sparse transition with unit diagonal cannot be stable, so the
    generated matrix is rescaled to spectral radius 0.95; absolute delays are
    therefore not comparable across implementations, only orderings.
    """
    rng = np.random.default_rng(seed)
    q, p = 15, 30
    a = np.eye(q)
    n_links = 12
    rows = rng.integers(0, q, size=n_links)
    cols = rng.integers(0, q, size=n_links)
    vals = rng.uniform(0.1, 0.3, size=n_links)
    for i, j, v in zip(rows, cols, vals):
        if i != j:
            a[i, j] = v
            a[j, i] = v
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    c = np.zeros((p, q))
    for i in range(q):
        c[i, i] = 1.0
    for i in range(q, p):
        c[i, rng.integers(0, q)] = 1.0
    return ModelParams(A=a, C=c, sigma_q=sigma_q, sigma_r=sigma_r)


# Built-in model name -> factory; the config's model.builtin and
# built_in_scenario look names up here.
BUILT_IN_MODELS = {"bench-p10": benchmark_p10_model, "bench-p30": benchmark_p30_model}


def single_dim_shift(q: int, magnitude: float, dim: int = 0, tau: int = 0) -> ChangeSpec:
    """Shift of one state dimension; magnitude 0 encodes in-control."""
    if magnitude == 0.0:
        return ChangeSpec.none(q)
    f = np.zeros(q)
    f[dim] = magnitude
    return ChangeSpec(tau=tau, f=f)


def shift_grid(q: int, magnitudes, tau: int = 0) -> tuple:
    return tuple(single_dim_shift(q, mag, tau=tau) for mag in magnitudes)


def built_in_scenario(
    name: str,
    m: int = 2,
    policy: Policy | None = None,
    h: float | None = None,
    magnitudes=POLICY_SHIFTS,
    replications: int = 1000,
    horizon_cap: int = 1000,
    seed: int = 0,
) -> Scenario:
    """Named benchmark scenarios, one per entry of BUILT_IN_MODELS."""
    if name not in BUILT_IN_MODELS:
        raise KeyError(f"unknown built-in scenario {name!r}")
    model = BUILT_IN_MODELS[name]()
    if policy is None:
        policy = Policy(kind="e_aucrss", alpha=DEFAULT_ALPHA_SCHEDULE)
    return Scenario(
        name=name,
        model=model,
        m=m,
        window=WindowConfig(m1=50, m2=5, h=h),
        policy=policy,
        changes=shift_grid(model.q, magnitudes),
        replications=replications,
        horizon_cap=horizon_cap,
        seed=seed,
    )
