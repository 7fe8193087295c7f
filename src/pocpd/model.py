"""Linear-Gaussian state-space model: parameters, masks, and stream simulation.

The monitored process is a latent AR(1) state x_t = A x_{t-1} + w_t observed
through y_t = C x_t + v_t with isotropic noises Q = sigma_q^2 I and
R = sigma_r^2 I.  A persistent mean shift f can be injected into the state
recursion from a change point onward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError

__all__ = [
    "ModelParams",
    "ChangeSpec",
    "ObservationMask",
    "stationary_covariance",
    "simulate_stream",
]


def _frozen_array(obj, value: np.ndarray, name: str) -> None:
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ModelParams:
    """State-space model parameters.

    A : (q, q) state transition matrix, spectral radius < 1.
    C : (p, q) output matrix.
    sigma_q / sigma_r : state / observation noise standard deviations.
    """

    A: np.ndarray
    C: np.ndarray
    sigma_q: float
    sigma_r: float

    def __post_init__(self):
        _frozen_array(self, self.A, "A")
        _frozen_array(self, self.C, "C")
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.C.ndim != 2 or self.C.shape[1] != self.A.shape[0]:
            raise ValueError(
                f"C must be (p, q) with q={self.A.shape[0]}, got shape {self.C.shape}"
            )
        # sigma = 0 is allowed for noiseless simulation smoke tests; the
        # filter rejects a singular innovation covariance at use time.
        if not (self.sigma_q >= 0):
            raise ValueError("sigma_q must be nonnegative")
        if not (self.sigma_r >= 0):
            raise ValueError("sigma_r must be nonnegative")
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise ValueError(f"A is unstable: spectral radius {rho:.6g} >= 1")

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]

    @property
    def state_cov(self) -> np.ndarray:
        """Q = sigma_q^2 I."""
        return self.sigma_q**2 * np.eye(self.q)

    @cached_property
    def stationary_cov(self) -> np.ndarray:
        """Stationary state covariance, solved once per parameter set.

        Read-only: every filter and simulation of this model shares it.
        """
        cov = stationary_covariance(self.A, self.state_cov)
        cov.setflags(write=False)
        return cov

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass(frozen=True)
class ChangeSpec:
    """A persistent state-mean shift f starting at time tau.

    tau = math.inf encodes the in-control regime (no change ever).
    """

    tau: float
    f: np.ndarray

    def __post_init__(self):
        _frozen_array(self, self.f, "f")
        if self.f.ndim != 1 or not np.all(np.isfinite(self.f)):
            raise ValueError("f must be a finite vector")
        if not (self.tau == math.inf or (self.tau >= 0 and float(self.tau).is_integer())):
            raise ValueError("tau must be a nonnegative integer or infinity")

    @classmethod
    def none(cls, q: int) -> "ChangeSpec":
        return cls(tau=math.inf, f=np.zeros(q))

    @property
    def magnitude(self) -> float:
        """Largest absolute shift component (0 in control)."""
        if self.tau == math.inf:
            return 0.0
        return float(np.max(np.abs(self.f)))


@dataclass(frozen=True)
class ObservationMask:
    """Sorted, distinct 0-based indices of the observed dimensions."""

    indices: tuple
    p: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("mask must observe at least one dimension")
        if sorted(set(idx)) != list(idx):
            raise ValueError(f"mask indices must be sorted and distinct: {idx}")
        if idx[0] < 0 or idx[-1] >= self.p:
            raise ValueError(f"mask indices {idx} out of range [0, {self.p})")

    def __len__(self) -> int:
        return len(self.indices)

    @classmethod
    def full(cls, p: int) -> "ObservationMask":
        return cls(indices=tuple(range(p)), p=p)


def stationary_covariance(
    A: np.ndarray, Q: np.ndarray, tol: float = 1e-12, max_iters: int = 100_000
) -> np.ndarray:
    """Stationary state covariance: fixed point of S <- A S A' + Q.

    Converges for any stable A; raises NumericalError if the residual does not
    fall below tol within max_iters sweeps.
    """
    S = np.array(Q, dtype=float)
    for _ in range(max_iters):
        S_next = A @ S @ A.T + Q
        resid = float(np.max(np.abs(S_next - S)))
        S = S_next
        if resid < tol:
            return 0.5 * (S + S.T)
    raise NumericalError(
        f"stationary covariance iteration did not reach tol={tol} "
        f"within {max_iters} iterations (residual {resid:.3g})"
    )


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(S)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def simulate_stream(
    params: ModelParams,
    change: ChangeSpec,
    horizon: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate (Y, X): observations (horizon, p) and hidden states (horizon, q).

    The pre-change state starts from the stationary prior.  From t >= tau the
    shift f is added to the state recursion.  `seed` may be an int or a
    numpy SeedSequence / Generator; the draw order is fixed so identical seeds
    give bit-identical streams.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if change.f.shape != (params.q,):
        raise ValueError(f"shift vector must have length q={params.q}")
    rng = np.random.default_rng(seed)
    q, p = params.q, params.p
    sqrt_cov = _psd_sqrt(params.stationary_cov)
    x = sqrt_cov @ rng.standard_normal(q)
    X = np.empty((horizon, q))
    Y = np.empty((horizon, p))
    w = params.sigma_q * rng.standard_normal((horizon, q))
    v = params.sigma_r * rng.standard_normal((horizon, p))
    for t in range(horizon):
        x = params.A @ x + w[t]
        if t >= change.tau:
            x = x + change.f
        X[t] = x
        Y[t] = params.C @ x + v[t]
    return Y, X
