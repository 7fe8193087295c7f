"""Linear-Gaussian state-space model: parameters, masks, and stream simulation.

The monitored process is a latent AR(1) state x_t = A x_{t-1} + w_t observed
through y_t = C x_t + v_t with isotropic noises Q = sigma_q^2 I and
R = sigma_r^2 I.  A persistent mean shift f can be injected into the state
recursion from a change point onward.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError

__all__ = [
    "ModelParams",
    "ChangeSpec",
    "ObservationMask",
    "stationary_covariance",
    "SimulatedStream",
    "simulate_stream",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_array(obj, value: np.ndarray, name: str) -> None:
    object.__setattr__(obj, name, _read_only(np.array(value, dtype=float)))


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
        if not 0 <= self.sigma_q < math.inf:
            raise ValueError(f"sigma_q must be nonnegative and finite, got {self.sigma_q}")
        if not 0 <= self.sigma_r < math.inf:
            raise ValueError(f"sigma_r must be nonnegative and finite, got {self.sigma_r}")
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise ValueError(f"A is unstable: spectral radius {rho:.6g} >= 1")

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]

    # The constant matrices below are built once per parameter set and are
    # read-only: every filter step, scorer call and simulation shares them.
    @cached_property
    def state_cov(self) -> np.ndarray:
        """Q = sigma_q^2 I."""
        return _read_only(self.sigma_q**2 * np.eye(self.q))

    @cached_property
    def obs_cov(self) -> np.ndarray:
        """R = sigma_r^2 I, (p, p); the leading (m, m) block is that of any
        m observed sensors."""
        return _read_only(self.sigma_r**2 * np.eye(self.p))

    @cached_property
    def identity(self) -> np.ndarray:
        """The (q, q) identity."""
        return _read_only(np.eye(self.q))

    @cached_property
    def stationary_cov(self) -> np.ndarray:
        """Stationary state covariance, solved once per parameter set."""
        return _read_only(stationary_covariance(self.A, self.state_cov))

    @cached_property
    def row_classes(self) -> np.ndarray | None:
        """Each row of C's first bitwise-equal row, (p,); None if all differ."""
        first = {}
        classes = [first.setdefault(row.tobytes(), i) for i, row in enumerate(self.C)]
        return None if len(first) == self.p else _read_only(np.array(classes, dtype=np.intp))

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
        # Each message starts with the field it names; config maps it to a path.
        try:
            _frozen_array(self, self.f, "f")
        except (TypeError, ValueError):
            raise ValueError("f must be a finite vector of numbers") from None
        if self.f.ndim != 1 or not np.all(np.isfinite(self.f)):
            raise ValueError("f must be a finite vector of numbers")
        tau = self.tau
        if isinstance(tau, bool) or not isinstance(tau, numbers.Real) or not (
            tau == math.inf or (tau >= 0 and float(tau).is_integer())
        ):
            raise ValueError(f"tau must be a nonnegative integer or infinity, got {tau!r}")

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


# Convergence test of stationary_covariance: the largest entry change of a
# sweep, and the most sweeps before giving up.
LYAPUNOV_TOL = 1e-12
LYAPUNOV_SWEEPS = 100_000


def stationary_covariance(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Stationary state covariance: fixed point of S <- A S A' + Q.

    Converges for any stable A; raises NumericalError if the residual does not
    fall below LYAPUNOV_TOL within LYAPUNOV_SWEEPS sweeps.
    """
    S = np.array(Q, dtype=float)
    for _ in range(LYAPUNOV_SWEEPS):
        S_next = A @ S @ A.T + Q
        resid = float(np.max(np.abs(S_next - S)))
        S = S_next
        if resid < LYAPUNOV_TOL:
            return 0.5 * (S + S.T)
    raise NumericalError(
        f"stationary covariance iteration did not reach tol={LYAPUNOV_TOL} "
        f"within {LYAPUNOV_SWEEPS} iterations (residual {resid:.3g})"
    )


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(S)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


class SimulatedStream:
    """simulate_stream's recursion, run one row at a time.

    The noise (x_0, then w, then v) is drawn up front in a fixed order, so
    the rows are bit-identical to simulate_stream's.  `fork` copies the
    stream at its current row, to go on under another change.

    x_0 is _psd_sqrt(stationary_cov) times a standard normal draw.  Where
    eigenvalues repeat (bench-p10's: 0.129265 and 0.210857 twice, 0.15625
    three times), np.linalg.eigh's basis is not unique, so the root, x_0
    and every row depend on the BLAS kernel: under Sandybridge the p10 root
    differs by up to 0.45, and that moves the p10 seed-0 references.
    """

    def __init__(self, params: ModelParams, change: ChangeSpec, horizon: int, seed):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if change.f.shape != (params.q,):
            raise ValueError(f"shift vector must have length q={params.q}")
        rng = np.random.default_rng(seed)
        self.params, self.change, self.t = params, change, 0
        self.x = _psd_sqrt(params.stationary_cov) @ rng.standard_normal(params.q)
        self.w = params.sigma_q * rng.standard_normal((horizon, params.q))
        self.v = params.sigma_r * rng.standard_normal((horizon, params.p))

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """The next row: (observation y_t, state x_t)."""
        t, params = self.t, self.params
        x = params.A @ self.x + self.w[t]
        if t >= self.change.tau:
            x = x + self.change.f
        self.x, self.t = x, t + 1
        return params.C @ x + self.v[t], x

    def rows(self, n: int):
        """The next n observation rows, each simulated when it is read."""
        for _ in range(n):
            yield self.step()[0]

    def fork(self, change: ChangeSpec) -> "SimulatedStream":
        """An independent copy at the current row that goes on under `change`."""
        other = copy.copy(self)  # w and v are only read; x is replaced, not written
        other.change = change
        return other


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
    stream = SimulatedStream(params, change, horizon, seed)
    Y = np.empty((horizon, params.p))
    X = np.empty((horizon, params.q))
    for t in range(horizon):
        Y[t], X[t] = stream.step()
    return Y, X
