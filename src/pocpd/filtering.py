"""One-step-ahead Kalman prediction under partial observation.

Each step sees only an m-row slice C_Z of the output matrix.  The recursion
keeps the one-step predictor x_{t+1|t} and its covariance P_{t+1|t}; the
innovation r_t = y_obs - C_Z x_{t|t-1} and its covariance V_t are returned
for the downstream detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError
# stationary_covariance is not called here (filter_init reads the cached
# ModelParams.stationary_cov); perfbench/tracing.py wraps this lookup site,
# so the name stays importable from this module.
from .model import ModelParams, ObservationMask, stationary_covariance

__all__ = ["FilterState", "StepOutput", "filter_init", "filter_step"]

# Reciprocal condition number below which the innovation covariance is
# treated as singular.
RCOND_SINGULAR = 1e-12
# V = C_Z P C_Z' + sigma_r^2 I with P PSD, so lambda_min(V) >= sigma_r^2 and
# lambda_max(V) <= trace(V).  When sigma_r^2 / trace(V) clears RCOND_SINGULAR
# by this factor, the eigenvalue test cannot fail: rounding in forming V and
# in eigvalsh moves the eigenvalues by ~1e-16 * trace(V).
_CERTIFY_MARGIN = 1e4


@dataclass(frozen=True)
class FilterState:
    """Value-type recursion state; filter_step returns a new instance."""

    x_pred: np.ndarray  # x_{t+1|t}, shape (q,)
    p_pred: np.ndarray  # P_{t+1|t}, shape (q, q), symmetric PSD
    a_tilde: np.ndarray | None  # closed-loop transition of the last step
    k_gain: np.ndarray | None  # gain of the last step, shape (q, m)
    t: int  # number of steps processed


@dataclass(frozen=True)
class StepOutput:
    """Per-step residual products consumed by the detector."""

    residual: np.ndarray  # r_t, shape (m,)
    v_mat: np.ndarray  # V_t = C_Z P C_Z' + sigma_r^2 I, shape (m, m)
    v_chol: np.ndarray  # lower Cholesky factor of V_t (LAPACK potrf layout)
    mask: ObservationMask
    a_tilde_used: np.ndarray  # closed-loop transition of this step, (q, q)


def filter_init(params: ModelParams) -> FilterState:
    """Start from the steady-state prior: zero mean, stationary covariance."""
    return FilterState(
        x_pred=np.zeros(params.q),
        p_pred=params.stationary_cov,
        a_tilde=None,
        k_gain=None,
        t=0,
    )


def filter_step(
    state: FilterState,
    params: ModelParams,
    mask: ObservationMask,
    y_obs: np.ndarray,
) -> tuple[FilterState, StepOutput]:
    """Advance the predictor by one partially-observed step.

    Raises NumericalError if the innovation covariance is numerically
    singular (reciprocal condition number below RCOND_SINGULAR).
    """
    y_obs = np.asarray(y_obs, dtype=float)
    if y_obs.shape != (len(mask),):
        raise ValueError(
            f"y_obs has shape {y_obs.shape}, expected ({len(mask)},) for the mask"
        )
    if mask.p != params.p:
        raise ValueError(f"mask is over {mask.p} dimensions, model has p={params.p}")
    idx = list(mask.indices)
    c_z = params.C[idx, :]
    P = state.p_pred
    v_mat = c_z @ P @ c_z.T + params.sigma_r**2 * np.eye(len(idx))
    v_mat = 0.5 * (v_mat + v_mat.T)
    certified = params.sigma_r**2 > _CERTIFY_MARGIN * RCOND_SINGULAR * v_mat.trace()
    if not certified and _rcond_sym(v_mat) < RCOND_SINGULAR:
        raise NumericalError(
            f"innovation covariance singular at step t={state.t + 1} "
            f"(mask {mask.indices})"
        )
    # The LAPACK routines cho_factor / cho_solve call, without their wrapper
    # cost; same arguments, so the same bits.
    chol, info = dpotrf(v_mat, lower=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    # K = P C_Z' V^{-1}, via the Cholesky factor of the m x m innovation.
    k_gain = dpotrs(chol, c_z @ P.T, lower=1, overwrite_b=1)[0].T
    a_tilde = params.A @ (np.eye(params.q) - k_gain @ c_z)
    residual = y_obs - c_z @ state.x_pred
    x_next = a_tilde @ state.x_pred + params.A @ (k_gain @ y_obs)
    # Joseph-form covariance propagation: the A K R K' A' term keeps P the
    # exact predictor covariance, so V_t is the true innovation covariance.
    ak = params.A @ k_gain
    p_next = a_tilde @ P @ a_tilde.T + params.sigma_r**2 * (ak @ ak.T) + params.state_cov
    p_next = 0.5 * (p_next + p_next.T)
    new_state = FilterState(
        x_pred=x_next, p_pred=p_next, a_tilde=a_tilde, k_gain=k_gain, t=state.t + 1
    )
    return new_state, StepOutput(
        residual=residual, v_mat=v_mat, v_chol=chol, mask=mask, a_tilde_used=a_tilde
    )


def _rcond_sym(mat: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(mat)
    hi = float(np.max(np.abs(vals)))
    if hi == 0.0:
        return 0.0
    return float(np.min(np.abs(vals))) / hi
