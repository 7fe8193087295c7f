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
    return FilterState(x_pred=np.zeros(params.q), p_pred=params.stationary_cov, t=0)


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
    v_mat = c_z @ P @ c_z.T + params.obs_cov[: len(idx), : len(idx)]
    v_mat = 0.5 * (v_mat + v_mat.T)
    if innovation_singular(v_mat, params.sigma_r**2):
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
    a_tilde = params.A @ (params.identity - k_gain @ c_z)
    residual = y_obs - c_z @ state.x_pred
    x_next = a_tilde @ state.x_pred + params.A @ (k_gain @ y_obs)
    # Joseph-form covariance propagation: the A K R K' A' term keeps P the
    # exact predictor covariance, so V_t is the true innovation covariance.
    ak = params.A @ k_gain
    p_next = a_tilde @ P @ a_tilde.T + params.sigma_r**2 * (ak @ ak.T) + params.state_cov
    p_next = 0.5 * (p_next + p_next.T)
    new_state = FilterState(x_pred=x_next, p_pred=p_next, t=state.t + 1)
    return new_state, StepOutput(
        residual=residual, v_mat=v_mat, v_chol=chol, mask=mask, a_tilde_used=a_tilde
    )


def rcond_from_eigvals(vals: np.ndarray) -> np.ndarray:
    """Reciprocal condition number min |lambda| / max |lambda| from the
    eigenvalues on the last axis; 0 for an all-zero matrix."""
    vals = np.abs(vals)
    hi = vals.max(axis=-1)
    lo = vals.min(axis=-1)
    return np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)


def innovation_singular(v: np.ndarray, sigma_r2: float):
    """Which innovation covariances, an (m, m) V or an (n, m, m) stack, have
    reciprocal condition number below RCOND_SINGULAR.

    Precondition: V = C_Z P C_Z' + sigma_r2 I with P PSD, so no eigenvalue of
    V lies below -RCOND_SINGULAR * lambda_max(V).  Returns a boolean per V:
    all False, without computing eigenvalues, when sigma_r2 certifies every
    V, and otherwise from the eigenvalues.
    """
    if sigma_r2 > _CERTIFY_MARGIN * RCOND_SINGULAR * v.trace(axis1=-2, axis2=-1).max():
        return np.zeros(v.shape[:-2], dtype=bool)
    return rcond_from_eigvals(np.linalg.eigvalsh(v)) < RCOND_SINGULAR
