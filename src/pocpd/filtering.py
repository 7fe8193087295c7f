"""One-step-ahead Kalman prediction under partial observation, for a stack
of R streams in lockstep (one stream is the stack of R = 1).

Each step, row i sees only an m-row slice C_Z of the output matrix.  The
recursion keeps the predictors x_{t+1|t} and covariances P_{t+1|t}; the
innovations r_t = y_obs - C_Z x_{t|t-1} and their covariances V_t go to the
detector.  Each row gets the bits it gets alone, as in the `detector` stack,
and only dpotrf and dpotrs loop per row (scipy's batched cho_solve loops in
Python): one dpotrs solves V X = [C_Z P', r, C_Z], each column as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NumericalError
# stationary_covariance is not called here (filter_init reads the cached
# ModelParams.stationary_cov); perfbench/tracing.py wraps this lookup site,
# so the name stays importable from this module.
from .model import ModelParams, stationary_covariance

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
    """Value-type recursion state of a stack of R streams; filter_step
    returns a new instance."""

    x_pred: np.ndarray  # x_{t+1|t}, shape (R, q)
    p_pred: np.ndarray  # P_{t+1|t}, shape (R, q, q), symmetric PSD
    t: int  # number of steps processed, shared by the rows

    def take(self, rows: list) -> "FilterState":
        """The given rows of the stack, as a stack."""
        return FilterState(self.x_pred[rows], self.p_pred[rows], self.t)


@dataclass(frozen=True)
class StepOutput:
    """Per-step residual products of a stack of R streams, consumed by the
    detector."""

    residual: np.ndarray  # r_t, shape (R, m)
    v_mat: np.ndarray  # V_t = C_Z P C_Z' + sigma_r^2 I, shape (R, m, m)
    v_chol: np.ndarray  # lower Cholesky factors of V_t (LAPACK potrf layout)
    masks: np.ndarray  # observed indices, shape (R, m)
    a_tilde_used: np.ndarray  # closed-loop transition of this step, (R, q, q)
    v_solved: np.ndarray  # V_t^{-1} [r_t, C_Z], (R, m, 1 + q), as dpotrs lays it out


def filter_init(params: ModelParams, rows: int = 1) -> FilterState:
    """Start R rows from the steady-state prior: zero mean, stationary P."""
    p_pred = np.repeat(params.stationary_cov[None], rows, axis=0)
    return FilterState(x_pred=np.zeros((rows, params.q)), p_pred=p_pred, t=0)


def filter_step(state: FilterState, params: ModelParams, masks: np.ndarray,
                y_obs: np.ndarray) -> tuple[FilterState, StepOutput]:
    """Advance a stack by one partially-observed step: row i observes the
    indices masks[i] of an (R, m) index array as y_obs[i], (R, m).

    Raises NumericalError, naming the step and the first failing row's mask,
    if an innovation covariance is numerically singular (reciprocal
    condition number below RCOND_SINGULAR) or not positive definite.
    """
    masks, y_obs = np.asarray(masks), np.asarray(y_obs, dtype=float)
    if (masks.ndim != 2 or y_obs.shape != masks.shape or len(masks) != len(state.x_pred)
            or masks.min() < 0 or masks.max() >= params.p):
        raise ValueError(f"masks {masks.shape} of indices in [0, {params.p}) and y_obs "
                         f"{y_obs.shape} must both be (R, m), R = {len(state.x_pred)}")
    t, (q, m) = state.t + 1, (params.q, masks.shape[1])

    def where(r):  # with Python ints: "(0, 2)", not "(np.int64(0), ...)"
        return f"at step t={t} (mask {tuple(masks[r].tolist())})"
    c_z, P = params.C[masks], state.p_pred  # (R, m, q), (R, q, q)
    v_mat = c_z @ P @ c_z.swapaxes(-1, -2) + params.obs_cov[:m, :m]
    v_mat = 0.5 * (v_mat + v_mat.swapaxes(-1, -2))
    singular = innovation_singular(v_mat, params.sigma_r**2)
    if singular.any():
        raise NumericalError(f"innovation covariance singular {where(singular.argmax())}")
    x = state.x_pred[..., None]
    residual = y_obs - (c_z @ x)[..., 0]
    rhs = np.concatenate([c_z @ P.swapaxes(-1, -2), residual[..., None], c_z], axis=-1)
    # The LAPACK routines cho_factor / cho_solve call, without their wrapper
    # cost; same arguments, so the same bits.
    chols, solved = [], []
    for r, v in enumerate(v_mat):
        chol, info = dpotrf(v, lower=1, clean=0)
        if info != 0:
            raise NumericalError(f"innovation covariance not positive definite "
                                 f"(leading minor {info}) {where(r)}")
        chols.append(chol)
        solved.append(dpotrs(chol, rhs[r], lower=1)[0].T)
    solved = np.array(solved)  # (R, 2q + 1, m), C-ordered: X' per row
    k_gain = solved[:, :q]  # K = P C_Z' V^{-1}, (R, q, m), C-ordered per row as alone
    a_tilde = params.A @ (params.identity - k_gain @ c_z)
    x_next = (a_tilde @ x + params.A @ (k_gain @ y_obs[..., None]))[..., 0]
    # Joseph-form covariance propagation: the A K R K' A' term keeps P the
    # exact predictor covariance, so V_t is the true innovation covariance.
    ak = params.A @ k_gain
    p_next = (a_tilde @ P @ a_tilde.swapaxes(-1, -2)
              + params.sigma_r**2 * (ak @ ak.swapaxes(-1, -2)) + params.state_cov)
    p_next = 0.5 * (p_next + p_next.swapaxes(-1, -2))
    return FilterState(x_pred=x_next, p_pred=p_next, t=t), StepOutput(
        residual=residual, v_mat=v_mat, v_chol=np.array(chols), masks=masks,
        a_tilde_used=a_tilde, v_solved=solved[:, q:].swapaxes(-1, -2))


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
