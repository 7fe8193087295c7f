"""Adaptive observation-subset selection by upper-confidence-region scoring.

For each candidate index subset Z the score is the worst-case-favorable
non-centrality max_f f' Omega_Z f over the boundary of the confidence
ellipsoid of the current shift estimate.  The inner maximization reduces to
a scalar secular equation after a simultaneous diagonalization (Cholesky of
the estimate covariance plus an eigendecomposition).

The scorer's arithmetic is pinned to the last bit: the benchmark's
replay-p30-greedy reference has candidate scores that tie to 1e-16, so
reassociating even one product (``b.T @ (om @ b)``) changes its masks.
Such a rewrite is a change of results, not a speed-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import gammaincinv

from .errors import NumericalError
from .filtering import innovation_singular
from .model import ModelParams, ObservationMask

__all__ = [
    "AlphaSchedule",
    "UcrInputs",
    "SamplingDecision",
    "chi2_quantile",
    "adaptive_alpha",
    "omega",
    "solve_ellipsoid_max",
    "select_exhaustive",
    "select_greedy",
    "select_random",
]

# Relative secular-equation residual accepted as "on the boundary".
BOUNDARY_RTOL = 1e-6
# Components of the rotated estimate below this (relative) are treated as
# exactly orthogonal to the eigendirection.
_X_TOL = 1e-13


def chi2_quantile(prob: float, df: int) -> float:
    """Quantile of the chi-square distribution via the inverse regularized
    incomplete gamma function."""
    if not 0.0 <= prob < 1.0:
        raise ValueError(f"prob must be in [0, 1), got {prob}")
    return 2.0 * float(gammaincinv(df / 2.0, prob))


@dataclass(frozen=True)
class AlphaSchedule:
    """Segment-wise linear exploration level driven by the scan statistic."""

    d: float
    l: float
    alpha_min: float
    alpha_max: float

    def __post_init__(self):
        if not 0.0 < self.alpha_min < 1.0:
            raise ValueError(f"alpha_min must be in (0, 1), got {self.alpha_min}")
        if not self.alpha_min <= self.alpha_max < 1.0:
            raise ValueError(
                f"alpha_max must be in [alpha_min, 1), got "
                f"({self.alpha_min}, {self.alpha_max})"
            )
        if not self.l > 0:
            raise ValueError(f"l must be positive, got {self.l}")
        if not np.isfinite(self.d):
            raise ValueError(f"d must be a finite number, got {self.d}")


def adaptive_alpha(t_stat: float, schedule: AlphaSchedule) -> float:
    raw = max((t_stat - schedule.d) / schedule.l, 0.0) + schedule.alpha_min
    return min(raw, schedule.alpha_max)


@dataclass(frozen=True)
class UcrInputs:
    """Everything the subset scorer needs at one decision point."""

    f_hat: np.ndarray  # current shift estimate, (q,)
    sigma_f: np.ndarray  # its covariance, (q, q) PD
    g_next: np.ndarray  # one-step-ahead shift propagation, (q, q)
    p_pred: np.ndarray  # one-step-ahead state covariance, (q, q)
    params: ModelParams
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be strictly inside (0, 1), got {self.alpha}")

    # Both cached: they do not depend on the subset, and every greedy round
    # scores a new batch with the same inputs.
    @cached_property
    def radius2(self) -> float:
        return chi2_quantile(1.0 - self.alpha, self.params.q)

    @cached_property
    def whitened(self) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factor B of sigma_f plus the whitened estimate B^{-1} f_hat."""
        try:
            b = np.linalg.cholesky(self.sigma_f)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("sigma_f is not positive definite") from exc
        # B is C-ordered, so this is the LAPACK call solve_triangular(B, f_hat,
        # lower=True) makes, without its argument checks.
        bf, _ = dtrtrs(b.T, self.f_hat, lower=0, trans=1)
        if not np.isfinite(bf).all():
            raise NumericalError("f_hat is not finite")
        return b, bf


@dataclass(frozen=True)
class SamplingDecision:
    mask: ObservationMask
    score: float
    f_star: np.ndarray


def omega(
    mask: ObservationMask,
    g_next: np.ndarray,
    p_pred: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """Projected information matrix G' C_Z' V^{-1} C_Z G for one subset."""
    return _omega_array(np.array([mask.indices]), g_next, p_pred, params)[0]


def _secular_boundary_max(
    lams: np.ndarray, xs: np.ndarray, hinv_f: np.ndarray, radius2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary maximizers in diagonalized coordinates, batched over rows.

    Solves sum_i x_i^2 / (lam_i + lambda)^2 = radius2 on the maximizer branch
    lambda < -max(lam) via the substitution t = -lambda - max(lam) >= 0,
    using a safeguarded Newton iteration on 1/sqrt of the secular sum.
    Returns (f_tilde, score) with score = sum_i lam_i (f_tilde + H^{-1}f)_i^2.
    """
    d = lams.max(axis=1)[:, None] - lams  # >= 0
    ax = np.abs(xs)
    active = ax > _X_TOL * np.maximum(ax.max(axis=1), 1.0)[:, None]
    x2 = np.where(active, xs, 0.0) ** 2
    # Terms with x2 == 0 divide +0.0 by a positive number, so they are +0.0,
    # exactly the zero they would be masked to.
    safe = np.where(x2 > 0, d, 1.0)
    sqrt_c = np.sqrt(radius2)

    with np.errstate(divide="ignore", invalid="ignore"):
        # Closed-form bracket: at t_lo the largest single term alone reaches
        # radius2, at t_hi the whole sum is already below it.
        t_lo = np.where(active, ax / sqrt_c - d, -np.inf).max(axis=1)
        # Hard case: the top eigendirections carry no estimate mass and the
        # remaining terms cannot reach the boundary radius.
        g0 = (x2 / safe**2).sum(axis=1)
        hard = ~np.isfinite(t_lo) | ((t_lo <= 0.0) & (g0 <= radius2))
        t = np.maximum(t_lo, 0.0)
        any_hard = hard.any()
        easy = ~hard
        x2_e, safe_e, t_e = (x2[easy], safe[easy], t[easy]) if any_hard else (x2, safe, t)
        if len(t_e):
            t_min = t_e
            t_max = np.sqrt(x2_e.sum(axis=1) / radius2)  # sum <= radius2 there
            target = 1.0 / sqrt_c
            for _ in range(40):
                dt = safe_e + t_e[:, None]
                g = (x2_e / dt**2).sum(axis=1)
                phi = 1.0 / np.sqrt(g)
                dphi = np.power(g, -1.5) * (x2_e / dt**3).sum(axis=1)
                step = (target - phi) / dphi
                done = (np.abs(step) <= 1e-13 * (1.0 + t_e)).all()
                t_e = np.minimum(np.maximum(t_e + step, t_min), t_max)
                if done:
                    break
            g = (x2_e / (safe_e + t_e[:, None]) ** 2).sum(axis=1)
            if (np.abs(g - radius2) > BOUNDARY_RTOL * radius2).any():
                raise NumericalError("secular equation root-find did not converge")
            if any_hard:
                t[easy] = t_e
            else:
                t = t_e

        denom = d + t[:, None]
        pos = denom > 0
        ft = np.where(active & pos, xs / np.where(pos, denom, 1.0), 0.0)
    if any_hard:
        # Put the leftover radius on one top eigendirection, signed to help.
        for i in np.flatnonzero(hard):
            top = int(np.argmax(lams[i]))
            rest = float((ft[i] ** 2).sum() - ft[i, top] ** 2)
            extra = np.sqrt(max(radius2 - rest, 0.0))
            sign = 1.0 if hinv_f[i, top] >= 0 else -1.0
            ft[i, top] = sign * extra
    scores = (lams * (ft + hinv_f) ** 2).sum(axis=1)
    return ft, scores


def solve_ellipsoid_max(
    inputs: UcrInputs, omega_z: np.ndarray
) -> tuple[np.ndarray, float]:
    """Maximize f' Omega f over the boundary of the confidence ellipsoid."""
    scores, f_stars = _boundary_max_array(omega_z[None], inputs)
    return f_stars[0], float(scores[0])


def _omega_array(
    mask_idx: np.ndarray, g_next: np.ndarray, p_pred: np.ndarray, params: ModelParams
) -> np.ndarray:
    """omega for a batch of equal-size subsets, (n, m) indices -> (n, q, q)."""
    c_zs = params.C[mask_idx]  # (n, m, q)
    v = np.einsum("nij,jk,nlk->nil", c_zs, p_pred, c_zs)
    v += params.sigma_r**2 * np.eye(mask_idx.shape[1])
    bad = innovation_singular(v, params.sigma_r**2)
    if bad is not False and bad.any():
        offender = tuple(int(i) for i in mask_idx[int(np.flatnonzero(bad)[0])])
        raise NumericalError(f"innovation covariance singular for mask {offender}")
    vinv = np.linalg.inv(v)
    w = np.einsum("nji,njk,nkl->nil", c_zs, vinv, c_zs)
    return g_next.T @ w @ g_next


def _boundary_max_array(om: np.ndarray, inputs: UcrInputs):
    """Scores and boundary maximizers for a stack of projected information
    matrices, (n, q, q) -> ((n,), (n, q))."""
    radius2 = inputs.radius2
    f_hat = inputs.f_hat
    if radius2 < 1e-12:
        scores = np.einsum("i,nij,j->n", f_hat, om, f_hat)
        f_stars = np.broadcast_to(f_hat, (len(om), len(f_hat))).copy()
    else:
        b, bf = inputs.whitened
        m = b.T @ om @ b
        lams, vecs = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
        # PSD repair: small negative eigenvalues are rounding noise.
        if (lams < -1e-10 * max(float(np.abs(lams).max()), 1.0)).any():
            raise NumericalError(
                f"projected information matrix indefinite: min eig {lams.min():.3g}"
            )
        lams = np.maximum(lams, 0.0)
        hinv_f = vecs.transpose(0, 2, 1) @ bf
        xs = lams * hinv_f
        ft, scores = _secular_boundary_max(lams, xs, hinv_f, radius2)
        f_stars = (b @ vecs @ ft[..., None])[..., 0] + f_hat
    # argmax would pick a NaN score, and no comparison rejects one.
    if not np.isfinite(scores).all():
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise NumericalError(f"UCR score of candidate {bad} is not finite")
    return scores, f_stars


def _score_mask_array(mask_idx: np.ndarray, inputs: UcrInputs):
    """Scores and boundary maximizers for a batch of equal-size subsets."""
    om = _omega_array(mask_idx, inputs.g_next, inputs.p_pred, inputs.params)
    return _boundary_max_array(om, inputs)


def select_exhaustive(inputs: UcrInputs, m: int) -> SamplingDecision:
    """Best subset over all C(p, m) masks; ties go to the lexicographically
    smallest index set."""
    p = inputs.params.p
    _check_subset_size(m, p)
    mask_idx = np.array(list(itertools.combinations(range(p), m)), dtype=np.intp)
    scores, f_stars = _score_mask_array(mask_idx, inputs)
    best = int(scores.argmax())  # first max = lexicographically smallest
    return SamplingDecision(
        mask=ObservationMask(indices=tuple(int(i) for i in mask_idx[best]), p=p),
        score=float(scores[best]),
        f_star=f_stars[best],
    )


def select_greedy(inputs: UcrInputs, m: int) -> SamplingDecision:
    """Grow the subset one index per round, keeping the best extension."""
    p = inputs.params.p
    _check_subset_size(m, p)
    chosen: list[int] = []
    for _ in range(m):
        pool = [k for k in range(p) if k not in chosen]
        mask_idx = np.array([sorted(chosen + [k]) for k in pool], dtype=np.intp)
        scores, f_stars = _score_mask_array(mask_idx, inputs)
        best = int(scores.argmax())  # first max = smallest candidate index
        chosen.append(pool[best])
    return SamplingDecision(
        mask=ObservationMask(indices=tuple(sorted(chosen)), p=p),
        score=float(scores[best]),
        f_star=f_stars[best],
    )


def select_random(p: int, m: int, rng: np.random.Generator) -> ObservationMask:
    """Uniform draw over all C(p, m) index subsets."""
    _check_subset_size(m, p)
    idx = np.sort(rng.choice(p, size=m, replace=False))
    return ObservationMask(indices=tuple(int(i) for i in idx), p=p)


def _check_subset_size(m: int, p: int) -> None:
    if not 1 <= m <= p:
        raise ValueError(f"subset size m={m} must satisfy 1 <= m <= p={p}")
