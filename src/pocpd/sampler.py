"""Adaptive observation-subset selection by upper-confidence-region scoring.

For each candidate index subset Z the score is the worst-case-favorable
non-centrality max_f f' Omega_Z f over the boundary of the confidence
ellipsoid of the current shift estimate.  The inner maximization reduces to
a scalar secular equation after a simultaneous diagonalization (Cholesky of
the estimate covariance plus an eigendecomposition).

The scorer's arithmetic is pinned to the last bit: the benchmark's
replay-p30-greedy reference has candidate scores that tie to 1e-16, so
reassociating even one product (``b.T @ (om @ b)``) changes its masks.
Such a rewrite is a change of results, not a speed-up.  Scoring a stack of
decisions in one call (lockstep calibration) keeps every decision's bits:
the stacked Cholesky, eigh, inv, einsum and matmul calls do the same
per-matrix work as single calls, and each decision's Newton iteration
stops at the iteration where it would stop alone.  A stop shared by the
stack gives converged decisions extra steps, and that moves their last
bits.  The BLAS kernel is a rewrite too.  Under
OPENBLAS_CORETYPE=Sandybridge the ic-p10-greedy workload misses its seed-0
reference at full size (achieved_add_ic 9.68 against 10.31) and at tiny
size (h 4.692 against 4.498); under Haswell the p10 workloads pass, and
replay-p30-greedy fails under both.
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
# Below this radius2 the confidence region has vanished: the maximizer is
# f_hat itself, and sigma_f is never factored.
_VANISHING_R2 = 1e-12


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
    """Everything the subset scorer needs at one decision point, or at a
    stack of R of them: with a leading axis of length R on the arrays and on
    alpha, row r is decision r.  The scorer reads one decision as a stack of
    one, scores a stack in one call per greedy round and gives each decision
    the bits it gets alone."""

    f_hat: np.ndarray  # current shift estimate, (q,) or (R, q)
    sigma_f: np.ndarray  # its covariance, (q, q) PD, or (R, q, q)
    g_next: np.ndarray  # one-step-ahead shift propagation, (q, q) or (R, q, q)
    p_pred: np.ndarray  # one-step-ahead state covariance, (q, q) or (R, q, q)
    params: ModelParams
    alpha: float | np.ndarray  # a float, or (R,)

    def __post_init__(self):
        alpha = np.asarray(self.alpha)
        if not ((0.0 < alpha) & (alpha < 1.0)).all():
            raise ValueError(f"alpha must be strictly inside (0, 1), got {self.alpha}")

    # All cached: they do not depend on the subset, and every greedy round
    # scores a new batch with the same inputs.
    @cached_property
    def radius2(self) -> float | np.ndarray:
        """chi2_quantile(1 - alpha, q) of each decision."""
        return 2.0 * gammaincinv(self.params.q / 2.0, 1.0 - np.asarray(self.alpha))

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, ...]:
        """f_hat, sigma_f, g_next, p_pred and radius2 as stacks: (R, q),
        (R, q, q) three times and (R,)."""
        q = self.params.q
        return (
            self.f_hat.reshape(-1, q),
            self.sigma_f.reshape(-1, q, q),
            self.g_next.reshape(-1, q, q),
            self.p_pred.reshape(-1, q, q),
            np.reshape(self.radius2, -1),
        )

    @cached_property
    def _whitened(self) -> tuple[np.ndarray, ...]:
        """The decisions whose region does not vanish, (W,), with their
        Cholesky factors B of sigma_f, (W, 1, q, q), whitened estimates
        B^{-1} f_hat, (W, 1, q, 1), and f_hat, (W, 1, q), shaped to
        broadcast over candidates."""
        f_hat, sigma_f, _, _, radius2 = self._stacked
        wide = np.flatnonzero(radius2 >= _VANISHING_R2)
        f_hat = f_hat[wide]
        try:
            b = np.linalg.cholesky(sigma_f[wide])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("sigma_f is not positive definite") from exc
        # B is C-ordered, so this is the LAPACK call solve_triangular(B,
        # f_hat, lower=True) makes, without its argument checks.
        bf = np.array([dtrtrs(br.T, f, lower=0, trans=1)[0] for br, f in zip(b, f_hat)])
        bf = bf.reshape(f_hat.shape)
        if not np.isfinite(bf).all():
            raise NumericalError("f_hat is not finite")
        return wide, b[:, None], bf[:, None, :, None], f_hat[:, None]


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
    return _omega_array(np.array([[mask.indices]]), g_next[None], p_pred[None], params)[0, 0]


def _secular_boundary_max(
    lams: np.ndarray, xs: np.ndarray, hinv_f: np.ndarray, radius2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary maximizers in diagonalized coordinates for a stack of
    decisions: lams, xs and hinv_f are (R, n, q), radius2 is (R,).

    Solves sum_i x_i^2 / (lam_i + lambda)^2 = radius2 on the maximizer branch
    lambda < -max(lam) via the substitution t = -lambda - max(lam) >= 0,
    using a safeguarded Newton iteration on 1/sqrt of the secular sum.
    Returns (f_tilde, score) with score = sum_i lam_i (f_tilde + H^{-1}f)_i^2.
    """
    shape = lams.shape
    n, q = shape[1:]
    # One row per candidate, each with its decision's radius2.
    lams, xs, hinv_f = lams.reshape(-1, q), xs.reshape(-1, q), hinv_f.reshape(-1, q)
    r2 = radius2.repeat(n)
    sqrt_c = np.sqrt(r2)
    d = lams.max(axis=1)[:, None] - lams  # >= 0
    ax = np.abs(xs)
    active = ax > _X_TOL * np.maximum(ax.max(axis=1), 1.0)[:, None]
    x2 = np.where(active, xs, 0.0) ** 2
    # Terms with x2 == 0 divide +0.0 by a positive number, so they are +0.0,
    # exactly the zero they would be masked to.
    safe = np.where(x2 > 0, d, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        # Closed-form bracket: at t_lo the largest single term alone reaches
        # radius2, at t_hi the whole sum is already below it.
        t_lo = np.where(active, ax / sqrt_c[:, None] - d, -np.inf).max(axis=1)
        # Hard case: the top eigendirections carry no estimate mass and the
        # remaining terms cannot reach the boundary radius.
        g0 = (x2 / safe**2).sum(axis=1)
        hard = ~np.isfinite(t_lo) | ((t_lo <= 0.0) & (g0 <= r2))
        t = np.maximum(t_lo, 0.0)
        any_hard = hard.any()
        # Newton on the rows of the decisions still iterating; hard rows keep
        # their start and never hold a decision back.  A decision stops at
        # the first iteration where all its other rows are within tolerance,
        # exactly as it would alone: a longer iteration would move the bits
        # of its converged rows.
        t_end = None  # each row's result, once some rows are set aside
        x2_w, safe_w, hard_w, t_w, t_min = x2, safe, hard, t, t
        t_max = np.sqrt(x2.sum(axis=1) / r2)  # sum <= radius2 there
        target = 1.0 / sqrt_c
        for _ in range(40):
            dt = safe_w + t_w[:, None]
            g = (x2_w / dt**2).sum(axis=1)
            phi = 1.0 / np.sqrt(g)
            dphi = np.power(g, -1.5) * (x2_w / dt**3).sum(axis=1)
            step = (target - phi) / dphi
            ok = np.abs(step) <= 1e-13 * (1.0 + t_w)
            if any_hard:
                ok |= hard_w
            t_w = np.minimum(np.maximum(t_w + step, t_min), t_max)
            if ok.all():
                break
            if len(t_w) > n:  # several decisions left: set the stopped ones aside
                go = (~ok).reshape(-1, n).any(axis=1).repeat(n)
                if not go.all():
                    if t_end is None:
                        t_end, rows = t.copy(), np.arange(len(t))
                    t_end[rows] = t_w
                    rows, x2_w, safe_w, hard_w, t_w, t_min, t_max, target = (
                        a[go] for a in (rows, x2_w, safe_w, hard_w, t_w, t_min, t_max, target)
                    )
        if t_end is not None:
            t_end[rows] = t_w
            t_w = t_end
        t = np.where(hard, t, t_w) if any_hard else t_w
        g = (x2 / (safe + t[:, None]) ** 2).sum(axis=1)
        off = np.abs(g - r2) > BOUNDARY_RTOL * r2
        if any_hard:
            off &= ~hard
        if off.any():
            raise NumericalError("secular equation root-find did not converge")

        denom = d + t[:, None]
        pos = denom > 0
        ft = np.where(active & pos, xs / np.where(pos, denom, 1.0), 0.0)
    if any_hard:
        # Put the leftover radius on one top eigendirection, signed to help.
        for i in np.flatnonzero(hard):
            top = int(np.argmax(lams[i]))
            rest = float((ft[i] ** 2).sum() - ft[i, top] ** 2)
            extra = np.sqrt(max(r2[i] - rest, 0.0))
            sign = 1.0 if hinv_f[i, top] >= 0 else -1.0
            ft[i, top] = sign * extra
    scores = (lams * (ft + hinv_f) ** 2).sum(axis=1)
    return ft.reshape(shape), scores.reshape(shape[:2])


def solve_ellipsoid_max(
    inputs: UcrInputs, omega_z: np.ndarray
) -> tuple[np.ndarray, float]:
    """Maximize f' Omega f over the boundary of the confidence ellipsoid."""
    scores, f_stars = _boundary_max_array(omega_z[None], inputs)
    return f_stars[0], float(scores[0])


def _omega_array(
    mask_idx: np.ndarray, g_next: np.ndarray, p_pred: np.ndarray, params: ModelParams
) -> np.ndarray:
    """omega for stacks of equal-size subsets: (R, n, m) indices with (R, q, q)
    g_next and p_pred -> (R, n, q, q)."""
    c_zs = params.C[mask_idx]  # (R, n, m, q)
    v = np.einsum("rnij,rjk,rnlk->rnil", c_zs, p_pred, c_zs)
    v += params.sigma_r**2 * np.eye(mask_idx.shape[-1])
    bad = innovation_singular(v, params.sigma_r**2)
    if bad is not False and bad.any():
        offender = tuple(int(k) for k in mask_idx[tuple(np.argwhere(bad)[0])])
        raise NumericalError(f"innovation covariance singular for mask {offender}")
    vinv = np.linalg.inv(v)
    w = np.einsum("rnji,rnjk,rnkl->rnil", c_zs, vinv, c_zs)
    return g_next.transpose(0, 2, 1)[:, None] @ w @ g_next[:, None]


def _boundary_max_array(om: np.ndarray, inputs: UcrInputs):
    """Scores and boundary maximizers of projected information matrices:
    (n, q, q) -> ((n,), (n, q)) for one decision, (R, n, q, q) -> ((R, n),
    (R, n, q)) for a stack of R."""
    f_hat, _, _, _, radius2 = inputs._stacked
    q = f_hat.shape[1]
    shape = om.shape[:-2]
    om = om.reshape(len(f_hat), -1, q, q)
    scores = np.empty(om.shape[:2])
    f_stars = np.empty(om.shape[:3])
    # A vanished region's maximizer is f_hat itself.
    tiny = np.flatnonzero(radius2 < _VANISHING_R2)
    scores[tiny] = np.einsum("ri,rnij,rj->rn", f_hat[tiny], om[tiny], f_hat[tiny])
    f_stars[tiny] = f_hat[tiny, None]
    wide, b, bf, f_wide = inputs._whitened
    scores[wide], f_stars[wide] = _region_max(om[wide], b, bf, f_wide, radius2[wide])
    # argmax would pick a NaN score, and no comparison rejects one.
    if not np.isfinite(scores).all():
        i = np.argwhere(~np.isfinite(scores))[0, 1]
        raise NumericalError(f"UCR score of candidate {i} is not finite")
    return scores.reshape(shape), f_stars.reshape(shape + (q,))


def _region_max(om, b, bf, f_hat, radius2):
    """_boundary_max_array for a stack of decisions whose regions do not
    vanish, given their whitening (UcrInputs._whitened)."""
    m = b.swapaxes(2, 3) @ om @ b
    lams, vecs = np.linalg.eigh(0.5 * (m + m.swapaxes(2, 3)))
    # PSD repair: small negative eigenvalues are rounding noise.  Below
    # -1e-10 some decision may exceed its own threshold; check each.
    if lams.min(initial=0.0) < -1e-10:
        low = lams.min(axis=(1, 2))
        indefinite = low < -1e-10 * np.maximum(np.abs(lams).max(axis=(1, 2)), 1.0)
        if indefinite.any():
            raise NumericalError(
                f"projected information matrix indefinite: min eig {low[indefinite][0]:.3g}"
            )
    lams = np.maximum(lams, 0.0)
    hinv_f = (vecs.swapaxes(2, 3) @ bf)[..., 0]
    xs = lams * hinv_f
    ft, scores = _secular_boundary_max(lams, xs, hinv_f, radius2)
    return scores, (b @ vecs @ ft[..., None])[..., 0] + f_hat


def _score_mask_array(mask_idx: np.ndarray, inputs: UcrInputs):
    """Scores and boundary maximizers of equal-size subsets, (R, n, m)
    indices for a stack of R decisions, in the form of `inputs`: ((n,),
    (n, q)) for one decision, ((R, n), (R, n, q)) for a stack."""
    _, _, g_next, p_pred, _ = inputs._stacked
    om = _omega_array(mask_idx, g_next, p_pred, inputs.params)
    return _boundary_max_array(om.reshape(inputs.f_hat.shape[:-1] + om.shape[1:]), inputs)


def _best(inputs: UcrInputs, cands: np.ndarray, scores, f_stars):
    """Each decision's first best of its candidates, (R, n, m): a
    SamplingDecision, or a list of them for a stack."""
    scores = scores.reshape(cands.shape[:2])
    f_stars = f_stars.reshape(cands.shape[:2] + (-1,))
    out = [
        SamplingDecision(
            mask=ObservationMask(indices=cands[r, k].tolist(), p=inputs.params.p),
            score=float(scores[r, k]),
            f_star=f_stars[r, k],
        )
        for r, k in enumerate(scores.argmax(axis=1))
    ]
    return out if inputs.f_hat.ndim == 2 else out[0]


def select_exhaustive(inputs: UcrInputs, m: int):
    """Best subset over all C(p, m) masks; ties go to the lexicographically
    smallest index set (argmax keeps the first).  A stack of R decisions
    gives a list of R SamplingDecisions."""
    p = inputs.params.p
    _check_subset_size(m, p)
    combos = np.array(list(itertools.combinations(range(p), m)), dtype=np.intp)
    cands = combos[None].repeat(len(inputs._stacked[0]), axis=0)
    return _best(inputs, cands, *_score_mask_array(cands, inputs))


def select_greedy(inputs: UcrInputs, m: int):
    """Grow the subset one index per round, keeping the best extension (the
    smallest candidate index on ties).  A stack of R decisions gives a list
    of R SamplingDecisions, with one scorer call per round for all of them."""
    p = inputs.params.p
    _check_subset_size(m, p)
    n_dec = len(inputs._stacked[0])
    decs = np.arange(n_dec)
    taken = np.zeros((n_dec, p), dtype=bool)
    chosen = np.empty((n_dec, 0), dtype=np.intp)
    for k in range(m):
        # Each decision's chosen set plus each index it lacks, ascending.
        pool = (~taken).nonzero()[1].reshape(n_dec, p - k, 1)
        cands = np.concatenate((chosen[:, None].repeat(p - k, axis=1), pool), axis=2)
        cands.sort(axis=2)
        scores, f_stars = _score_mask_array(cands, inputs)
        best = scores.reshape(n_dec, -1).argmax(axis=1)
        taken[decs, pool[decs, best, 0]] = True
        chosen = cands[decs, best]
    # The last round's best candidate is the chosen set.
    return _best(inputs, cands, scores, f_stars)


def select_random(p: int, m: int, rng: np.random.Generator) -> ObservationMask:
    """Uniform draw over all C(p, m) index subsets."""
    _check_subset_size(m, p)
    idx = np.sort(rng.choice(p, size=m, replace=False))
    return ObservationMask(indices=tuple(int(i) for i in idx), p=p)


def _check_subset_size(m: int, p: int) -> None:
    if not 1 <= m <= p:
        raise ValueError(f"subset size m={m} must satisfy 1 <= m <= p={p}")
