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
bits.  The BLAS kernel is a rewrite too: under OPENBLAS_CORETYPE=Sandybridge
and Haswell, replay-p30-greedy's masks move from step 58 of its seed-0
reference.  The p10 workloads' misses under Sandybridge come not from the
scorer but from x0 (model.SimulatedStream): with x0 pinned, they pass.

A score depends on Z only through C_Z, its rows of C in index order (V adds
sigma_r^2 I_m to every subset).  Where rows of C repeat
(ModelParams.row_classes), a decision scores each distinct C_Z once and the
other candidates take its score and maximizer, bit for bit: stacked calls do
per-candidate work, and a copy stops its Newton iteration with its twin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    """Everything the subset scorer needs at a stack of R decision points:
    row r of every array is decision r, and one decision is the stack of
    R = 1.  The scorer scores a stack in one call per greedy round and gives
    each decision the bits it gets in a stack of one."""

    f_hat: np.ndarray  # current shift estimates, (R, q)
    sigma_f: np.ndarray  # their covariances, (R, q, q), each PD
    g_next: np.ndarray  # one-step-ahead shift propagation, (R, q, q)
    p_pred: np.ndarray  # one-step-ahead state covariance, (R, q, q)
    params: ModelParams
    alpha: np.ndarray  # (R,)

    def __post_init__(self):
        q = self.params.q
        for name, tail in (("f_hat", (q,)), ("sigma_f", (q, q)), ("g_next", (q, q)),
                           ("p_pred", (q, q)), ("alpha", ())):
            shape = np.shape(getattr(self, name))
            if shape != np.shape(self.f_hat)[:1] + tail:
                raise ValueError(f"{name} must be a stack of shape (R,) + {tail}, with R "
                                 f"decisions as in f_hat, got {shape}")
        alpha = np.asarray(self.alpha)
        if not ((0.0 < alpha) & (alpha < 1.0)).all():
            raise ValueError(f"alpha must be strictly inside (0, 1), got {self.alpha}")

    # All cached: they do not depend on the subset, and every greedy round
    # scores a new batch with the same inputs.
    @cached_property
    def radius2(self) -> np.ndarray:
        """chi2_quantile(1 - alpha, q) of each decision, (R,)."""
        return 2.0 * gammaincinv(self.params.q / 2.0, 1.0 - np.asarray(self.alpha))

    @cached_property
    def _whitened(self) -> tuple[np.ndarray, ...]:
        """The decisions whose region does not vanish, (W,), with their
        Cholesky factors B of sigma_f, (W, 1, q, q), whitened estimates
        B^{-1} f_hat, (W, 1, q, 1), and f_hat, (W, 1, q), shaped to
        broadcast over candidates."""
        wide = np.flatnonzero(self.radius2 >= _VANISHING_R2)
        f_hat = self.f_hat[wide]
        try:
            b = np.linalg.cholesky(self.sigma_f[wide])
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
        # Newton on every row; hard rows keep their start and never hold a
        # decision back.  A decision's rows are going until the first
        # iteration where all its rows that are not hard are within
        # tolerance, and take no step after it, exactly as alone: a longer
        # iteration would move the bits of its converged rows.
        going = np.ones(len(t), dtype=bool)
        t_w, t_max = t, np.sqrt(x2.sum(axis=1) / r2)  # sum <= radius2 at t_max
        target = 1.0 / sqrt_c
        for _ in range(40):
            dt = safe + t_w[:, None]
            g = (x2 / dt**2).sum(axis=1)
            phi = 1.0 / np.sqrt(g)
            dphi = np.power(g, -1.5) * (x2 / dt**3).sum(axis=1)
            step = (target - phi) / dphi
            ok = (np.abs(step) <= 1e-13 * (1.0 + t_w)) | hard
            t_w = np.where(going, np.minimum(np.maximum(t_w + step, t), t_max), t_w)
            going &= (~ok).reshape(-1, n).any(axis=1).repeat(n)
            if not going.any():
                break
        t = np.where(hard, t, t_w)
        g = (x2 / (safe + t[:, None]) ** 2).sum(axis=1)
        off = (np.abs(g - r2) > BOUNDARY_RTOL * r2) & ~hard
        if off.any():
            raise NumericalError("secular equation root-find did not converge")

        denom = d + t[:, None]
        pos = denom > 0
        ft = np.where(active & pos, xs / np.where(pos, denom, 1.0), 0.0)
    # Put a hard row's leftover radius on one top eigendirection, signed to help.
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
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize f' Omega f over the boundary of each decision's confidence
    ellipsoid, given one Omega per decision, (R, q, q): the maximizers
    (R, q) and their scores (R,)."""
    scores, f_stars = _boundary_max_array(omega_z[:, None], inputs)
    return f_stars[:, 0], scores[:, 0]


def _omega_array(
    mask_idx: np.ndarray, g_next: np.ndarray, p_pred: np.ndarray, params: ModelParams
) -> np.ndarray:
    """omega for stacks of equal-size subsets: (R, n, m) indices with (R, q, q)
    g_next and p_pred -> (R, n, q, q)."""
    c_zs = params.C[mask_idx]  # (R, n, m, q)
    v = np.einsum("rnij,rjk,rnlk->rnil", c_zs, p_pred, c_zs)
    m = mask_idx.shape[-1]
    v += params.obs_cov[:m, :m]
    bad = innovation_singular(v, params.sigma_r**2)
    if bad.any():
        offender = tuple(int(k) for k in mask_idx[tuple(np.argwhere(bad)[0])])
        raise NumericalError(f"innovation covariance singular for mask {offender}")
    vinv = np.linalg.inv(v)
    w = np.einsum("rnji,rnjk,rnkl->rnil", c_zs, vinv, c_zs)
    return g_next.transpose(0, 2, 1)[:, None] @ w @ g_next[:, None]


def _boundary_max_array(om: np.ndarray, inputs: UcrInputs, inverse=None):
    """Scores and boundary maximizers of projected information matrices,
    n per decision of a stack of R: (R, n, q, q) -> ((R, n), (R, n, q)), or
    those of om[r, inverse[r, k]] at (r, k) given inverse, (R, N)."""
    f_hat, radius2 = inputs.f_hat, inputs.radius2
    scores = np.empty(om.shape[:2])
    f_stars = np.empty(om.shape[:3])
    # A vanished region's maximizer is f_hat itself.
    if len(tiny := np.flatnonzero(radius2 < _VANISHING_R2)):
        scores[tiny] = np.einsum("ri,rnij,rj->rn", f_hat[tiny], om[tiny], f_hat[tiny])
        f_stars[tiny] = f_hat[tiny, None]
    wide, b, bf, f_wide = inputs._whitened
    om_wide = om if len(wide) == len(om) else om[wide]  # om[wide] copies every matrix
    scores[wide], f_stars[wide] = _region_max(om_wide, b, bf, f_wide, radius2[wide])
    if inverse is not None:
        scores, f_stars = (a[np.arange(len(a))[:, None], inverse] for a in (scores, f_stars))
    # argmax would pick a NaN score, and no comparison rejects one.
    if not np.isfinite(scores).all():
        i = np.argwhere(~np.isfinite(scores))[0, 1]
        raise NumericalError(f"UCR score of candidate {i} is not finite")
    return scores, f_stars


def _region_max(om, b, bf, f_hat, radius2):
    """_boundary_max_array for a stack of decisions whose regions do not
    vanish, given their whitening (UcrInputs._whitened)."""
    m = b.swapaxes(2, 3) @ om @ b
    sym = m + m.swapaxes(2, 3)
    sym *= 0.5
    lams, vecs = np.linalg.eigh(sym)
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
    indices for a stack of R decisions: ((R, n), (R, n, q)), each distinct
    C_Z of a decision scored once (padded with its candidate 0)."""
    classes, inverse = inputs.params.row_classes, None
    if classes is not None:
        m = mask_idx.shape[2]
        first, inverse = map(np.array, zip(*(_distinct(k.tobytes(), m) for k in classes[mask_idx])))
        mask_idx = np.take_along_axis(mask_idx, first[:, : inverse.max() + 1, None], axis=1)
    om = _omega_array(mask_idx, inputs.g_next, inputs.p_pred, inputs.params)
    return _boundary_max_array(om, inputs, inverse)


# Bounded: exhaustive search and greedy's first round reuse one key set.
@lru_cache(maxsize=256)
def _distinct(keys: bytes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of (n, m) keys, given as bytes, in
    index order and padded with 0 to n, and each row's position among them."""
    keys = np.frombuffer(keys, dtype=np.intp).reshape(-1, m)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.pad(first[order], (0, len(keys) - len(first))), np.argsort(order)[inverse.ravel()]


def distinct_subsets(params: ModelParams, m: int) -> int:
    """How many of the C(p, m) subsets the scorer scores: one per distinct C_Z."""
    classes = np.arange(params.p) if params.row_classes is None else params.row_classes
    return int(_distinct(classes[_combinations(params.p, m)].tobytes(), m)[1].max()) + 1


def _best(inputs: UcrInputs, cands: np.ndarray, scores, f_stars):
    """Each decision's first best of its candidates, (R, n, m), as a list of
    R SamplingDecisions."""
    return [
        SamplingDecision(
            mask=_mask(inputs.params.p, tuple(cands[r, k].tolist())),
            score=float(scores[r, k]),
            f_star=f_stars[r, k],
        )
        for r, k in enumerate(scores.argmax(axis=1))
    ]


def select_exhaustive(inputs: UcrInputs, m: int) -> list[SamplingDecision]:
    """Best subset over all C(p, m) masks for each of the R decisions;
    ties go to the lexicographically smallest index set (argmax keeps the
    first)."""
    p = inputs.params.p
    _check_subset_size(m, p)
    cands = _combinations(p, m)[None].repeat(len(inputs.f_hat), axis=0)
    return _best(inputs, cands, *_score_mask_array(cands, inputs))


@lru_cache(maxsize=16)
def _combinations(p: int, m: int) -> np.ndarray:
    """The C(p, m) index subsets in lexicographic order, (C(p, m), m), read-only."""
    combos = np.array(list(itertools.combinations(range(p), m)), dtype=np.intp)
    combos.setflags(write=False)
    return combos


def select_greedy(inputs: UcrInputs, m: int) -> list[SamplingDecision]:
    """Grow each of the R decisions' subsets one index per round, keeping
    the best extension (the smallest candidate index on ties), with one
    scorer call per round for all of them."""
    p = inputs.params.p
    _check_subset_size(m, p)
    n_dec = len(inputs.f_hat)
    decs = np.arange(n_dec)
    taken = np.zeros((n_dec, p), dtype=bool)
    chosen = np.empty((n_dec, 0), dtype=np.intp)
    for k in range(m):
        # Each decision's chosen set plus each index it lacks, ascending.
        pool = (~taken).nonzero()[1].reshape(n_dec, p - k, 1)
        cands = np.concatenate((chosen[:, None].repeat(p - k, axis=1), pool), axis=2)
        cands.sort(axis=2)
        scores, f_stars = _score_mask_array(cands, inputs)
        best = scores.argmax(axis=1)
        taken[decs, pool[decs, best, 0]] = True
        chosen = cands[decs, best]
    # The last round's best candidate is the chosen set.
    return _best(inputs, cands, scores, f_stars)


def select_random(p: int, m: int, rng: np.random.Generator) -> ObservationMask:
    """Uniform draw over all C(p, m) index subsets."""
    _check_subset_size(m, p)
    return _mask(p, tuple(sorted(rng.choice(p, size=m, replace=False).tolist())))


# Random draws repeat few masks (45 on bench-p10 at m = 2), so each is built
# and validated once; masks are frozen, so the draws can share them.
@lru_cache(maxsize=4096)
def _mask(p: int, indices: tuple) -> ObservationMask:
    return ObservationMask(indices=indices, p=p)


def _check_subset_size(m: int, p: int) -> None:
    if not 1 <= m <= p:
        raise ValueError(f"subset size m={m} must satisfy 1 <= m <= p={p}")
