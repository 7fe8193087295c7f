"""Windowed GLRT change detector.

For every candidate change point k in a sliding window the detector keeps
    G(n, k)   -- accumulated closed-loop propagation of a unit shift,
    s_vec(k)  -- sum of G' C_Z' V^{-1} r over steps k+1..n,
    m_mat(k)  -- sum of G' C_Z' V^{-1} C_Z G over the same steps.
The shift estimate is f_hat = m_mat^{-1} s_vec, and the scan statistic is the
quadratic form s_vec' m_mat^{-1} s_vec maximized over candidates.  A scan
skips the candidates whose m_mat fails the RCOND_SKIP eigenvalue test, and
of the rest it inverts only those that may hold their row's maximum: one
stacked solve gives each a statistic with a certified error radius
(_SCREEN_RADIUS), and np.linalg.inv and the statistic's einsum run on the
candidates whose upper end reaches the best lower end in their row.  The
result is bit for bit that of inverting every accepted candidate.

A detector holds a stack of R streams that advance in lockstep: its ring
arrays are (R, m1, q, q), (R, m1, q) and (R, m1), and the rows share one
ring index and n.  One stream is the stack of one: `Detector(q, window)`
keeps its arrays, terms and scans without the leading axis, and runs the
same stacked code.  Each row gets the bits it gets alone, because the
stacked matmul, eigvalsh and inv calls do the per-matrix work of single
calls, and so does the statistic's einsum over two or more candidates
(over one, it sums q = 2 in another order; scan handles that case).  Forms
that look equal can break that: f_hat by np.einsum("rij,rj->ri") moves
last bits where a stacked matmul keeps them, and a transposed,
non-contiguous operand can send a stacked matmul off its BLAS path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import NumericalError
from .filtering import StepOutput, rcond_from_eigvals

__all__ = [
    "WindowConfig",
    "StepTerm",
    "ScanResult",
    "Detector",
    "make_step_term",
]

# Candidates whose information matrix has reciprocal condition number below
# this are "insufficient information" and are skipped by the scan.  The test
# is on eigenvalues, and the reported statistic uses np.linalg.inv, on
# purpose (np.linalg.solve only screens, see _SCREEN_RADIUS):
#  - A solve in place of inv (np.linalg.solve, or a Cholesky ||L^{-1}s||^2)
#    moves t_stats by rounding, and on the 30-sensor replay a solve
#    prototype changed the chosen masks from step 208 on.  Conditioning is
#    not the cause: 15 of bench-p30's 30 rows of C copy another row, so many
#    greedy decisions are near-ties (top-two score gap ~1e-16) that rounding
#    settles.  With ties broken by first index within 1e-9, the same solve
#    kept every replay mask and moved t_stats by at most 4.2e-9.
#  - A Cholesky-diagonal rank test does not reproduce the eigenvalue skip
#    set: on p30 a candidate rejected by eigenvalues had a pivot ratio ~1e-4.
RCOND_SKIP = 1e-10
# A slot is accepted without eigenvalues when its certified bounds give
# lambda_min / lambda_max >= this factor * RCOND_SKIP.  The factor absorbs
# rounding (~1e-16 relative per accumulated step) between the bounds and
# the eigenvalues eigvalsh would return, so the accepted set is exactly the
# one the eigenvalue test gives.
_CERTIFY_MARGIN = 2.0
# The scan inverts only the accepted candidates that may hold their row's
# largest statistic E = s'Xs, X = np.linalg.inv(M).  It screens them by
# S = s'x, x = np.linalg.solve(M, s), with the radius
#     delta = _SCREEN_RADIUS * q * (hi / lo)^2,
# where hi / lo >= kappa, the condition number of M, by the certified
# bounds.  Both come from LU with partial pivoting of M.  With T = s'M^{-1}s
# and eps the machine epsilon, to first order in eps and with c a small
# multiple of the LU growth factor (near 1 on these positive definite M):
#  - solve's backward error, (M + dM)x = s with ||dM|| <= c q eps ||M||, and
#    the dot product's q terms put S within (c + 1) q eps kappa T of T;
#  - inv's forward error, ||X - M^{-1}|| <= c q eps kappa ||M^{-1}||, puts
#    s'Xs within c q eps kappa^2 T of T (||s||^2 <= lambda_max T), and
#    einsum's q^2 products, each summed through at most 2q additions, add
#    at most (2q + 2) eps sqrt(q) kappa T.
# For q <= 64 and c <= 7 these sum to at most delta T / 2.  Where delta < 1,
# S >= T / 2 follows, so |E - S| <= delta * S: E lies in
# [(1 - delta) S, (1 + delta) S].  On the 187,011 accepted candidates of
# ic-p10-random at seed 0, |E - S| reached 0.005 * q eps kappa^2 S.
_SCREEN_RADIUS = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class WindowConfig:
    """Scan window: candidates k satisfy n - m1 < k < n - m2."""

    m1: int
    m2: int
    h: float | None = None  # control limit; None until calibrated

    def __post_init__(self):
        if not (0 <= self.m2 < self.m1):
            raise ValueError(f"m2 must satisfy 0 <= m2 < m1, got m1={self.m1}, m2={self.m2}")
        # h = inf is a limit that never alarms; NaN would silently do the same.
        if self.h is not None and np.isnan(self.h):
            raise ValueError("h must be a number or None, got nan")


@dataclass(frozen=True)
class StepTerm:
    """Per-step factors feeding the accumulators, of one stream or, with a
    leading axis of length R, of a stack."""

    a_tilde: np.ndarray  # closed-loop transition of this step, (q, q) or (R, q, q)
    u: np.ndarray  # C_Z' V^{-1} r, (q,) or (R, q)
    w: np.ndarray  # C_Z' V^{-1} C_Z, (q, q) or (R, q, q)


@dataclass(frozen=True)
class ScanResult:
    """One scan.  Of one stream: the statistic, the argmax candidate and its
    estimate, or (0.0, None, None, None) when no candidate is accepted.  Of a
    stack of R: t_stat (R,), tau_hat a tuple of R candidates or None, f_hat
    (R, q) and sigma_f (R, q, q), with 0.0 and NaN in rows without one."""

    t_stat: float | np.ndarray
    tau_hat: int | None | tuple
    f_hat: np.ndarray | None
    sigma_f: np.ndarray | None

    @classmethod
    def none(cls, rows: int, q: int) -> "ScanResult":
        """A stack of R scans without an accepted candidate."""
        return cls(np.zeros(rows), (None,) * rows, np.full((rows, q), np.nan),
                   np.full((rows, q, q), np.nan))

    def take(self, rows: list) -> "ScanResult":
        """The given rows of a stack, as a stack."""
        tau_hat = tuple(self.tau_hat[r] for r in rows)
        return ScanResult(self.t_stat[rows], tau_hat, self.f_hat[rows], self.sigma_f[rows])

    def row(self, r: int) -> "ScanResult":
        """Row r of a stack, as one stream's scan."""
        if self.tau_hat[r] is None:
            return ScanResult(0.0, None, None, None)
        return ScanResult(float(self.t_stat[r]), self.tau_hat[r], self.f_hat[r], self.sigma_f[r])


def make_step_term(out: StepOutput | list, C: np.ndarray) -> StepTerm:
    """Fold one filter step output, or a list of R of them with masks of one
    size, into the per-step factors of one stream, or of a stack, reusing
    the filter's Cholesky factors of V."""
    outs = [out] if isinstance(out, StepOutput) else out
    c_z = C[[o.mask.indices for o in outs]]  # (R, m, q)
    rhs = np.concatenate([np.array([o.residual for o in outs])[..., None], c_z], axis=-1)
    # One dpotrs per stream solves for r and C_Z together.  Stacking the
    # transposes keeps each solution in the Fortran order dpotrs returns: a
    # C-ordered stack sends the products for u down another BLAS path, which
    # moves last bits.
    vinv = np.array([dpotrs(o.v_chol, b, lower=1)[0].T for o, b in zip(outs, rhs)])
    czt, vinv = c_z.swapaxes(-1, -2), vinv.swapaxes(-1, -2)
    term = (np.array([o.a_tilde_used for o in outs]), (czt @ vinv[..., :1])[..., 0],
            czt @ vinv[..., 1:])
    return StepTerm(*(t[0] for t in term)) if outs is not out else StepTerm(*term)


class Detector:
    """Ring-buffered accumulators over candidate change points of one stream,
    or of a stack of `rows` streams at the same step.

    Pure in spirit: steps are pushed strictly in time order, one (stacked)
    StepTerm per step.
    """

    def __init__(self, q: int, window: WindowConfig, rows: int | None = None):
        self.window = window
        self.rows = rows  # None for one stream
        lead = () if rows is None else (rows,)
        nslots = window.m1  # at most m1 - 1 live candidates
        self._G = np.zeros(lead + (nslots, q, q))
        self._s = np.zeros(lead + (nslots, q))
        self._M = np.zeros(lead + (nslots, q, q))
        self._k = np.full(nslots, -1, dtype=np.int64)  # shared by the rows
        # Certified eigenvalue bounds of each slot's M: lambda_min(M) >= _lo
        # (M only gains PSD terms, so a past lambda_min stays a lower bound)
        # and lambda_max(M) <= _hi (each term adds at most its trace).
        self._lo = np.zeros(lead + (nslots,))
        self._hi = np.zeros(lead + (nslots,))
        self._eye = np.eye(q)
        self._a_prev: np.ndarray | None = None
        self.n = 0  # time of the last pushed step

    def take(self, rows: list) -> "Detector":
        """A copy of the given rows of a stack, as a stack."""
        stack = copy.copy(self)
        for a in ("_G", "_s", "_M", "_lo", "_hi", "_a_prev"):
            if getattr(self, a) is not None:
                setattr(stack, a, getattr(self, a)[rows])
        stack._k, stack.rows = self._k.copy(), len(rows)
        return stack

    def push_step(self, term: StepTerm) -> None:
        """Fold the step at time n = self.n + 1 into every live candidate of
        every row.

        Every slot is updated, without gathering the live ones: a slot whose
        candidate just left the window, or that was never opened, holds
        values nobody reads until it is reopened.
        """
        n = self.n + 1
        nslots, q = self._k.shape[0], self._eye.shape[0]
        rows = self._lo.size // nslots
        # The arrays with one leading row axis, also for one stream; the
        # ring arrays as views, so writes go through.  A term with another
        # number of rows fails to reshape.
        G = self._G.reshape(rows, nslots, q, q)
        s, M = self._s.reshape(rows, nslots, q), self._M.reshape(rows, nslots, q, q)
        lo, hi = self._lo.reshape(rows, nslots), self._hi.reshape(rows, nslots)
        u, w = term.u.reshape(rows, 1, q, 1), term.w.reshape(rows, 1, q, q)
        if self._a_prev is not None:
            G = self._a_prev.reshape(rows, 1, q, q) @ G
            G += self._eye
            self._G = G.reshape(self._G.shape)
        # Candidate k = n - m1 leaves the window; open k = n - 1 with
        # G(n, n-1) = I.  Its slot held k - m1, already out of the window.
        self._k[n % nslots] = -1
        slot = (n - 1) % nslots
        G[:, slot] = self._eye
        for arr in (s, M, lo, hi):
            arr[:, slot] = 0.0
        self._k[slot] = n - 1
        gt = G.swapaxes(-1, -2)
        s += (gt @ u)[..., 0]
        added = gt @ w @ G
        M += added
        hi += added.trace(axis1=-2, axis2=-1)
        self._a_prev = term.a_tilde
        self.n = n

    def g_next(self, k, rows=None) -> np.ndarray:
        """G(n+1, k) for the sampler's one-step-ahead projection; of a stack,
        one candidate k per row of `rows`, as (len(rows), q, q)."""
        if self._a_prev is None:
            raise RuntimeError("no step pushed yet")
        k = np.asarray(k)
        slot = k % self._k.shape[0]
        if (self._k[slot] != k).any():
            raise KeyError(f"candidate k={k} is not live at n={self.n}")
        lead = () if self.rows is None else (rows,)
        return self._a_prev[lead] @ self._G[lead + (slot,)] + self._eye

    def scan(self) -> ScanResult:
        """Maximize the GLRT over the window of each row; ties go to the most
        recent k.  Rows without an accepted candidate get ScanResult.none's
        0.0, None and NaN."""
        q = self._eye.shape[0]
        slots = self._window_slots()
        ring, accepted = self._screen(slots)
        keep = self._may_win(ring, accepted)
        flat = ring[keep]
        ss = self._s.reshape(-1, q)[flat]
        # Every accepted slot has rcond >= RCOND_SKIP, so inv cannot fail.
        inv = np.linalg.inv(self._M.reshape(-1, q, q)[flat])
        stats = np.einsum("ki,kij,kj->k", ss, inv, ss)
        # einsum sums a q = 2 statistic in one order over a stack of one
        # candidate and in another over a longer stack (_may_win keeps two or
        # more where a stack has two accepted).  So a row with one accepted
        # candidate takes its statistic from a stack of one, as alone.
        for i in np.flatnonzero((accepted.sum(axis=1) == 1)[keep.nonzero()[0]]):
            stats[i] = np.einsum("ki,kij,kj->k", ss[i : i + 1], inv[i : i + 1], ss[i : i + 1])[0]
        if not np.isfinite(stats).all():
            raise NumericalError(f"scan statistic is not finite ({stats.max()})")
        # The statistics laid out as (row, window column), oldest k first,
        # with a column of -inf after the window: a row's best candidate is
        # its last column holding its largest value, so of equal ones the
        # most recent k, and the -inf column for a row without one.
        rows, width = keep.shape
        full = np.full((rows, width + 1), -np.inf)
        full[:, :width][keep] = stats
        best = width - full[:, ::-1].argmax(axis=1)
        hit = best < width
        # Where each hit row's best sits in stats: the kept cells up to it.
        pick = keep.cumsum().reshape(rows, width)[hit, best[hit]] - 1
        result = ScanResult.none(rows, q)
        sigma_f = inv[pick]
        sigma_f = 0.5 * (sigma_f + sigma_f.swapaxes(-1, -2))
        result.t_stat[hit], result.sigma_f[hit] = stats[pick], sigma_f
        result.f_hat[hit] = (sigma_f @ ss[pick][..., None])[..., 0]
        ks = self._k[slots].tolist() + [None]
        result = ScanResult(result.t_stat, tuple(map(ks.__getitem__, best.tolist())),
                            result.f_hat, result.sigma_f)
        return result if self.rows is not None else result.row(0)

    def _may_win(self, ring: np.ndarray, accepted: np.ndarray) -> np.ndarray:
        """The accepted cells of `_screen`'s layout that may hold their row's
        largest statistic, by the _SCREEN_RADIUS interval about S, the
        statistic by solve: those whose upper end reaches the largest lower
        end in their row.  A cell
        whose radius is not below 1, whose S is not finite or whose slot has
        no positive lower bound is kept and bounds no other.  Where a stack
        has two or more accepted cells, two or more are kept."""
        flat = ring[accepted]
        if flat.size < 2:
            return accepted
        q = self._eye.shape[0]
        s = self._s.reshape(-1, q)[flat]
        x = np.linalg.solve(self._M.reshape(-1, q, q)[flat], s[..., None])[..., 0]
        stat = np.einsum("ki,ki->k", s, x)
        lo, hi = self._lo.reshape(-1)[flat], self._hi.reshape(-1)[flat]
        radius = _SCREEN_RADIUS * q * (hi / lo) ** 2
        sure = (lo > 0) & (radius < 1) & np.isfinite(stat)
        rows, width = accepted.shape
        lower = np.full((rows, width + 1), -np.inf)
        lower[:, :width][accepted] = np.where(sure, stat * (1 - radius), -np.inf)
        upper = np.where(sure, stat * (1 + radius), np.inf)
        keep = accepted.copy()
        keep[accepted] = upper >= lower.max(axis=1)[accepted.nonzero()[0]]
        if np.count_nonzero(keep) == 1:
            keep.flat[np.flatnonzero(accepted)[:2]] = True
        return keep

    def _window_slots(self) -> np.ndarray:
        """Slots of the candidates n - m1 < k < n - m2, oldest k first.

        Each of these k is the newest candidate of its residue mod m1, so it
        still owns slot k % m1.
        """
        n, w = self.n, self.window
        ks = np.arange(max(n - w.m1 + 1, 0), max(n - w.m2, 0))
        return ks % self._k.shape[0]

    def _screen(self, slots: np.ndarray) -> tuple:
        """The window slots of every row as (rows, len(slots)) flat indices
        row * m1 + slot into the rows' rings (for one stream, the slots),
        and the mask of those whose M passes the RCOND_SKIP eigenvalue test.

        Slots whose certified bounds already clear the test are accepted as
        they are; only the rest pay for eigvalsh, which also refreshes their
        bounds.
        """
        nslots, q = self._k.shape[0], self._eye.shape[0]
        ring = np.arange(0, self._lo.size, nslots)[:, None] + slots
        lo, hi = self._lo.reshape(-1), self._hi.reshape(-1)  # views
        certified = lo[ring] > _CERTIFY_MARGIN * RCOND_SKIP * hi[ring]
        check = ring[~certified]
        if check.size:
            vals = np.linalg.eigvalsh(self._M.reshape(-1, q, q)[check])
            lo[check] = vals[:, 0]
            hi[check] = np.abs(vals).max(axis=-1)
            certified[~certified] = rcond_from_eigvals(vals) >= RCOND_SKIP
        return ring, certified
