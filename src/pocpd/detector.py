"""Windowed GLRT change detector.

For every candidate change point k in a sliding window the detector keeps
    G(n, k)   -- accumulated closed-loop propagation of a unit shift,
    s_vec(k)  -- sum of G' C_Z' V^{-1} r over steps k+1..n,
    m_mat(k)  -- sum of G' C_Z' V^{-1} C_Z G over the same steps.
The shift estimate is f_hat = m_mat^{-1} s_vec, and the scan statistic is the
quadratic form s_vec' m_mat^{-1} s_vec maximized over candidates.
"""

from __future__ import annotations

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
# is on eigenvalues, and the statistic uses np.linalg.inv, on purpose:
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
    """Per-step factors feeding the accumulators."""

    a_tilde: np.ndarray  # closed-loop transition of this step, (q, q)
    u: np.ndarray  # C_Z' V^{-1} r, shape (q,)
    w: np.ndarray  # C_Z' V^{-1} C_Z, shape (q, q)


@dataclass(frozen=True)
class ScanResult:
    t_stat: float
    tau_hat: int | None
    f_hat: np.ndarray | None
    sigma_f: np.ndarray | None


def make_step_term(out: StepOutput, C: np.ndarray) -> StepTerm:
    """Fold a filter step output into the detector's per-step factors,
    reusing the filter's Cholesky factor of V."""
    c_z = C[list(out.mask.indices), :]
    vinv_r = dpotrs(out.v_chol, out.residual, lower=1)[0]
    vinv_cz = dpotrs(out.v_chol, c_z, lower=1)[0]
    return StepTerm(a_tilde=out.a_tilde_used, u=c_z.T @ vinv_r, w=c_z.T @ vinv_cz)


class Detector:
    """Ring-buffered accumulators over candidate change points.

    Pure in spirit: one detector belongs to one stream, and steps are pushed
    strictly in time order.
    """

    def __init__(self, q: int, window: WindowConfig):
        self.window = window
        nslots = window.m1  # at most m1 - 1 live candidates
        self._G = np.zeros((nslots, q, q))
        self._s = np.zeros((nslots, q))
        self._M = np.zeros((nslots, q, q))
        self._k = np.full(nslots, -1, dtype=np.int64)
        # Certified eigenvalue bounds of each slot's M: lambda_min(M) >= _lo
        # (M only gains PSD terms, so a past lambda_min stays a lower bound)
        # and lambda_max(M) <= _hi (each term adds at most its trace).
        self._lo = np.zeros(nslots)
        self._hi = np.zeros(nslots)
        self._eye = np.eye(q)
        self._a_prev: np.ndarray | None = None
        self.n = 0  # time of the last pushed step

    def push_step(self, term: StepTerm) -> None:
        """Fold the step at time n = self.n + 1 into every live candidate.

        Every slot is updated, without gathering the live ones: a slot whose
        candidate just left the window, or that was never opened, holds
        values nobody reads until it is reopened.
        """
        n = self.n + 1
        nslots = self._k.shape[0]
        if self._a_prev is not None:
            self._G = self._a_prev @ self._G + self._eye
        # Candidate k = n - m1 leaves the window; open k = n - 1 with
        # G(n, n-1) = I.  Its slot held k - m1, already out of the window.
        self._k[n % nslots] = -1
        slot = (n - 1) % nslots
        self._G[slot] = self._eye
        self._s[slot] = 0.0
        self._M[slot] = 0.0
        self._lo[slot] = 0.0
        self._hi[slot] = 0.0
        self._k[slot] = n - 1
        gt = self._G.transpose(0, 2, 1)
        self._s += gt @ term.u
        added = gt @ term.w @ self._G
        self._M += added
        self._hi += np.trace(added, axis1=1, axis2=2)
        self._a_prev = term.a_tilde
        self.n = n

    def g_next(self, k: int) -> np.ndarray:
        """G(n+1, k) for the sampler's one-step-ahead projection."""
        if self._a_prev is None:
            raise RuntimeError("no step pushed yet")
        slot = k % self._k.shape[0]
        if self._k[slot] != k:
            raise KeyError(f"candidate k={k} is not live at n={self.n}")
        return self._a_prev @ self._G[slot] + self._eye

    def scan(self) -> ScanResult:
        """Maximize the GLRT over the window; ties go to the most recent k."""
        slots = self._accepted(self._window_slots())
        if slots.size == 0:
            return ScanResult(0.0, None, None, None)
        ks, Ms, ss = self._k[slots], self._M[slots], self._s[slots]
        # Every accepted slot has rcond >= RCOND_SKIP, so inv cannot fail.
        inv = np.linalg.inv(Ms)
        stats = np.einsum("ki,kij,kj->k", ss, inv, ss)
        top = stats.max()  # NaN if any statistic is NaN
        if not np.isfinite(top):
            raise NumericalError(f"scan statistic is not finite ({top})")
        best = np.flatnonzero(stats == top)[-1]  # most recent k wins
        t_stat = float(stats[best])
        sigma_f = 0.5 * (inv[best] + inv[best].T)
        return ScanResult(
            t_stat=t_stat,
            tau_hat=int(ks[best]),
            f_hat=sigma_f @ ss[best],
            sigma_f=sigma_f,
        )

    def _window_slots(self) -> np.ndarray:
        """Slots of the candidates n - m1 < k < n - m2, oldest k first.

        Each of these k is the newest candidate of its residue mod m1, so it
        still owns slot k % m1.
        """
        n, w = self.n, self.window
        ks = np.arange(max(n - w.m1 + 1, 0), max(n - w.m2, 0))
        return ks % self._k.shape[0]

    def _accepted(self, slots: np.ndarray) -> np.ndarray:
        """The slots whose M passes the RCOND_SKIP eigenvalue test.

        Slots whose certified bounds already clear the test are accepted as
        they are; only the rest pay for eigvalsh, which also refreshes their
        bounds.
        """
        certified = self._lo[slots] > _CERTIFY_MARGIN * RCOND_SKIP * self._hi[slots]
        check = slots[~certified]
        if check.size:
            vals = np.linalg.eigvalsh(self._M[check])
            self._lo[check] = vals[:, 0]
            self._hi[check] = np.abs(vals).max(axis=-1)
            certified[~certified] = rcond_from_eigvals(vals) >= RCOND_SKIP
        return slots[certified]

