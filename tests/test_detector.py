import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocpd.detector import (
    RCOND_SKIP,
    Detector,
    ScanResult,
    StepTerm,
    WindowConfig,
    make_step_term,
)
from pocpd.filtering import filter_init, filter_step, rcond_from_eigvals
from pocpd.model import ChangeSpec, simulate_stream
from pocpd.scenarios import benchmark_p10_model

from conftest import random_stable_model


def scalar_term(a_tilde, u, w):
    """A q = 1 step term of a stack of one."""
    return StepTerm(
        a_tilde=np.array([[[a_tilde]]]), u=np.array([[u]]), w=np.array([[[w]]])
    )


def dense_g(terms, k, t):
    """G(t, k) = sum_{s=k+1}^{t} prod_{l=s}^{t-1} A_l   (empty product = I),
    built directly from the definition rather than the recurrence, for the
    stream whose terms are stacks of one."""
    q = terms[0].u.shape[1]
    g = np.zeros((q, q))
    for start in range(k + 1, t + 1):
        prod = np.eye(q)
        for l in range(start, t):
            prod = terms[l - 1].a_tilde[0] @ prod
        g += prod
    return g


def dense_reference(terms, k, n):
    """Independent dense recomputation of (s, M) for candidate k at time n
    of the stream whose terms are stacks of one, from dense_g's G(t, k)."""
    q = terms[0].u.shape[1]
    s_vec = np.zeros(q)
    m_mat = np.zeros((q, q))
    for t in range(k + 1, n + 1):
        g = dense_g(terms, k, t)
        term = terms[t - 1]
        s_vec += g.T @ term.u[0]
        m_mat += g.T @ term.w[0] @ g
    return s_vec, m_mat


class TestWindowConfig:
    def test_ordering_required(self):
        with pytest.raises(ValueError):
            WindowConfig(m1=5, m2=5)
        with pytest.raises(ValueError):
            WindowConfig(m1=5, m2=-1)

    def test_h_must_not_be_nan(self):
        with pytest.raises(ValueError, match="^h must be a number or None"):
            WindowConfig(m1=50, m2=5, h=math.nan)
        assert WindowConfig(m1=50, m2=5, h=math.inf).h == math.inf  # never alarms

    def test_valid(self):
        w = WindowConfig(m1=50, m2=5, h=12.0)
        assert (w.m1, w.m2, w.h) == (50, 5, 12.0)


def slot_candidates(det: Detector) -> np.ndarray:
    """The candidate k each ring slot holds at n: the one of its residue mod
    m1 in n - m1 < k <= n, where k = n is a slot not yet reopened."""
    n, m1 = det.n, det.window.m1
    return n - (n - np.arange(m1)) % m1


def ring(det: Detector, k: int):
    """(G(n+1, k), s, M) of live candidate k of a stack of one, read from the
    ring arrays the way exact_scan reads them."""
    assert 0 <= k < det.n and k > det.n - det.window.m1
    (slot,) = np.flatnonzero(slot_candidates(det) == k)
    return det._G[0, slot], det._s[0, slot], det._M[0, slot]


def pinned_scan(terms, k):
    """scan() of a stack of one at n = len(terms) with the window pinned to
    the single candidate k (n - m1 < k < n - m2 leaves only k)."""
    n = len(terms)
    det = Detector(terms[0].u.shape[1], WindowConfig(m1=n - k + 1, m2=n - k - 1))
    for term in terms:
        det.push_step(term)
    return det.scan()


class TestPushStep:
    def test_first_step_identity(self):
        """At t = k+1, G = I: accumulators are the raw step factors, and the
        next step's G(k+2, k) is a_tilde + I."""
        det = Detector(1, WindowConfig(m1=10, m2=0))
        det.push_step(scalar_term(0.5, u=2.0, w=4.0))
        _, s_vec, m_mat = ring(det, 0)
        assert det.g_next([0], [0])[0, 0, 0] == 1.5
        assert s_vec[0] == 2.0
        assert m_mat[0, 0] == 4.0

    def test_zero_a_tilde_collapses_to_plain_sum(self):
        det = Detector(1, WindowConfig(m1=10, m2=0))
        us = [1.0, -2.0, 0.5]
        for u in us:
            det.push_step(scalar_term(0.0, u=u, w=1.0))
        g_mat, s_vec, m_mat = ring(det, 0)
        assert g_mat[0, 0] == 1.0
        assert s_vec[0] == pytest.approx(sum(us))
        assert m_mat[0, 0] == pytest.approx(3.0)

    def test_constant_half_geometric(self):
        # q=1, A-tilde = 0.5 constant, n + 1 - k = 3: G = 1 + 0.5 + 0.25.
        det = Detector(1, WindowConfig(m1=10, m2=0))
        for _ in range(2):
            det.push_step(scalar_term(0.5, u=0.0, w=1.0))
        assert det.g_next([0], [0])[0, 0, 0] == pytest.approx(1.75)

    def test_eviction(self):
        det = Detector(1, WindowConfig(m1=3, m2=0))
        for _ in range(5):
            det.push_step(scalar_term(0.5, u=1.0, w=1.0))
        # n = 5: valid candidates satisfy k > n - m1 = 2.  k = -1 was never
        # opened, though its slot k % m1 = 2 is the next to open.
        for k in (2, -1, 5):
            with pytest.raises(KeyError):
                det.g_next([k], [0])
        det.g_next([3], [0])
        det.g_next([4], [0])

    def test_matches_dense_reference(self, rng):
        """Incremental ring buffer equals batch recomputation (Eq. oracle)
        for every live candidate, in a ring that never evicts (m1 = 12) and
        in one that wraps over the same 10 steps (m1 = 4): s and M at n, and
        g_next's G(n+1, k)."""
        q = 3
        terms = []
        dets = [Detector(q, WindowConfig(m1=m1, m2=0)) for m1 in (12, 4)]
        for _ in range(10):
            a = 0.8 * rng.normal(size=(q, q)) / np.sqrt(q)
            u = rng.normal(size=q)
            b = rng.normal(size=(q, q))
            terms.append(StepTerm(a_tilde=a[None], u=u[None], w=(b @ b.T)[None]))
            for det in dets:
                det.push_step(terms[-1])
        for det in dets:
            for k in range(max(10 - det.window.m1 + 1, 0), 10):
                _, s_vec, m_mat = ring(det, k)
                s_ref, m_ref = dense_reference(terms, k, 10)
                np.testing.assert_allclose(s_vec, s_ref, atol=1e-8)
                np.testing.assert_allclose(m_mat, m_ref, atol=1e-8)
                g_ref = dense_g(terms, k, 11)
                np.testing.assert_allclose(det.g_next([k], [0])[0], g_ref, atol=1e-8)


class TestEstimateShift:
    """The scan's f_hat and sigma_f at a single pinned candidate."""

    def test_scalar_division(self):
        res = pinned_scan([scalar_term(0.0, u=2.0, w=4.0)], k=0)
        assert res.f_hat[0, 0] == pytest.approx(0.5)
        assert res.sigma_f[0, 0, 0] == pytest.approx(0.25)

    def test_zero_signal(self):
        term = StepTerm(a_tilde=np.zeros((1, 2, 2)), u=np.zeros((1, 2)), w=np.eye(2)[None])
        res = pinned_scan([term], k=0)
        np.testing.assert_array_equal(res.f_hat, 0.0)

    def test_rank_deficient_skipped(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])  # rank 1 in q = 2
        term = StepTerm(a_tilde=np.zeros((1, 2, 2)), u=np.ones((1, 2)), w=w[None])
        res = pinned_scan([term], k=0)
        assert (res.t_stat[0], res.tau_hat) == (0.0, (None,))
        assert np.isnan(res.f_hat).all() and np.isnan(res.sigma_f).all()

    def test_matches_explicit_formula(self, rng):
        """f_hat equals the dense closed form on a random q=3 instance."""
        q = 3
        terms = []
        for _ in range(10):
            a = 0.5 * rng.normal(size=(q, q)) / np.sqrt(q)
            b = rng.normal(size=(q, q + 1))
            terms.append(
                StepTerm(a_tilde=a[None], u=rng.normal(size=q)[None], w=(b @ b.T)[None])
            )
        for k in [0, 4]:
            s_ref, m_ref = dense_reference(terms, k, 10)
            res = pinned_scan(terms, k)
            assert res.tau_hat == (k,)
            np.testing.assert_allclose(res.f_hat[0], np.linalg.solve(m_ref, s_ref), atol=1e-9)
            np.testing.assert_allclose(res.sigma_f[0], np.linalg.inv(m_ref), atol=1e-9)


class TestGlrt:
    """The scan statistic at a single pinned candidate."""

    def test_zero_signal(self):
        assert pinned_scan([scalar_term(0.0, u=0.0, w=1.0)], k=0).t_stat[0] == 0.0

    def test_scalar_closed_form(self):
        # One step, G = 1, C = 1: l = r^2 / V with r = 0.2, V = 0.04.
        # Then u = r / V = 5.0 and w = 1 / V = 25.0.
        res = pinned_scan([scalar_term(0.0, u=0.2 / 0.04, w=1.0 / 0.04)], k=0)
        assert res.t_stat[0] == pytest.approx(1.0, rel=1e-12)

    def test_equals_quadratic_form(self, rng):
        terms = []
        for _ in range(5):
            b = rng.normal(size=(2, 2))
            terms.append(
                StepTerm(
                    a_tilde=0.3 * rng.normal(size=(2, 2))[None],
                    u=rng.normal(size=2)[None],
                    w=(b @ b.T + 0.1 * np.eye(2))[None],
                )
            )
        res = pinned_scan(terms, k=1)
        _, m_ref = dense_reference(terms, 1, 5)
        f_hat = res.f_hat[0]
        assert res.t_stat[0] == pytest.approx(float(f_hat @ m_ref @ f_hat), rel=1e-9)
        assert res.t_stat[0] >= 0


class TestScan:
    def test_empty_window(self):
        det = Detector(1, WindowConfig(m1=10, m2=3))
        det.push_step(scalar_term(0.0, u=1.0, w=1.0))
        res = det.scan()  # n = 1: no candidate k < n - m2 exists
        assert (res.t_stat[0], res.tau_hat) == (0.0, (None,))
        assert np.isnan(res.f_hat).all() and np.isnan(res.sigma_f).all()

    def test_zero_signal_no_alarm(self):
        det = Detector(1, WindowConfig(m1=10, m2=0))
        for _ in range(5):
            det.push_step(scalar_term(0.0, u=0.0, w=1.0))
        res = det.scan()
        assert res.t_stat[0] == 0.0
        np.testing.assert_array_equal(res.f_hat, 0.0)

    def test_argmax_and_threshold(self):
        """Two candidates with statistics 3 and 5: pick the larger.  The
        threshold is run_single's (TestRunOnce in test_calibration.py)."""
        det = Detector(1, WindowConfig(m1=20, m2=0))
        # Candidate k has l = s_k^2 / m_k; with A-tilde = 0, candidate k
        # accumulates the u's of steps k+1..n.
        us = [np.sqrt(3.0), np.sqrt(5.0) - np.sqrt(3.0)]
        det.push_step(scalar_term(0.0, u=us[0], w=0.5))
        det.push_step(scalar_term(0.0, u=us[1], w=0.5))
        # k=0 sums both u's: s = sqrt(5), m = 1 -> l = 5.  k=1: s = u2.
        res = det.scan()
        assert res.tau_hat == (0,)
        assert res.t_stat[0] == pytest.approx(5.0)

    def test_tie_breaks_to_most_recent(self):
        det = Detector(1, WindowConfig(m1=20, m2=0))
        det.push_step(scalar_term(0.0, u=1.0, w=1.0))
        det.push_step(scalar_term(0.0, u=0.0, w=1.0))
        # k=0: s=1, m=2 -> 0.5; k=1: s=0 -> 0.  No tie here; craft one:
        det2 = Detector(1, WindowConfig(m1=20, m2=0))
        det2.push_step(scalar_term(0.0, u=1.0, w=3.0))
        det2.push_step(scalar_term(0.0, u=1.0, w=1.0))
        # k=0: s=2, m=4 -> 1.0 ; k=1: s=1, m=1 -> 1.0  (tie)
        res = det2.scan()
        assert res.t_stat[0] == pytest.approx(1.0)
        assert res.tau_hat == (1,)

    def test_window_bounds_respected(self):
        det = Detector(1, WindowConfig(m1=4, m2=2))
        for _ in range(10):
            det.push_step(scalar_term(0.0, u=1.0, w=1.0))
        # n = 10: candidates k with 6 < k < 8, i.e. only k = 7.
        res = det.scan()
        assert res.tau_hat == (7,)

    def test_localization_on_simulated_change(self, rng):
        """Median tau-hat lands near the true change under full observation."""
        m = benchmark_p10_model(sigma_q=0.1, sigma_r=0.1)
        window = WindowConfig(m1=50, m2=5)
        tau_true = 60
        errs = []
        for rep in range(60):
            f = np.zeros(7)
            f[0] = 0.4
            y, _ = simulate_stream(
                m, ChangeSpec(tau=tau_true, f=f), 100, seed=rng
            )
            state = filter_init(m)
            det = Detector(7, window)
            masks = [list(range(10))]
            for t in range(100):
                state, out = filter_step(state, m, masks, y[t][None])
                det.push_step(make_step_term(out, m.C))
            res = det.scan()
            errs.append(res.tau_hat[0] - tau_true)
        assert abs(float(np.median(errs))) <= 10


def exact_scan(det: Detector) -> tuple[np.ndarray, ScanResult]:
    """Accepted candidates and scan result of a stack of one with the
    eigenvalue screen run on every candidate of the window: the reference
    for the certified screen."""
    n, w = det.n, det.window
    k, (M,), (s,) = slot_candidates(det), det._M, det._s
    valid = (k > n - w.m1) & (k < n - w.m2) & (k >= 0)
    order = np.argsort(k[valid])
    ks, Ms, ss = k[valid][order], M[valid][order], s[valid][order]
    good = rcond_from_eigvals(np.linalg.eigvalsh(Ms)) >= RCOND_SKIP
    if not np.any(good):
        return ks[good], ScanResult.none(1, len(s[0]))
    ks, Ms, ss = ks[good], Ms[good], ss[good]
    inv = np.linalg.inv(Ms)
    stats = np.einsum("ki,kij,kj->k", ss, inv, ss)
    best = np.flatnonzero(stats == stats.max())[-1]
    sigma_f = 0.5 * (inv[best] + inv[best].T)
    return ks, ScanResult(np.array([stats[best]]), (int(ks[best]),), (sigma_f @ ss[best])[None],
                          sigma_f[None])


def scan_rows(scan: ScanResult, rows: list) -> ScanResult:
    """The given rows of a stack's scan, as a stack."""
    return ScanResult(scan.t_stat[rows], tuple(scan.tau_hat[r] for r in rows),
                      scan.f_hat[rows], scan.sigma_f[rows])


def assert_scans_equal(got: ScanResult, want: ScanResult) -> None:
    """Equal scans of a stack: the same candidates, and statistics and
    estimates equal as by ==, with NaN in the same rows."""
    assert got.tau_hat == want.tau_hat
    for name in ("t_stat", "f_hat", "sigma_f"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 4),
    m1=st.integers(2, 14),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_certified_screen_matches_exact(seed, q, m1, data):
    """Same accepted set and bit-identical ScanResult as the exact screen.

    Steps add rank-deficient terms (young candidates then have m * m2 < q
    information), repeat the previous term (repeated masks, which with a zero
    transition never fill the rank) and have rcond from 1 down past 1e-12.
    Scans run on a random subset of steps, so the bounds go stale between.
    """
    m2 = data.draw(st.integers(0, m1 - 1))
    steps = data.draw(st.integers(1, 3 * m1))
    rng = np.random.default_rng(seed)
    det = Detector(q, WindowConfig(m1=m1, m2=m2))
    w = None
    for _ in range(steps):
        if w is None or rng.random() < 0.6:
            rank = int(rng.integers(0, q + 1))
            # Column scales over six decades put the rcond of M on both
            # sides of RCOND_SKIP.
            b = rng.normal(size=(q, rank)) * 10.0 ** rng.uniform(-6, 0, size=rank)
            w = 10.0 ** rng.uniform(-3, 3) * (b @ b.T)
        if rng.random() < 0.3:
            a = np.zeros((q, q))
        else:
            a = rng.uniform(0.0, 0.9) * rng.normal(size=(q, q)) / np.sqrt(q)
        det.push_step(StepTerm(a_tilde=a[None], u=rng.normal(size=q)[None], w=w[None]))
        if rng.random() < 0.3:
            continue
        accepted, ref = exact_scan(det)
        ks = det._window()
        _, screened = det._screen(ks)
        np.testing.assert_array_equal(ks[screened[0]], accepted)
        assert_scans_equal(det.scan(), ref)


def test_certified_bound_follows_growth_of_lambda_max():
    """A term along the strong direction leaves lambda_min where it was and
    pushes rcond below RCOND_SKIP: the stale bound must not accept it."""
    det = Detector(2, WindowConfig(m1=10, m2=0))
    zero = np.zeros((1, 2, 2))
    det.push_step(StepTerm(a_tilde=zero, u=np.ones((1, 2)), w=np.diag([1.0, 3e-10])[None]))
    assert det.scan().tau_hat == (0,)  # rcond 3e-10: accepted, bounds refreshed
    det.push_step(StepTerm(a_tilde=zero, u=np.ones((1, 2)), w=np.diag([10.0, 0.0])[None]))
    accepted, ref = exact_scan(det)
    assert accepted.size == 0  # rcond 2.7e-11 for k = 0, 0 for k = 1
    assert_scans_equal(det.scan(), ref)


class TestMakeStepTerm:
    def test_factors(self, rng):
        m = benchmark_p10_model()
        state = filter_init(m)
        y = rng.normal(size=(1, 3))
        _, out = filter_step(state, m, [[0, 2, 5]], y)
        term = make_step_term(out, m.C)
        c_z = m.C[[0, 2, 5], :]
        vinv = np.linalg.inv(out.v_mat[0])
        np.testing.assert_allclose(term.u[0], c_z.T @ vinv @ out.residual[0], atol=1e-12)
        np.testing.assert_allclose(term.w[0], c_z.T @ vinv @ c_z, atol=1e-12)
        np.testing.assert_array_equal(term.a_tilde[0], out.a_tilde_used[0])


def test_g_next_extends_recurrence(rng):
    q = 2
    det = Detector(q, WindowConfig(m1=10, m2=0))
    a_last = 0.4 * rng.normal(size=(q, q))
    det.push_step(StepTerm(a_tilde=0.2 * np.eye(q)[None], u=np.zeros((1, q)), w=np.eye(q)[None]))
    det.push_step(StepTerm(a_tilde=a_last[None], u=np.zeros((1, q)), w=np.eye(q)[None]))
    # G(2, 0) = 0.2 I + I, so G(3, 0) = a_last G(2, 0) + I.
    np.testing.assert_allclose(det.g_next([0], [0])[0], a_last * 1.2 + np.eye(q), atol=1e-12)
