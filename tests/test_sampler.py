import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import chi2

from pocpd.errors import NumericalError
from pocpd.model import ModelParams
from pocpd.sampler import (
    AlphaSchedule,
    UcrInputs,
    adaptive_alpha,
    chi2_quantile,
    omega,
    select_exhaustive,
    select_greedy,
    select_random,
    solve_ellipsoid_max,
)

from conftest import random_stable_model


def make_inputs(rng, q, p, alpha, f_scale=1.0):
    """Random but well-conditioned solver inputs of one decision, as a stack
    of one."""
    params = random_stable_model(rng, q=q, p=p)
    b = rng.normal(size=(q, q))
    sigma_f = b @ b.T + 0.3 * np.eye(q)
    pb = rng.normal(size=(q, q))
    p_pred = pb @ pb.T + 0.1 * np.eye(q)
    return UcrInputs(
        f_hat=f_scale * rng.normal(size=q)[None],
        sigma_f=sigma_f[None],
        g_next=rng.normal(size=(q, q))[None],
        p_pred=p_pred[None],
        params=params,
        alpha=np.array([alpha]),
    )


def assert_same_decisions(got, want):
    """Two selections, each (masks, scores, f_stars), are equal bit for bit."""
    for name, a, b in zip(("masks", "scores", "f_stars"), got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def boundary_residual(inputs, f_star):
    d = f_star - inputs.f_hat[0]
    return abs(float(d @ np.linalg.solve(inputs.sigma_f[0], d)) - inputs.radius2[0])


def brute_force_boundary_max(inputs, omega_z, n_points=20_000, seed=0):
    """Dense sampling of the ellipsoid boundary of a stack of one decision
    (independent oracle)."""
    rng = np.random.default_rng(seed)
    q = inputs.f_hat.shape[1]
    u = rng.normal(size=(n_points, q))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    l_chol = np.linalg.cholesky(inputs.sigma_f[0])
    pts = inputs.f_hat[0] + np.sqrt(inputs.radius2[0]) * u @ l_chol.T
    vals = np.einsum("ni,ij,nj->n", pts, omega_z, pts)
    return float(vals.max())


class TestChi2Quantile:
    def test_against_scipy(self):
        for df in (1, 2, 5, 7, 15):
            for prob in (0.01, 0.5, 0.9, 0.95, 0.999):
                assert chi2_quantile(prob, df) == pytest.approx(
                    chi2.ppf(prob, df), rel=1e-8
                )

    def test_zero(self):
        assert chi2_quantile(0.0, 3) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 3)


class TestAlphaSchedule:
    SCHED = AlphaSchedule(d=15.0, l=6.67, alpha_min=0.1, alpha_max=0.85)

    def test_floor(self):
        assert adaptive_alpha(0.0, self.SCHED) == pytest.approx(0.1)

    def test_cap(self):
        assert adaptive_alpha(100.0, self.SCHED) == pytest.approx(0.85)

    def test_linear_segment(self):
        assert adaptive_alpha(20.0, self.SCHED) == pytest.approx(0.1 + 5 / 6.67)

    @pytest.mark.parametrize("sched", [SCHED, AlphaSchedule(d=0.0, l=1.0, alpha_min=0.1,
                                                            alpha_max=0.5)])
    def test_stack_equals_scalar_form(self, sched):
        """A stack of statistics gets, bit for bit, the scalar form
        min(max((t - d) / l, 0.0) + alpha_min, alpha_max) of each: below d,
        on the linear segment, around the alpha_max cap and at +-0.0 (with
        d = 0, t - d is -0.0 at t = -0.0)."""
        cap = sched.d + (sched.alpha_max - sched.alpha_min) * sched.l
        ts = np.concatenate([
            [-0.0, 0.0, sched.d - 4.0, sched.d, np.nextafter(sched.d, np.inf), 0.5 * (sched.d + cap),
             np.nextafter(cap, -np.inf), cap, np.nextafter(cap, np.inf), cap + 7.0, 1e300],
            np.random.default_rng(5).uniform(sched.d - 5.0, cap + 5.0, 1000),
        ])
        want = np.array([min(max((t - sched.d) / sched.l, 0.0) + sched.alpha_min, sched.alpha_max)
                         for t in ts])
        assert adaptive_alpha(ts, sched).tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaSchedule(d=0, l=1.0, alpha_min=0.9, alpha_max=0.5)
        with pytest.raises(ValueError):
            AlphaSchedule(d=0, l=0.0, alpha_min=0.1, alpha_max=0.5)
        with pytest.raises(ValueError):
            AlphaSchedule(d=0, l=1.0, alpha_min=0.0, alpha_max=0.5)
        with pytest.raises(ValueError, match="^l must be positive"):
            AlphaSchedule(d=0, l=math.nan, alpha_min=0.1, alpha_max=0.5)
        for d in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^d must be a finite number"):
                AlphaSchedule(d=d, l=1.0, alpha_min=0.1, alpha_max=0.5)


class TestUcrInputs:
    def test_single_decision_arrays_rejected_by_name(self, rng):
        """Every array is a stack of R decisions, one decision a stack of
        one: an array without the leading axis, or with another R than
        f_hat's, is named."""
        stack = make_inputs(rng, q=3, p=5, alpha=0.3)
        for name in ("f_hat", "sigma_f", "g_next", "p_pred", "alpha"):
            with pytest.raises(ValueError, match=f"^{name} must be a stack of shape"):
                replace(stack, **{name: getattr(stack, name)[0]})
        with pytest.raises(ValueError, match=r"^alpha must be a stack .* got \(2,\)$"):
            replace(stack, alpha=np.array([0.3, 0.3]))


class TestOmega:
    def test_zero_rows(self):
        params = ModelParams(
            A=0.5 * np.eye(2),
            C=np.vstack([np.eye(2), np.zeros((2, 2))]),
            sigma_q=0.1,
            sigma_r=0.1,
        )
        om = omega((2, 3), np.eye(2), np.eye(2), params)
        np.testing.assert_array_equal(om, 0.0)

    def test_scalar_substitution(self):
        # q=1: C_Z=1, G=2, P=0.5, sigma_r^2=0.5 -> V=1, Omega = 4.
        params = ModelParams(
            A=np.zeros((1, 1)),
            C=np.ones((1, 1)),
            sigma_q=0.1,
            sigma_r=np.sqrt(0.5),
        )
        om = omega(range(1), np.array([[2.0]]), np.array([[0.5]]), params)
        assert om[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_dense_oracle(self, rng):
        for _ in range(20):
            inputs = make_inputs(rng, q=3, p=6, alpha=0.3)
            mask = select_random(6, 3, rng)
            om = omega(mask, inputs.g_next[0], inputs.p_pred[0], inputs.params)
            c_z = inputs.params.C[mask, :]
            v = c_z @ inputs.p_pred[0] @ c_z.T + inputs.params.sigma_r**2 * np.eye(3)
            ref = (
                inputs.g_next[0].T
                @ c_z.T
                @ np.linalg.inv(v)
                @ c_z
                @ inputs.g_next[0]
            )
            np.testing.assert_allclose(om, ref, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(om)) >= -1e-10


class TestSolveEllipsoidMax:
    def _worked_inputs(self):
        # q = 2, Sigma_f = I, radius^2 = 1 via alpha = 1 - F_chi2(1; 2).
        params = ModelParams(
            A=0.5 * np.eye(2), C=np.eye(2), sigma_q=0.1, sigma_r=0.1
        )
        alpha = 1.0 - chi2.cdf(1.0, 2)
        return UcrInputs(
            f_hat=np.array([[1.0, 0.0]]),
            sigma_f=np.eye(2)[None],
            g_next=np.eye(2)[None],
            p_pred=np.eye(2)[None],
            params=params,
            alpha=np.array([alpha]),
        )

    def test_worked_example_exact(self):
        """Known instance: maximizer at f* = (2, 0) with score 8."""
        inputs = self._worked_inputs()
        assert inputs.radius2[0] == pytest.approx(1.0, rel=1e-12)
        (f_star,), (score,) = solve_ellipsoid_max(inputs, np.diag([2.0, 1.0])[None])
        np.testing.assert_allclose(f_star, [2.0, 0.0], atol=1e-8)
        assert score == pytest.approx(8.0, abs=1e-8)

    def test_shrunken_region(self, rng):
        inputs = make_inputs(rng, q=3, p=5, alpha=1 - 1e-15)
        om = omega(range(5), inputs.g_next[0], inputs.p_pred[0], inputs.params)
        (f_star,), (score,) = solve_ellipsoid_max(inputs, om[None])
        # The region radius shrinks to ~1e-5; f* converges to f_hat with it.
        stretch = np.sqrt(np.linalg.eigvalsh(inputs.sigma_f[0])[-1])
        assert np.linalg.norm(f_star - inputs.f_hat[0]) <= 2 * stretch * np.sqrt(
            inputs.radius2[0]
        )
        assert score == pytest.approx(
            float(inputs.f_hat[0] @ om @ inputs.f_hat[0]), rel=1e-3
        )

    def test_brute_force_oracle(self, rng):
        for i in range(50):
            q = int(rng.integers(1, 4))
            inputs = make_inputs(rng, q=q, p=q + 2, alpha=float(rng.uniform(0.05, 0.9)))
            mask = select_random(q + 2, int(rng.integers(1, q + 2)), rng)
            om = omega(mask, inputs.g_next[0], inputs.p_pred[0], inputs.params)
            (f_star,), (score,) = solve_ellipsoid_max(inputs, om[None])
            ref = brute_force_boundary_max(inputs, om, seed=i)
            assert score >= ref - 1e-3 * max(ref, 1e-12)
            assert abs(score - ref) <= 2e-3 * max(ref, 1e-12)
            assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2[0]

    def test_zero_estimate_degenerate(self, rng):
        """f_hat = 0: maximizer is the top eigendirection at full radius."""
        inputs = make_inputs(rng, q=3, p=5, alpha=0.3, f_scale=0.0)
        om = omega(range(5), inputs.g_next[0], inputs.p_pred[0], inputs.params)
        (f_star,), (score,) = solve_ellipsoid_max(inputs, om[None])
        ref = brute_force_boundary_max(inputs, om, seed=99)
        assert score == pytest.approx(ref, rel=2e-3)
        assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2[0]

    def test_orthogonal_top_direction_hard_case(self):
        """Estimate orthogonal to the dominant eigendirection, small radius."""
        params = ModelParams(
            A=0.5 * np.eye(2), C=np.eye(2), sigma_q=0.1, sigma_r=0.1
        )
        alpha = 1.0 - chi2.cdf(0.01, 2)  # radius^2 = 0.01
        inputs = UcrInputs(
            f_hat=np.array([[0.0, 1.0]]),
            sigma_f=np.eye(2)[None],
            g_next=np.eye(2)[None],
            p_pred=np.eye(2)[None],
            params=params,
            alpha=np.array([alpha]),
        )
        om = np.diag([5.0, 1.0])
        (f_star,), (score,) = solve_ellipsoid_max(inputs, om[None])
        ref = brute_force_boundary_max(inputs, om, n_points=200_000, seed=5)
        assert score >= ref - 1e-3 * ref
        assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2[0]

    def test_indefinite_sigma_rejected(self, rng):
        inputs = make_inputs(rng, q=2, p=4, alpha=0.3)
        object.__setattr__(inputs, "sigma_f", -np.eye(2)[None])
        with pytest.raises(NumericalError):
            solve_ellipsoid_max(inputs, np.eye(2)[None])


class TestSelectExhaustive:
    def test_full_mask_when_m_equals_p(self, rng):
        inputs = make_inputs(rng, q=2, p=3, alpha=0.3)
        (mask,), _, _ = select_exhaustive(inputs, 3)
        assert tuple(mask.tolist()) == (0, 1, 2)

    def test_matches_manual_enumeration(self, rng):
        for _ in range(10):
            inputs = make_inputs(rng, q=3, p=6, alpha=0.4)
            (mask,), (got_score,), _ = select_exhaustive(inputs, 2)
            best_score, best_mask = -np.inf, None
            for idx in itertools.combinations(range(6), 2):
                om = omega(idx, inputs.g_next[0], inputs.p_pred[0], inputs.params)
                _, (score,) = solve_ellipsoid_max(inputs, om[None])
                if score > best_score + 1e-12:
                    best_score, best_mask = score, idx
            assert tuple(mask.tolist()) == best_mask
            assert got_score == pytest.approx(best_score, rel=1e-8)

    def test_boundary_feasibility(self, rng):
        inputs = make_inputs(rng, q=3, p=6, alpha=0.2)
        _, _, (f_star,) = select_exhaustive(inputs, 2)
        assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2[0]

    def test_bad_m(self, rng):
        inputs = make_inputs(rng, q=2, p=3, alpha=0.3)
        with pytest.raises(ValueError):
            select_exhaustive(inputs, 0)
        with pytest.raises(ValueError):
            select_exhaustive(inputs, 4)


class TestSelectGreedy:
    def test_m1_equals_exhaustive(self, rng):
        for _ in range(10):
            inputs = make_inputs(rng, q=2, p=6, alpha=0.3)
            (g_mask,), (g_score,), _ = select_greedy(inputs, 1)
            (e_mask,), (e_score,), _ = select_exhaustive(inputs, 1)
            assert g_mask.tobytes() == e_mask.tobytes()
            assert g_score == pytest.approx(e_score, rel=1e-10)

    def test_never_beats_exhaustive(self, rng):
        for _ in range(100):
            inputs = make_inputs(rng, q=3, p=6, alpha=float(rng.uniform(0.1, 0.8)))
            _, (g_score,), _ = select_greedy(inputs, 3)
            _, (e_score,), _ = select_exhaustive(inputs, 3)
            assert g_score <= e_score * (1 + 1e-9) + 1e-12

    def test_subset_free_work_done_once(self, rng, monkeypatch):
        """radius2 and the Cholesky factor of sigma_f do not depend on the
        subset: one chi-square quantile and one factorization per decision,
        however many rounds."""
        import pocpd.sampler as sampler

        calls = {"gammaincinv": 0, "cholesky": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(sampler, "gammaincinv", counted("gammaincinv", sampler.gammaincinv))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        select_greedy(make_inputs(rng, q=3, p=6, alpha=0.3), 3)
        assert calls == {"gammaincinv": 1, "cholesky": 1}

    def test_sigma_f_not_positive_definite(self, rng):
        """Raised on first use, and again on the next: a failure is not cached."""
        inputs = replace(make_inputs(rng, q=3, p=5, alpha=0.3), sigma_f=-np.eye(3)[None])
        for _ in range(2):
            with pytest.raises(NumericalError, match="not positive definite"):
                select_greedy(inputs, 2)

    def test_vanishing_region_skips_factorization(self, rng):
        """With radius2 < 1e-12 the maximizer is f_hat and sigma_f is never
        factored, so even a non-PD sigma_f scores."""
        inputs = replace(make_inputs(rng, q=2, p=5, alpha=1 - 1e-15), sigma_f=-np.eye(2)[None])
        assert inputs.radius2[0] < 1e-12
        _, _, (f_star,) = select_greedy(inputs, 2)
        np.testing.assert_array_equal(f_star, inputs.f_hat[0])


class TestSingularInnovation:
    def test_policies_name_the_singular_mask(self, rng):
        """sigma_r = 0 and all-zero C rows for sensors 0 and 1 make V
        singular for every mask holding either.  The exhaustive scorer meets
        the pair (0, 1) first; the greedy one meets sensor 0 alone in its
        first round."""
        c = rng.normal(size=(5, 3))
        c[:2] = 0.0
        params = ModelParams(A=0.5 * np.eye(3), C=c, sigma_q=0.1, sigma_r=0.0)
        inputs = replace(make_inputs(rng, q=3, p=5, alpha=0.3), params=params)
        with pytest.raises(NumericalError, match=r"singular for mask \(0, 1\)"):
            select_exhaustive(inputs, 2)
        with pytest.raises(NumericalError, match=r"singular for mask \(0,\)"):
            select_greedy(inputs, 2)


class TestSelectRandom:
    def test_full_set(self, rng):
        assert tuple(select_random(4, 4, rng).tolist()) == (0, 1, 2, 3)

    def test_marginal_frequencies(self):
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        n = 100_000
        for _ in range(n):
            for i in select_random(10, 2, rng):
                counts[i] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 0.2) < 0.005)

    def test_subsets_equiprobable(self):
        rng = np.random.default_rng(3)
        counts = {}
        n = 30_000
        for _ in range(n):
            key = tuple(select_random(3, 2, rng).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        observed = np.array([counts[k] for k in sorted(counts)])
        stat = float(((observed - n / 3) ** 2 / (n / 3)).sum())
        assert 1 - chi2.cdf(stat, 2) > 0.01

    @pytest.mark.parametrize("p, m", [(10, 1), (10, 2), (30, 2), (30, 3)])
    def test_draws_equal_sorted_choice(self, p, m):
        """The masks are np.sort(rng.choice(p, m, replace=False)) of a twin
        generator, and both generators end in the same state."""
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(2000):
            want = np.sort(twin.choice(p, size=m, replace=False))
            assert select_random(p, m, rng).tobytes() == want.tobytes()
        assert rng.random() == twin.random()


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(3, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_selections_are_ascending_index_stacks(seed, n_dec, p, data):
    """Every selector returns distinct indices in [0, p), ascending: an
    (R, m) intp stack from the UCR selectors, with (R,) scores and (R, q)
    maximizers, and one (m,) row from select_random."""
    m = data.draw(st.integers(1, p), label="m")
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 5))
    params = random_stable_model(rng, q=q, p=p)
    inputs = _stack([replace(make_inputs(rng, q, p, float(rng.uniform(0.05, 0.9))), params=params)
                     for _ in range(n_dec)])
    for select in (select_greedy, select_exhaustive):
        masks, scores, f_stars = select(inputs, m)
        assert masks.dtype == np.intp and masks.shape == (n_dec, m)
        assert scores.shape == (n_dec,) and f_stars.shape == (n_dec, q)
        assert (masks[:, 0] >= 0).all() and (masks[:, -1] < p).all()
        assert (np.diff(masks, axis=1) > 0).all()
    mask = select_random(p, m, rng)
    assert mask.dtype == np.intp and mask.shape == (m,)
    assert mask[0] >= 0 and mask[-1] < p and (np.diff(mask) > 0).all()


# ---------------------------------------------------------------------------
# Frozen reference scorer.  The arithmetic of the UCR scorer is pinned to the
# last bit (near-ties decide greedy masks), so these copies of its earlier,
# plainer numpy form are the reference that every rewrite must match exactly.


def _ref_secular_sum(x2, d, t):
    denom = d + t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(x2 > 0, x2 / denom**2, 0.0)
    return terms.sum(axis=1)


def _ref_secular_boundary_max(lams, xs, hinv_f, radius2):
    """(f_tilde, scores, hard rows)."""
    n, q = lams.shape
    lmax = lams.max(axis=1)
    d = lmax[:, None] - lams
    scale = np.maximum(np.abs(xs).max(axis=1), 1.0)
    active = np.abs(xs) > 1e-13 * scale[:, None]
    x2 = np.where(active, xs, 0.0) ** 2
    sqrt_c = np.sqrt(radius2)
    with np.errstate(divide="ignore"):
        t_lo = np.max(
            np.where(active, np.abs(xs) / sqrt_c - d, -np.inf), axis=1, initial=-np.inf
        )
    any_active = np.isfinite(t_lo)
    g0 = _ref_secular_sum(x2, d, np.zeros(n))
    hard = (~any_active) | ((t_lo <= 0.0) & (g0 <= radius2))
    t = np.maximum(t_lo, 0.0)
    easy = ~hard
    if np.any(easy):
        t_e = t[easy]
        x2_e, d_e = x2[easy], d[easy]
        t_min = t_e.copy()
        t_max = np.sqrt(x2_e.sum(axis=1) / radius2)
        target = 1.0 / sqrt_c
        for _ in range(40):
            g = _ref_secular_sum(x2_e, d_e, t_e)
            phi = 1.0 / np.sqrt(g)
            denom3 = (d_e + t_e[:, None]) ** 3
            with np.errstate(divide="ignore", invalid="ignore"):
                gprime = np.where(x2_e > 0, x2_e / denom3, 0.0).sum(axis=1)
            dphi = np.power(g, -1.5) * gprime
            step = (target - phi) / dphi
            t_new = np.clip(t_e + step, t_min, t_max)
            if np.all(np.abs(step) <= 1e-13 * (1.0 + t_e)):
                t_e = t_new
                break
            t_e = t_new
        t[easy] = t_e
    denom = d + t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ft = np.where(active & (denom > 0), xs / np.where(denom > 0, denom, 1.0), 0.0)
    for i in np.flatnonzero(hard):
        top = int(np.argmax(lams[i]))
        rest = float((ft[i] ** 2).sum() - ft[i, top] ** 2)
        extra = np.sqrt(max(radius2 - rest, 0.0))
        sign = 1.0 if hinv_f[i, top] >= 0 else -1.0
        ft[i, top] = sign * extra
    scores = (lams * (ft + hinv_f) ** 2).sum(axis=1)
    return ft, scores, hard


def _ref_boundary_max_array(om, inputs, hard_rows=None):
    """The scorer of a stack of one decision: (1, n, q, q) -> ((1, n), (1, n, q))."""
    (om,), (radius2,), (f_hat,), (sigma_f,) = om, inputs.radius2, inputs.f_hat, inputs.sigma_f
    if radius2 < 1e-12:
        scores = np.einsum("i,nij,j->n", f_hat, om, f_hat)
        return scores[None], np.broadcast_to(f_hat, (len(om), len(f_hat))).copy()[None]
    b = np.linalg.cholesky(sigma_f)
    bf = solve_triangular(b, f_hat, lower=True)
    m = b.T @ om @ b
    lams, vecs = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
    floor = -1e-10 * max(float(np.abs(lams).max()), 1.0)
    assert not np.any(lams < floor)
    lams = np.clip(lams, 0.0, None)
    hinv_f = vecs.transpose(0, 2, 1) @ bf
    xs = lams * hinv_f
    ft, scores, hard = _ref_secular_boundary_max(lams, xs, hinv_f, radius2)
    if hard_rows is not None:
        hard_rows.append(hard)
    f_stars = (b @ vecs @ ft[..., None])[..., 0] + f_hat
    return scores[None], f_stars[None]


def _psd_stack(rng, n, q, top=None):
    """n random PSD matrices of random rank; with `top`, each one's dominant
    eigendirection is `top`, over a spectrum well below it."""
    out = []
    for _ in range(n):
        rank = int(rng.integers(1, q + 1))
        a = rng.normal(size=(q, rank))
        om = a @ a.T
        if top is not None:
            proj = np.eye(q) - np.outer(top, top)
            om = proj @ om @ proj
            om = om / np.linalg.eigvalsh(om)[-1] + 10.0 * np.outer(top, top)
        out.append(om)
    return np.array(out)


def _scorer_cases(rng, q):
    """(label, UcrInputs, om stack) batches for one state dimension q: a
    stack of one decision and its (1, 12, q, q) om."""
    base = make_inputs(rng, q=q, p=q + 3, alpha=0.3)
    yield "all easy", base, _psd_stack(rng, 12, q)[None]
    # Whitening by sigma_f = I is exact, so an om whose top eigendirection is
    # orthogonal to a small f_hat puts the estimate off the top direction:
    # the hard case, when the rest of the spectrum cannot reach the radius.
    top = np.linalg.qr(rng.normal(size=(q, q)))[0][:, 0]
    f_orth = rng.normal(size=q)
    f_orth = 0.05 * (f_orth - (f_orth @ top) * top)
    hard_inputs = replace(base, f_hat=f_orth[None], sigma_f=np.eye(q)[None])
    mixed = np.concatenate([_psd_stack(rng, 6, q, top=top), _psd_stack(rng, 6, q)])
    yield "mixed", hard_inputs, mixed[rng.permutation(12)][None]
    yield "all hard", hard_inputs, _psd_stack(rng, 12, q, top=top)[None]
    yield "zero estimate", replace(base, f_hat=np.zeros((1, q))), _psd_stack(rng, 12, q)[None]
    # For q > 2 no alpha below 1 shrinks radius2 under 1e-12; set it instead.
    vanishing = replace(base)
    vanishing.__dict__["radius2"] = np.array([1e-13])
    yield "vanishing radius", vanishing, _psd_stack(rng, 12, q)[None]


class TestNonFiniteScores:
    """A NaN score would win argmax, and no comparison in the solve rejects it."""

    def test_nan_omega_raises(self, rng):
        import pocpd.sampler as sampler

        inputs = make_inputs(rng, q=3, p=6, alpha=0.3)
        inputs.__dict__["radius2"] = np.array([1e-13])  # the closed-form branch
        om = _psd_stack(rng, 3, 3)
        om[1, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="candidate 1 is not finite"):
            sampler._boundary_max_array(om[None], inputs)

    def test_nan_eigenvalue_raises(self, rng, monkeypatch):
        # eigh rejects a NaN omega itself, so the NaN enters at the solve.
        import pocpd.sampler as sampler

        solve = sampler._secular_boundary_max

        def nan_row_1(lams, xs, hinv_f, radius2):
            lams = lams.copy()
            lams[0, 1, 0] = np.nan  # (decision, candidate, eigenvalue)
            return solve(lams, xs, hinv_f, radius2)

        monkeypatch.setattr(sampler, "_secular_boundary_max", nan_row_1)
        inputs = make_inputs(rng, q=3, p=6, alpha=0.3)
        with pytest.raises(NumericalError, match="candidate 1 is not finite"):
            sampler._boundary_max_array(_psd_stack(rng, 3, 3)[None], inputs)
        for select, m in ((select_greedy, 2), (select_exhaustive, 2)):
            with pytest.raises(NumericalError, match="is not finite"):
                select(replace(inputs), m)


def _stack(singles):
    """One UcrInputs stack from stacks of one decision with the same params."""
    stack = UcrInputs(
        f_hat=np.concatenate([s.f_hat for s in singles]),
        sigma_f=np.concatenate([s.sigma_f for s in singles]),
        g_next=np.concatenate([s.g_next for s in singles]),
        p_pred=np.concatenate([s.p_pred for s in singles]),
        params=singles[0].params,
        alpha=np.concatenate([s.alpha for s in singles]),
    )
    stack.__dict__["radius2"] = np.concatenate([s.radius2 for s in singles])
    return stack


def _decision_stack(rng, q, n_dec=7):
    """Decisions on one model, each a stack of one: random ones, a zero
    estimate (every candidate on the hard branch) and a vanishing region."""
    params = random_stable_model(rng, q=q, p=q + 3)
    singles = [
        replace(make_inputs(rng, q, q + 3, float(rng.uniform(0.05, 0.9))), params=params)
        for _ in range(n_dec)
    ]
    singles[2] = replace(singles[2], f_hat=np.zeros((1, q)))
    singles[4] = replace(singles[4])
    singles[4].__dict__["radius2"] = np.array([1e-13])
    return singles


class TestStackedDecisions:
    """A stack of R decisions gives each the decision, score and maximizer
    it gets in a stack of one, bit for bit: its Newton iteration stops where
    it would alone.  A decision that fails fails the stack."""

    @pytest.mark.parametrize("q", [3, 7, 15])
    def test_stack_equals_single_decisions(self, rng, q):
        for _ in range(4):
            singles = _decision_stack(rng, q)
            for select, m in ((select_greedy, 3), (select_exhaustive, 2)):
                got = select(_stack(singles), m)
                assert len(got[0]) == len(singles)
                for r, single in enumerate(singles):
                    assert_same_decisions([a[r : r + 1] for a in got], select(single, m))

    def test_sigma_f_failure_fails_the_stack(self, rng):
        singles = _decision_stack(rng, 3)
        # Decision 4's region vanishes, so its sigma_f is never factored.
        singles[4] = replace(singles[4], sigma_f=-np.eye(3)[None])
        singles[4].__dict__["radius2"] = np.array([1e-13])
        assert len(select_greedy(_stack(singles), 2)[0]) == len(singles)
        singles[3] = replace(singles[3], sigma_f=-np.eye(3)[None])
        with pytest.raises(NumericalError, match="not positive definite"):
            select_greedy(_stack(singles), 2)

    def test_non_finite_score_fails_the_stack(self, rng, monkeypatch):
        import pocpd.sampler as sampler

        solve = sampler._secular_boundary_max

        def nan_in_last(lams, xs, hinv_f, radius2):
            lams = lams.copy()
            lams[-1, 1, 0] = np.nan
            return solve(lams, xs, hinv_f, radius2)

        monkeypatch.setattr(sampler, "_secular_boundary_max", nan_in_last)
        singles = _decision_stack(rng, 3)
        # Decision 4's region vanishes, so the solve sees the other six.
        with pytest.raises(NumericalError, match="candidate 1 is not finite"):
            select_exhaustive(_stack(singles), 2)


def _planted_model(rng, q=4):
    """A random model whose C repeats rows: sensors 0, 3, 5 and 8 share one
    row, 1 and 6 another; the other three are their own."""
    params = random_stable_model(rng, q=q, p=9)
    c = params.C.copy()
    c[[3, 5, 8]] = c[0]
    c[6] = c[1]
    return replace(params, C=c)


def _without_row_classes(inputs):
    """The same decisions on a copy of their model that scores every
    candidate."""
    params = replace(inputs.params)
    params.__dict__["row_classes"] = None
    full = replace(inputs, params=params)
    full.__dict__["radius2"] = inputs.radius2
    return full


def _greedy_round(rng, p, m, n_dec):
    """A greedy round's candidates for n_dec decisions, each with its own
    random chosen set of m - 1 sensors: (n_dec, p - m + 1, m)."""
    rounds = []
    for _ in range(n_dec):
        chosen = rng.choice(p, size=m - 1, replace=False)
        pool = np.setdiff1d(np.arange(p), chosen)
        rounds.append(np.sort(np.column_stack([np.tile(chosen, (len(pool), 1)), pool]), axis=1))
    return np.array(rounds, dtype=np.intp)


class TestDistinctSubsets:
    """A subset's score depends on it only through C_Z, so each distinct
    C_Z of a decision is scored once; every candidate keeps the bits, and
    the decisions the first-index tie-break, of scoring them all."""

    def test_row_classes(self, rng):
        from pocpd.scenarios import benchmark_p10_model, benchmark_p30_model

        assert benchmark_p10_model().row_classes is None
        classes = benchmark_p30_model().row_classes
        assert (classes[:15] == np.arange(15)).all() and (classes[15:] < 15).all()
        np.testing.assert_array_equal(_planted_model(rng).row_classes,
                                      [0, 1, 2, 0, 4, 0, 1, 7, 0])

    @pytest.mark.parametrize("model", ["bench-p30", "planted"])
    @pytest.mark.parametrize("n_dec", [1, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_collapsed_scorer_equals_full_scorer(self, rng, model, n_dec, m):
        import pocpd.sampler as sampler
        from pocpd.scenarios import benchmark_p30_model

        params = benchmark_p30_model() if model == "bench-p30" else _planted_model(rng)
        p, q = params.p, params.q
        singles = [replace(make_inputs(rng, q, p, float(rng.uniform(0.05, 0.9))), params=params)
                   for _ in range(n_dec)]
        for r in range(1, n_dec, 3):  # every candidate on the hard branch
            singles[r] = replace(singles[r], f_hat=np.zeros((1, q)))
        for r in range(2, n_dec, 3):
            singles[r].__dict__["radius2"] = np.array([1e-13])
        inputs = _stack(singles)
        full = _without_row_classes(inputs)
        # Decision 0 of the last set draws every candidate from sensors 0, 3,
        # 5 and 8, which share a row: one distinct subset.
        one = _greedy_round(rng, p, m, n_dec)
        one[0] = np.sort([rng.choice([0, 3, 5, 8], size=m, replace=False)
                          for _ in range(one.shape[1])], axis=1)
        cand_sets = {
            "exhaustive": sampler._combinations(p, m)[None].repeat(n_dec, axis=0),
            "greedy round": _greedy_round(rng, p, m, n_dec),
            "one distinct": one,
        }
        for label, cands in cand_sets.items():
            scores, f_stars = sampler._score_mask_array(cands, inputs)
            want_scores, want_f_stars = sampler._score_mask_array(cands, full)
            assert scores.tobytes() == want_scores.tobytes(), label
            assert f_stars.tobytes() == want_f_stars.tobytes(), label
        for select in (select_greedy, select_exhaustive):
            assert_same_decisions(select(inputs, m), select(full, m))

    @pytest.mark.parametrize("row, named", [(1, 2), (2, 4)])
    def test_non_finite_score_names_first_original_candidate(self, rng, monkeypatch, row, named):
        """Sensors 0 and 1 share a row, and so do 2 and 3: the scorer solves
        the singletons (0,), (2,) and (4,), and a NaN in the solve of one
        of them is named by its first candidate in the full layout."""
        import pocpd.sampler as sampler

        solve = sampler._secular_boundary_max

        def nan_row(lams, xs, hinv_f, radius2):
            assert lams.shape[1] == 3
            lams = lams.copy()
            lams[0, row, 0] = np.nan
            return solve(lams, xs, hinv_f, radius2)

        monkeypatch.setattr(sampler, "_secular_boundary_max", nan_row)
        params = random_stable_model(rng, q=3, p=5)
        c = params.C.copy()
        c[1], c[3] = c[0], c[2]
        inputs = replace(make_inputs(rng, q=3, p=5, alpha=0.3), params=replace(params, C=c))
        with pytest.raises(NumericalError, match=f"^UCR score of candidate {named} is not finite$"):
            sampler._score_mask_array(sampler._combinations(5, 1)[None], inputs)

    def test_scorer_receives_each_distinct_subset_once(self, rng, monkeypatch):
        """bench-p10's rows all differ, so the scorer gets every C(10, 2)
        subset and every greedy candidate; of bench-p30's C(30, 3) = 4,060
        subsets it gets the 1,665 with distinct C_Z, each decision's."""
        import pocpd.sampler as sampler
        from pocpd.scenarios import benchmark_p10_model, benchmark_p30_model

        omega_array = sampler._omega_array
        seen = []

        def record(mask_idx, *args):
            seen.append(mask_idx.copy())
            return omega_array(mask_idx, *args)

        monkeypatch.setattr(sampler, "_omega_array", record)

        def decisions(params, n_dec):
            singles = [replace(make_inputs(rng, params.q, params.p, 0.3), params=params)
                       for _ in range(n_dec)]
            return _stack(singles)

        p10 = benchmark_p10_model()
        select_exhaustive(decisions(p10, 3), 2)
        (got,) = seen
        np.testing.assert_array_equal(got, sampler._combinations(10, 2)[None].repeat(3, axis=0))
        seen.clear()
        select_greedy(decisions(p10, 3), 3)
        assert [s.shape for s in seen] == [(3, 10, 1), (3, 9, 2), (3, 8, 3)]

        p30 = benchmark_p30_model()
        seen.clear()
        select_exhaustive(decisions(p30, 2), 3)
        (got,) = seen
        assert got.shape == (2, 1665, 3)
        keys = p30.row_classes[got[0]]
        assert len(np.unique(keys, axis=0)) == 1665
        np.testing.assert_array_equal(got[1], got[0])
        assert sampler.distinct_subsets(p30, 3) == 1665
        assert sampler.distinct_subsets(p30, 2) == 184
        assert sampler.distinct_subsets(p10, 2) == 45


class TestFrozenReference:
    """The scorer, greedy and exhaustive decisions equal the frozen
    reference bit for bit."""

    @pytest.mark.parametrize("q", [3, 7, 15])
    def test_scores_and_maximizers_bit_identical(self, rng, q):
        import pocpd.sampler as sampler

        hard_counts = {}
        for _ in range(4):
            for label, inputs, om in _scorer_cases(rng, q):
                hard = []
                ref_scores, ref_f = _ref_boundary_max_array(om, inputs, hard)
                scores, f_stars = sampler._boundary_max_array(om, inputs)
                assert np.array_equal(scores, ref_scores), label
                assert np.array_equal(f_stars, ref_f), label
                if hard:
                    hard_counts[label] = hard_counts.get(label, 0) + int(hard[0].sum())
        # Every branch of the secular solve was reached.
        assert hard_counts["all easy"] == 0
        assert 0 < hard_counts["mixed"] < 4 * 12
        assert hard_counts["all hard"] == hard_counts["zero estimate"] == 4 * 12

    @pytest.mark.parametrize("q", [3, 7, 15])
    def test_decisions_bit_identical(self, rng, q, monkeypatch):
        import pocpd.sampler as sampler

        for _ in range(6):
            inputs = make_inputs(rng, q=q, p=q + 3, alpha=float(rng.uniform(0.05, 0.9)))
            for select, m in ((select_greedy, 3), (select_exhaustive, 2)):
                got = select(replace(inputs), m)
                with monkeypatch.context() as mp:
                    mp.setattr(sampler, "_boundary_max_array", _ref_boundary_max_array)
                    ref = select(replace(inputs), m)
                assert_same_decisions(got, ref)
