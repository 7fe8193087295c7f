import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from pocpd.errors import NumericalError
from pocpd.model import ModelParams, ObservationMask
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
    """Random but well-conditioned solver inputs."""
    params = random_stable_model(rng, q=q, p=p)
    b = rng.normal(size=(q, q))
    sigma_f = b @ b.T + 0.3 * np.eye(q)
    pb = rng.normal(size=(q, q))
    p_pred = pb @ pb.T + 0.1 * np.eye(q)
    return UcrInputs(
        f_hat=f_scale * rng.normal(size=q),
        sigma_f=sigma_f,
        g_next=rng.normal(size=(q, q)),
        p_pred=p_pred,
        params=params,
        alpha=alpha,
    )


def boundary_residual(inputs, f_star):
    d = f_star - inputs.f_hat
    return abs(float(d @ np.linalg.solve(inputs.sigma_f, d)) - inputs.radius2)


def brute_force_boundary_max(inputs, omega_z, n_points=20_000, seed=0):
    """Dense sampling of the ellipsoid boundary (independent oracle)."""
    rng = np.random.default_rng(seed)
    q = len(inputs.f_hat)
    u = rng.normal(size=(n_points, q))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    l_chol = np.linalg.cholesky(inputs.sigma_f)
    pts = inputs.f_hat + np.sqrt(inputs.radius2) * u @ l_chol.T
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

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaSchedule(d=0, l=1.0, alpha_min=0.9, alpha_max=0.5)
        with pytest.raises(ValueError):
            AlphaSchedule(d=0, l=0.0, alpha_min=0.1, alpha_max=0.5)
        with pytest.raises(ValueError):
            AlphaSchedule(d=0, l=1.0, alpha_min=0.0, alpha_max=0.5)


class TestOmega:
    def test_zero_rows(self):
        params = ModelParams(
            A=0.5 * np.eye(2),
            C=np.vstack([np.eye(2), np.zeros((2, 2))]),
            sigma_q=0.1,
            sigma_r=0.1,
        )
        mask = ObservationMask(indices=(2, 3), p=4)
        om = omega(mask, np.eye(2), np.eye(2), params)
        np.testing.assert_array_equal(om, 0.0)

    def test_scalar_substitution(self):
        # q=1: C_Z=1, G=2, P=0.5, sigma_r^2=0.5 -> V=1, Omega = 4.
        params = ModelParams(
            A=np.zeros((1, 1)),
            C=np.ones((1, 1)),
            sigma_q=0.1,
            sigma_r=np.sqrt(0.5),
        )
        om = omega(
            ObservationMask.full(1), np.array([[2.0]]), np.array([[0.5]]), params
        )
        assert om[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_dense_oracle(self, rng):
        for _ in range(20):
            inputs = make_inputs(rng, q=3, p=6, alpha=0.3)
            mask = select_random(6, 3, rng)
            om = omega(mask, inputs.g_next, inputs.p_pred, inputs.params)
            c_z = inputs.params.C[list(mask.indices), :]
            v = c_z @ inputs.p_pred @ c_z.T + inputs.params.sigma_r**2 * np.eye(3)
            ref = (
                inputs.g_next.T
                @ c_z.T
                @ np.linalg.inv(v)
                @ c_z
                @ inputs.g_next
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
            f_hat=np.array([1.0, 0.0]),
            sigma_f=np.eye(2),
            g_next=np.eye(2),
            p_pred=np.eye(2),
            params=params,
            alpha=alpha,
        )

    def test_worked_example_exact(self):
        """Known instance: maximizer at f* = (2, 0) with score 8."""
        inputs = self._worked_inputs()
        assert inputs.radius2 == pytest.approx(1.0, rel=1e-12)
        f_star, score = solve_ellipsoid_max(inputs, np.diag([2.0, 1.0]))
        np.testing.assert_allclose(f_star, [2.0, 0.0], atol=1e-8)
        assert score == pytest.approx(8.0, abs=1e-8)

    def test_shrunken_region(self, rng):
        inputs = make_inputs(rng, q=3, p=5, alpha=1 - 1e-15)
        om = omega(
            ObservationMask.full(5), inputs.g_next, inputs.p_pred, inputs.params
        )
        f_star, score = solve_ellipsoid_max(inputs, om)
        # The region radius shrinks to ~1e-5; f* converges to f_hat with it.
        stretch = np.sqrt(np.linalg.eigvalsh(inputs.sigma_f)[-1])
        assert np.linalg.norm(f_star - inputs.f_hat) <= 2 * stretch * np.sqrt(
            inputs.radius2
        )
        assert score == pytest.approx(
            float(inputs.f_hat @ om @ inputs.f_hat), rel=1e-3
        )

    def test_brute_force_oracle(self, rng):
        for i in range(50):
            q = int(rng.integers(1, 4))
            inputs = make_inputs(rng, q=q, p=q + 2, alpha=float(rng.uniform(0.05, 0.9)))
            mask = select_random(q + 2, int(rng.integers(1, q + 2)), rng)
            om = omega(mask, inputs.g_next, inputs.p_pred, inputs.params)
            f_star, score = solve_ellipsoid_max(inputs, om)
            ref = brute_force_boundary_max(inputs, om, seed=i)
            assert score >= ref - 1e-3 * max(ref, 1e-12)
            assert abs(score - ref) <= 2e-3 * max(ref, 1e-12)
            assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2

    def test_zero_estimate_degenerate(self, rng):
        """f_hat = 0: maximizer is the top eigendirection at full radius."""
        inputs = make_inputs(rng, q=3, p=5, alpha=0.3, f_scale=0.0)
        om = omega(
            ObservationMask.full(5), inputs.g_next, inputs.p_pred, inputs.params
        )
        f_star, score = solve_ellipsoid_max(inputs, om)
        ref = brute_force_boundary_max(inputs, om, seed=99)
        assert score == pytest.approx(ref, rel=2e-3)
        assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2

    def test_orthogonal_top_direction_hard_case(self):
        """Estimate orthogonal to the dominant eigendirection, small radius."""
        params = ModelParams(
            A=0.5 * np.eye(2), C=np.eye(2), sigma_q=0.1, sigma_r=0.1
        )
        alpha = 1.0 - chi2.cdf(0.01, 2)  # radius^2 = 0.01
        inputs = UcrInputs(
            f_hat=np.array([0.0, 1.0]),
            sigma_f=np.eye(2),
            g_next=np.eye(2),
            p_pred=np.eye(2),
            params=params,
            alpha=alpha,
        )
        om = np.diag([5.0, 1.0])
        f_star, score = solve_ellipsoid_max(inputs, om)
        ref = brute_force_boundary_max(inputs, om, n_points=200_000, seed=5)
        assert score >= ref - 1e-3 * ref
        assert boundary_residual(inputs, f_star) <= 1e-6 * inputs.radius2

    def test_indefinite_sigma_rejected(self, rng):
        inputs = make_inputs(rng, q=2, p=4, alpha=0.3)
        object.__setattr__(inputs, "sigma_f", -np.eye(2))
        with pytest.raises(NumericalError):
            solve_ellipsoid_max(inputs, np.eye(2))


class TestSelectExhaustive:
    def test_full_mask_when_m_equals_p(self, rng):
        inputs = make_inputs(rng, q=2, p=3, alpha=0.3)
        decision = select_exhaustive(inputs, 3)
        assert decision.mask.indices == (0, 1, 2)

    def test_matches_manual_enumeration(self, rng):
        for _ in range(10):
            inputs = make_inputs(rng, q=3, p=6, alpha=0.4)
            decision = select_exhaustive(inputs, 2)
            best_score, best_mask = -np.inf, None
            for idx in itertools.combinations(range(6), 2):
                mask = ObservationMask(indices=idx, p=6)
                om = omega(mask, inputs.g_next, inputs.p_pred, inputs.params)
                _, score = solve_ellipsoid_max(inputs, om)
                if score > best_score + 1e-12:
                    best_score, best_mask = score, idx
            assert decision.mask.indices == best_mask
            assert decision.score == pytest.approx(best_score, rel=1e-8)

    def test_boundary_feasibility(self, rng):
        inputs = make_inputs(rng, q=3, p=6, alpha=0.2)
        decision = select_exhaustive(inputs, 2)
        assert boundary_residual(inputs, decision.f_star) <= 1e-6 * inputs.radius2
        assert decision.alpha_used == inputs.alpha

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
            g = select_greedy(inputs, 1)
            e = select_exhaustive(inputs, 1)
            assert g.mask.indices == e.mask.indices
            assert g.score == pytest.approx(e.score, rel=1e-10)

    def test_never_beats_exhaustive(self, rng):
        for _ in range(100):
            inputs = make_inputs(rng, q=3, p=6, alpha=float(rng.uniform(0.1, 0.8)))
            g = select_greedy(inputs, 3)
            e = select_exhaustive(inputs, 3)
            assert g.score <= e.score * (1 + 1e-9) + 1e-12

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
        inputs = replace(make_inputs(rng, q=3, p=5, alpha=0.3), sigma_f=-np.eye(3))
        for _ in range(2):
            with pytest.raises(NumericalError, match="not positive definite"):
                select_greedy(inputs, 2)

    def test_vanishing_region_skips_factorization(self, rng):
        """With radius2 < 1e-12 the maximizer is f_hat and sigma_f is never
        factored, so even a non-PD sigma_f scores."""
        inputs = replace(make_inputs(rng, q=2, p=5, alpha=1 - 1e-15), sigma_f=-np.eye(2))
        assert inputs.radius2 < 1e-12
        decision = select_greedy(inputs, 2)
        np.testing.assert_array_equal(decision.f_star, inputs.f_hat)


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
        assert select_random(4, 4, rng).indices == (0, 1, 2, 3)

    def test_marginal_frequencies(self):
        rng = np.random.default_rng(11)
        counts = np.zeros(10)
        n = 100_000
        for _ in range(n):
            for i in select_random(10, 2, rng).indices:
                counts[i] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 0.2) < 0.005)

    def test_subsets_equiprobable(self):
        rng = np.random.default_rng(3)
        counts = {}
        n = 30_000
        for _ in range(n):
            key = select_random(3, 2, rng).indices
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        observed = np.array([counts[k] for k in sorted(counts)])
        stat = float(((observed - n / 3) ** 2 / (n / 3)).sum())
        assert 1 - chi2.cdf(stat, 2) > 0.01
