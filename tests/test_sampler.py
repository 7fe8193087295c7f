import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular
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
        with pytest.raises(ValueError, match="^l must be positive"):
            AlphaSchedule(d=0, l=math.nan, alpha_min=0.1, alpha_max=0.5)
        for d in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^d must be a finite number"):
                AlphaSchedule(d=d, l=1.0, alpha_min=0.1, alpha_max=0.5)


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
    radius2 = inputs.radius2
    f_hat = inputs.f_hat
    if radius2 < 1e-12:
        scores = np.einsum("i,nij,j->n", f_hat, om, f_hat)
        return scores, np.broadcast_to(f_hat, (len(om), len(f_hat))).copy()
    b = np.linalg.cholesky(inputs.sigma_f)
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
    return scores, f_stars


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
    """(label, UcrInputs, om stack) batches for one state dimension q."""
    base = make_inputs(rng, q=q, p=q + 3, alpha=0.3)
    yield "all easy", base, _psd_stack(rng, 12, q)
    # Whitening by sigma_f = I is exact, so an om whose top eigendirection is
    # orthogonal to a small f_hat puts the estimate off the top direction:
    # the hard case, when the rest of the spectrum cannot reach the radius.
    top = np.linalg.qr(rng.normal(size=(q, q)))[0][:, 0]
    f_orth = rng.normal(size=q)
    f_orth = 0.05 * (f_orth - (f_orth @ top) * top)
    hard_inputs = replace(base, f_hat=f_orth, sigma_f=np.eye(q))
    mixed = np.concatenate([_psd_stack(rng, 6, q, top=top), _psd_stack(rng, 6, q)])
    yield "mixed", hard_inputs, mixed[rng.permutation(12)]
    yield "all hard", hard_inputs, _psd_stack(rng, 12, q, top=top)
    yield "zero estimate", replace(base, f_hat=np.zeros(q)), _psd_stack(rng, 12, q)
    # For q > 2 no alpha below 1 shrinks radius2 under 1e-12; set it instead.
    vanishing = replace(base)
    vanishing.__dict__["radius2"] = 1e-13
    yield "vanishing radius", vanishing, _psd_stack(rng, 12, q)


class TestNonFiniteScores:
    """A NaN score would win argmax, and no comparison in the solve rejects it."""

    def test_nan_omega_raises(self, rng):
        import pocpd.sampler as sampler

        inputs = make_inputs(rng, q=3, p=6, alpha=0.3)
        inputs.__dict__["radius2"] = 1e-13  # the closed-form branch
        om = _psd_stack(rng, 3, 3)
        om[1, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="candidate 1 is not finite"):
            sampler._boundary_max_array(om, inputs)

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
            sampler._boundary_max_array(_psd_stack(rng, 3, 3), inputs)
        for select, m in ((select_greedy, 2), (select_exhaustive, 2)):
            with pytest.raises(NumericalError, match="is not finite"):
                select(replace(inputs), m)


def _stack(singles):
    """One stacked UcrInputs from single decisions with the same params."""
    stack = UcrInputs(
        f_hat=np.array([s.f_hat for s in singles]),
        sigma_f=np.array([s.sigma_f for s in singles]),
        g_next=np.array([s.g_next for s in singles]),
        p_pred=np.array([s.p_pred for s in singles]),
        params=singles[0].params,
        alpha=np.array([s.alpha for s in singles]),
    )
    stack.__dict__["radius2"] = np.array([s.radius2 for s in singles])
    return stack


def _decision_stack(rng, q, n_dec=7):
    """Single decisions on one model: random ones, a zero estimate (every
    candidate on the hard branch) and a vanishing region."""
    params = random_stable_model(rng, q=q, p=q + 3)
    singles = [
        replace(make_inputs(rng, q, q + 3, float(rng.uniform(0.05, 0.9))), params=params)
        for _ in range(n_dec)
    ]
    singles[2] = replace(singles[2], f_hat=np.zeros(q))
    singles[4] = replace(singles[4])
    singles[4].__dict__["radius2"] = 1e-13
    return singles


class TestStackedDecisions:
    """A stack of R decisions gives each the decision, score and maximizer
    it gets alone, bit for bit: its Newton iteration stops where it would
    alone.  A decision that fails fails the stack."""

    @pytest.mark.parametrize("q", [3, 7, 15])
    def test_stack_equals_single_decisions(self, rng, q):
        for _ in range(4):
            singles = _decision_stack(rng, q)
            for select, m in ((select_greedy, 3), (select_exhaustive, 2)):
                got = select(_stack(singles), m)
                assert len(got) == len(singles)
                for single, decision in zip(singles, got):
                    want = select(single, m)
                    assert decision.mask == want.mask
                    assert np.float64(decision.score).tobytes() == np.float64(want.score).tobytes()
                    assert decision.f_star.tobytes() == want.f_star.tobytes()

    def test_sigma_f_failure_fails_the_stack(self, rng):
        singles = _decision_stack(rng, 3)
        # Decision 4's region vanishes, so its sigma_f is never factored.
        singles[4] = replace(singles[4], sigma_f=-np.eye(3))
        singles[4].__dict__["radius2"] = 1e-13
        assert len(select_greedy(_stack(singles), 2)) == len(singles)
        singles[3] = replace(singles[3], sigma_f=-np.eye(3))
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
                assert got.mask == ref.mask
                assert np.float64(got.score).tobytes() == np.float64(ref.score).tobytes()
                assert got.f_star.tobytes() == ref.f_star.tobytes()
