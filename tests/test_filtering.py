import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from pocpd.detector import make_step_term
from pocpd.errors import NumericalError
from pocpd.filtering import filter_init, filter_step
from pocpd.model import (
    ChangeSpec,
    ModelParams,
    ObservationMask,
    simulate_stream,
    stationary_covariance,
)
from pocpd.scenarios import benchmark_p10_model, benchmark_p30_model

from conftest import random_stable_model


def classic_kalman_predictor(params, y_seq):
    """Textbook full-observation one-step Kalman predictor (independent oracle).

    Written in the innovation form x+ = A x + A K (y - C x) to cross-check
    the A(I-KC)x + AKy arrangement used by the library.
    """
    a, c = params.A, params.C
    q_mat = params.state_cov
    r_mat = params.sigma_r**2 * np.eye(params.p)
    x = np.zeros(params.q)
    p = stationary_covariance(a, q_mat)
    xs, ps = [], []
    for y in y_seq:
        v = c @ p @ c.T + r_mat
        k = p @ c.T @ np.linalg.inv(v)
        x = a @ x + a @ k @ (y - c @ x)
        p = a @ (p - k @ c @ p) @ a.T + q_mat
        p = 0.5 * (p + p.T)
        xs.append(x)
        ps.append(p)
    return np.array(xs), np.array(ps)


def cho_wrapper_step(x_pred, p_pred, params, mask, y_obs):
    """filter_step + make_step_term through scipy's cho_factor / cho_solve,
    factoring V once for the filter and once for the step term: the
    reference for the single raw-LAPACK factorization."""
    idx = list(mask.indices)
    c_z = params.C[idx, :]
    v_mat = c_z @ p_pred @ c_z.T + params.sigma_r**2 * np.eye(len(idx))
    v_mat = 0.5 * (v_mat + v_mat.T)
    chol = cho_factor(v_mat, lower=True)
    k_gain = cho_solve(chol, c_z @ p_pred.T).T
    a_tilde = params.A @ (np.eye(params.q) - k_gain @ c_z)
    residual = y_obs - c_z @ x_pred
    x_next = a_tilde @ x_pred + params.A @ (k_gain @ y_obs)
    ak = params.A @ k_gain
    p_next = (
        a_tilde @ p_pred @ a_tilde.T
        + params.sigma_r**2 * (ak @ ak.T)
        + params.state_cov
    )
    p_next = 0.5 * (p_next + p_next.T)
    chol = cho_factor(v_mat, lower=True)
    u = c_z.T @ cho_solve(chol, residual)
    w = c_z.T @ cho_solve(chol, c_z)
    return x_next, p_next, (k_gain, a_tilde, residual, v_mat, u, w)


@pytest.mark.parametrize(
    "model,m",
    [(benchmark_p10_model(), 2), (benchmark_p10_model(), 3), (benchmark_p30_model(), 2)],
)
def test_single_factorization_bit_identical(model, m):
    """Filter and step term equal the cho_factor / cho_solve path exactly."""
    rng = np.random.default_rng(m)
    y, _ = simulate_stream(model, ChangeSpec.none(model.q), 150, seed=rng)
    state = filter_init(model)
    x_ref, p_ref = state.x_pred, state.p_pred
    for t in range(150):
        idx = tuple(sorted(rng.choice(model.p, size=m, replace=False).tolist()))
        mask = ObservationMask(indices=idx, p=model.p)
        state, out = filter_step(state, model, mask, y[t, list(idx)])
        term = make_step_term(out, model.C)
        x_ref, p_ref, ref = cho_wrapper_step(x_ref, p_ref, model, mask, y[t, list(idx)])
        got = (state.k_gain, out.a_tilde_used, out.residual, out.v_mat, term.u, term.w)
        np.testing.assert_array_equal(state.x_pred, x_ref)
        np.testing.assert_array_equal(state.p_pred, p_ref)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)


class TestFilterInit:
    def test_scalar_closed_form(self):
        m = ModelParams(
            A=np.array([[0.5]]), C=np.ones((1, 1)), sigma_q=0.1, sigma_r=0.1
        )
        s = filter_init(m)
        assert s.p_pred[0, 0] == pytest.approx(0.01 / 0.75, rel=1e-9)
        np.testing.assert_array_equal(s.x_pred, 0.0)
        assert s.t == 0

    def test_no_dynamics(self):
        m = ModelParams(
            A=np.zeros((2, 2)), C=np.eye(2), sigma_q=0.2, sigma_r=0.1
        )
        np.testing.assert_allclose(filter_init(m).p_pred, 0.04 * np.eye(2))


class TestFilterStep:
    def test_scalar_worked_example(self):
        """Direct evaluation of the gain/transition/prediction recursion."""
        m = ModelParams(
            A=np.array([[0.5]]), C=np.ones((1, 1)), sigma_q=0.1, sigma_r=0.1
        )
        state = filter_init(m)
        # Overwrite to the worked values P = 1, x = 0.
        state = type(state)(
            x_pred=np.zeros(1), p_pred=np.ones((1, 1)), a_tilde=None, k_gain=None, t=0
        )
        mask = ObservationMask.full(1)
        new, out = filter_step(state, m, mask, np.array([1.0]))
        assert new.k_gain[0, 0] == pytest.approx(1 / 1.01, rel=1e-12)
        assert new.a_tilde[0, 0] == pytest.approx(0.5 * (1 - 1 / 1.01), rel=1e-10)
        assert new.x_pred[0] == pytest.approx(0.5 / 1.01, rel=1e-10)
        assert out.residual[0] == pytest.approx(1.0)
        assert out.v_mat[0, 0] == pytest.approx(1.01)

    def test_zero_innovation_step(self):
        m = benchmark_p10_model()
        state = filter_init(m)
        state = type(state)(
            x_pred=np.arange(1.0, 8.0),
            p_pred=state.p_pred,
            a_tilde=None,
            k_gain=None,
            t=0,
        )
        mask = ObservationMask(indices=(1, 4, 6), p=10)
        y = m.C[list(mask.indices), :] @ state.x_pred
        new, out = filter_step(state, m, mask, y)
        np.testing.assert_allclose(out.residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(new.x_pred, m.A @ state.x_pred, atol=1e-12)

    def test_full_observation_matches_classic_kalman(self, rng):
        for _ in range(20):
            q = int(rng.integers(1, 5))
            p = int(rng.integers(q, q + 3))
            m = random_stable_model(rng, q=q, p=p)
            y, _ = simulate_stream(m, ChangeSpec.none(q), 40, seed=rng)
            state = filter_init(m)
            mask = ObservationMask.full(p)
            xs, ps = [], []
            for t in range(40):
                state, _ = filter_step(state, m, mask, y[t])
                xs.append(state.x_pred)
                ps.append(state.p_pred)
            ref_x, ref_p = classic_kalman_predictor(m, y)
            np.testing.assert_allclose(np.array(xs), ref_x, atol=1e-10)
            np.testing.assert_allclose(np.array(ps), ref_p, atol=1e-10)

    def test_singular_innovation_raises(self):
        m = ModelParams(
            A=np.zeros((1, 1)), C=np.ones((2, 1)), sigma_q=0.0, sigma_r=0.0
        )
        state = filter_init(m)
        with pytest.raises(NumericalError, match="singular"):
            filter_step(state, m, ObservationMask.full(2), np.zeros(2))

    def test_shape_validation(self):
        m = benchmark_p10_model()
        state = filter_init(m)
        with pytest.raises(ValueError):
            filter_step(state, m, ObservationMask(indices=(0, 1), p=10), np.zeros(3))

    def test_p_pred_stays_symmetric_psd(self, rng):
        m = benchmark_p10_model()
        y, _ = simulate_stream(m, ChangeSpec.none(7), 200, seed=rng)
        state = filter_init(m)
        for t in range(200):
            idx = tuple(sorted(rng.choice(10, size=2, replace=False).tolist()))
            mask = ObservationMask(indices=idx, p=10)
            state, out = filter_step(state, m, mask, y[t, list(idx)])
            np.testing.assert_allclose(state.p_pred, state.p_pred.T)
            assert np.min(np.linalg.eigvalsh(state.p_pred)) >= -1e-10
            assert np.min(np.linalg.eigvalsh(out.v_mat)) > 0

    def test_ic_residuals_standardized(self, rng):
        """Standardized innovations are mean 0, covariance I under IC."""
        m = benchmark_p10_model()
        n_steps = 12_000
        y, _ = simulate_stream(m, ChangeSpec.none(7), n_steps, seed=rng)
        state = filter_init(m)
        zs = []
        for t in range(n_steps):
            idx = tuple(sorted(rng.choice(10, size=3, replace=False).tolist()))
            mask = ObservationMask(indices=idx, p=10)
            state, out = filter_step(state, m, mask, y[t, list(idx)])
            vals, vecs = np.linalg.eigh(out.v_mat)
            z = (vecs / np.sqrt(vals)) .T @ out.residual
            zs.append(vecs @ z)
        z = np.array(zs)
        n = z.size
        assert np.all(np.abs(z.mean(axis=0)) < 4.0 / np.sqrt(n_steps))
        cov = z.T @ z / n_steps
        assert np.linalg.norm(cov - np.eye(3)) < 0.05


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_filter_step_is_pure(seed):
    """Same state in, same state out: no hidden mutation."""
    rng = np.random.default_rng(seed)
    m = random_stable_model(rng, q=2, p=3)
    state = filter_init(m)
    mask = ObservationMask(indices=(0, 2), p=3)
    y = rng.normal(size=2)
    s1, o1 = filter_step(state, m, mask, y)
    s2, o2 = filter_step(state, m, mask, y)
    np.testing.assert_array_equal(s1.x_pred, s2.x_pred)
    np.testing.assert_array_equal(s1.p_pred, s2.p_pred)
    np.testing.assert_array_equal(o1.residual, o2.residual)
    assert state.t == 0 and s1.t == 1
