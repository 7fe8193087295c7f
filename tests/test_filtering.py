import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

import pocpd.filtering

from pocpd.detector import make_step_term
from pocpd.errors import NumericalError
from pocpd.filtering import FilterState, filter_init, filter_step, innovation_singular
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
    return x_next, p_next, (a_tilde, residual, v_mat, u, w)


@pytest.mark.parametrize(
    "model,m",
    [(benchmark_p10_model(), 2), (benchmark_p10_model(), 3), (benchmark_p30_model(), 2)],
)
def test_single_factorization_bit_identical(model, m):
    """Filter and step term equal the cho_factor / cho_solve path exactly."""
    rng = np.random.default_rng(m)
    y, _ = simulate_stream(model, ChangeSpec.none(model.q), 150, seed=rng)
    state = filter_init(model)
    x_ref, p_ref = state.x_pred[0], state.p_pred[0]
    for t in range(150):
        idx = tuple(sorted(rng.choice(model.p, size=m, replace=False).tolist()))
        mask = ObservationMask(indices=idx, p=model.p)
        state, out = filter_step(state, model, [idx], y[t, list(idx)][None])
        term = make_step_term(out, model.C)
        x_ref, p_ref, ref = cho_wrapper_step(x_ref, p_ref, model, mask, y[t, list(idx)])
        got = (out.a_tilde_used[0], out.residual[0], out.v_mat[0], term.u[0], term.w[0])
        np.testing.assert_array_equal(state.x_pred[0], x_ref)
        np.testing.assert_array_equal(state.p_pred[0], p_ref)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)


def per_row_step(x_pred, p_pred, params, idx, y_obs):
    """One row's Kalman step through per-matrix LAPACK calls, as the filter
    ran before it was stacked; also V^{-1} [r, C_Z] from a solve of its own,
    as the step term computed it."""
    c_z = params.C[idx, :]
    v_mat = c_z @ p_pred @ c_z.T + params.obs_cov[: len(idx), : len(idx)]
    v_mat = 0.5 * (v_mat + v_mat.T)
    chol, info = dpotrf(v_mat, lower=1, clean=0)
    assert info == 0
    k_gain = dpotrs(chol, c_z @ p_pred.T, lower=1, overwrite_b=1)[0].T
    a_tilde = params.A @ (params.identity - k_gain @ c_z)
    residual = y_obs - c_z @ x_pred
    x_next = a_tilde @ x_pred + params.A @ (k_gain @ y_obs)
    ak = params.A @ k_gain
    p_next = a_tilde @ p_pred @ a_tilde.T + params.sigma_r**2 * (ak @ ak.T) + params.state_cov
    p_next = 0.5 * (p_next + p_next.T)
    solved = dpotrs(chol, np.concatenate([residual[:, None], c_z], axis=1), lower=1)[0]
    return x_next, p_next, (residual, a_tilde, chol, solved)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 7, 15])
def test_stack_rows_equal_stacks_of_one(q, m):
    """Over 60 steps of random masks, each row of a stack of R = 4 or 25
    equals that row filtered as a stack of one, byte for byte, and both
    equal the per-row reference step in x, P, the residual, a_tilde, the
    Cholesky factor and V^{-1} [r, C_Z] (the fused solve against one of its
    own).  q = 7 and 15 are bench-p10 and bench-p30, whose C repeats rows."""
    rng = np.random.default_rng(100 * q + m)
    model = {3: random_stable_model(rng, q=3, p=5), 7: benchmark_p10_model(),
             15: benchmark_p30_model()}[q]
    rows, steps = 25, 60
    masks = np.sort([[rng.choice(model.p, size=m, replace=False) for _ in range(rows)]
                     for _ in range(steps)], axis=-1)
    y = rng.normal(size=(steps, rows, m))
    stacks = {n: filter_init(model, rows=n) for n in (1, 4, 25)}
    alone = [filter_init(model) for _ in range(rows)]
    ref = [(np.zeros(q), model.stationary_cov) for _ in range(rows)]
    for t in range(steps):
        outs = {}
        for n in stacks:
            stacks[n], outs[n] = filter_step(stacks[n], model, masks[t, :n], y[t, :n])
        for r in range(rows):
            alone[r], one = filter_step(alone[r], model, masks[t, r : r + 1], y[t, r : r + 1])
            got = (alone[r].x_pred[0], alone[r].p_pred[0], one.residual[0],
                   one.a_tilde_used[0], one.v_chol[0], one.v_solved[0])
            x, p, (residual, a_tilde, chol, solved) = per_row_step(*ref[r], model, masks[t, r],
                                                                   y[t, r])
            ref[r] = x, p
            for g, want in zip(got, (x, p, residual, a_tilde, chol, solved)):
                np.testing.assert_array_equal(g, want)
            for n, out in outs.items():
                if r < n:
                    row = (stacks[n].x_pred[r], stacks[n].p_pred[r], out.residual[r],
                           out.a_tilde_used[r], out.v_chol[r], out.v_solved[r])
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(row, got))


class TestFilterInit:
    def test_scalar_closed_form(self):
        m = ModelParams(
            A=np.array([[0.5]]), C=np.ones((1, 1)), sigma_q=0.1, sigma_r=0.1
        )
        s = filter_init(m)
        assert s.p_pred[0, 0, 0] == pytest.approx(0.01 / 0.75, rel=1e-9)
        np.testing.assert_array_equal(s.x_pred, 0.0)
        assert s.t == 0

    def test_no_dynamics(self):
        m = ModelParams(
            A=np.zeros((2, 2)), C=np.eye(2), sigma_q=0.2, sigma_r=0.1
        )
        np.testing.assert_allclose(filter_init(m).p_pred, 0.04 * np.eye(2)[None])

    def test_rows(self):
        m = benchmark_p10_model()
        s = filter_init(m, rows=3)
        assert s.x_pred.shape == (3, 7) and s.t == 0
        np.testing.assert_array_equal(s.x_pred, 0.0)
        np.testing.assert_array_equal(s.p_pred, np.stack([m.stationary_cov] * 3))


class TestFilterStep:
    def test_scalar_worked_example(self):
        """Direct evaluation of the gain/transition/prediction recursion."""
        m = ModelParams(
            A=np.array([[0.5]]), C=np.ones((1, 1)), sigma_q=0.1, sigma_r=0.1
        )
        # The worked values P = 1, x = 0.
        state = FilterState(x_pred=np.zeros((1, 1)), p_pred=np.ones((1, 1, 1)), t=0)
        new, out = filter_step(state, m, [[0]], np.array([[1.0]]))
        # K = P C' V^{-1} = 1 / 1.01, so A-tilde = A (1 - K C) and x+ = A K y.
        assert out.a_tilde_used[0, 0, 0] == pytest.approx(0.5 * (1 - 1 / 1.01), rel=1e-10)
        assert new.x_pred[0, 0] == pytest.approx(0.5 / 1.01, rel=1e-10)
        assert out.residual[0, 0] == pytest.approx(1.0)
        assert out.v_mat[0, 0, 0] == pytest.approx(1.01)

    def test_zero_innovation_step(self):
        m = benchmark_p10_model()
        state = filter_init(m)
        state = FilterState(x_pred=np.arange(1.0, 8.0)[None], p_pred=state.p_pred, t=0)
        idx = [1, 4, 6]
        y = m.C[idx, :] @ state.x_pred[0]
        new, out = filter_step(state, m, [idx], y[None])
        np.testing.assert_allclose(out.residual, 0.0, atol=1e-12)
        np.testing.assert_allclose(new.x_pred[0], m.A @ state.x_pred[0], atol=1e-12)

    def test_full_observation_matches_classic_kalman(self, rng):
        for _ in range(20):
            q = int(rng.integers(1, 5))
            p = int(rng.integers(q, q + 3))
            m = random_stable_model(rng, q=q, p=p)
            y, _ = simulate_stream(m, ChangeSpec.none(q), 40, seed=rng)
            state = filter_init(m)
            masks = [list(range(p))]
            xs, ps = [], []
            for t in range(40):
                state, _ = filter_step(state, m, masks, y[t][None])
                xs.append(state.x_pred[0])
                ps.append(state.p_pred[0])
            ref_x, ref_p = classic_kalman_predictor(m, y)
            np.testing.assert_allclose(np.array(xs), ref_x, atol=1e-10)
            np.testing.assert_allclose(np.array(ps), ref_p, atol=1e-10)

    def test_singular_innovation_raises(self):
        m = ModelParams(
            A=np.zeros((1, 1)), C=np.ones((2, 1)), sigma_q=0.0, sigma_r=0.0
        )
        state = filter_init(m)
        with pytest.raises(NumericalError, match="singular"):
            filter_step(state, m, [[0, 1]], np.zeros((1, 2)))

    def test_singular_row_is_named(self):
        """Of three rows, the last two singular: the error names the first
        of them, with its mask in Python ints."""
        m = ModelParams(
            A=np.zeros((2, 2)), C=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]),
            sigma_q=0.0, sigma_r=0.0,
        )
        state = FilterState(np.zeros((3, 2)), np.stack([np.eye(2)] * 3), t=4)
        with pytest.raises(NumericalError,
                           match=r"^innovation covariance singular at step t=5 \(mask \(0, 2\)\)$"):
            filter_step(state, m, [[0, 1], [0, 2], [0, 2]], np.zeros((3, 2)))

    def test_failed_factor_is_named(self, monkeypatch):
        """dpotrf fails on the second of three rows: a NumericalError names
        the step and that row's mask, not a bare LinAlgError."""
        m = benchmark_p10_model()
        calls = []

        def failing(v, **kwargs):
            calls.append(v)
            chol, info = dpotrf(v, **kwargs)
            return chol, 2 if len(calls) == 2 else info

        monkeypatch.setattr(pocpd.filtering, "dpotrf", failing)
        with pytest.raises(NumericalError, match=r"^innovation covariance not positive "
                           r"definite \(leading minor 2\) at step t=1 \(mask \(3, 8\)\)$"):
            filter_step(filter_init(m, rows=3), m, [[0, 1], [3, 8], [2, 4]], np.zeros((3, 2)))

    def test_shape_validation(self):
        m = benchmark_p10_model()
        state = filter_init(m)
        with pytest.raises(ValueError):
            filter_step(state, m, [(0, 1)], np.zeros((1, 3)))

    @pytest.mark.parametrize("masks,y_obs", [
        ([0, 1], np.zeros(2)),  # not a stack
        ([[0, 1], [2, 3]], np.zeros((2, 2))),  # more rows than the state
        ([[0, 10]], np.zeros((1, 2))),  # index past p
        ([[-1, 2]], np.zeros((1, 2))),  # negative index
    ])
    def test_malformed_masks(self, masks, y_obs):
        m = benchmark_p10_model()
        with pytest.raises(ValueError, match=r"must both be \(R, m\), R = 1$"):
            filter_step(filter_init(m), m, masks, y_obs)

    def test_p_pred_stays_symmetric_psd(self, rng):
        m = benchmark_p10_model()
        y, _ = simulate_stream(m, ChangeSpec.none(7), 200, seed=rng)
        state = filter_init(m)
        for t in range(200):
            idx = sorted(rng.choice(10, size=2, replace=False).tolist())
            state, out = filter_step(state, m, [idx], y[t, idx][None])
            np.testing.assert_allclose(state.p_pred[0], state.p_pred[0].T)
            assert np.min(np.linalg.eigvalsh(state.p_pred[0])) >= -1e-10
            assert np.min(np.linalg.eigvalsh(out.v_mat[0])) > 0

    def test_ic_residuals_standardized(self, rng):
        """Standardized innovations are mean 0, covariance I under IC."""
        m = benchmark_p10_model()
        n_steps = 12_000
        y, _ = simulate_stream(m, ChangeSpec.none(7), n_steps, seed=rng)
        state = filter_init(m)
        zs = []
        for t in range(n_steps):
            idx = sorted(rng.choice(10, size=3, replace=False).tolist())
            state, out = filter_step(state, m, [idx], y[t, idx][None])
            vals, vecs = np.linalg.eigh(out.v_mat[0])
            z = (vecs / np.sqrt(vals)) .T @ out.residual[0]
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
    masks = [[0, 2]]
    y = rng.normal(size=(1, 2))
    s1, o1 = filter_step(state, m, masks, y)
    s2, o2 = filter_step(state, m, masks, y)
    np.testing.assert_array_equal(s1.x_pred, s2.x_pred)
    np.testing.assert_array_equal(s1.p_pred, s2.p_pred)
    np.testing.assert_array_equal(o1.residual, o2.residual)
    assert state.t == 0 and s1.t == 1


class TestInnovationSingular:
    """The shared singular-V check against the eigenvalue-ratio test the
    subset scorer used to run on every candidate."""

    @staticmethod
    def reference(v):
        vals = np.linalg.eigvalsh(v)
        return vals[..., 0] <= vals[..., -1] * 1e-12

    @staticmethod
    def stack(rng, sigma_r2, n=40, m=3, q=4):
        """V = C_Z P C_Z' + sigma_r2 I; every other C_Z repeats a row."""
        c = rng.normal(size=(n, m, q))
        c[::2, -1] = c[::2, 0]
        b = rng.normal(size=(q, q))
        return np.einsum("nij,jk,nlk->nil", c, b @ b.T, c) + sigma_r2 * np.eye(m)

    def test_certified_stack(self, rng, monkeypatch):
        """sigma_r2 certifies every V: all False, without eigenvalues."""
        v = self.stack(rng, 0.1)
        assert not self.reference(v).any()

        def no_eigenvalues(*args):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
        got = innovation_singular(v, 0.1)
        assert got.dtype == bool and got.shape == v.shape[:1] and not got.any()

    @pytest.mark.parametrize("sigma_r2", [1e-14, 0.0])
    def test_uncertified_stack(self, rng, sigma_r2):
        v = self.stack(rng, sigma_r2)
        got = innovation_singular(v, sigma_r2)
        np.testing.assert_array_equal(got, self.reference(v))
        assert got[::2].all() and not got[1::2].any()

    def test_all_zero_v(self):
        assert innovation_singular(np.zeros((2, 2)), 0.0)
        v = np.zeros((3, 2, 2))
        np.testing.assert_array_equal(innovation_singular(v, 0.0), self.reference(v))
        assert self.reference(v).all()
