import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

from pocpd.errors import NumericalError
from pocpd.model import (
    ChangeSpec,
    ModelParams,
    ObservationMask,
    simulate_stream,
    stationary_covariance,
)
from pocpd.scenarios import benchmark_p10_model

from conftest import random_stable_model


class TestModelParams:
    def test_dimensions(self):
        m = benchmark_p10_model()
        assert (m.p, m.q) == (10, 7)
        assert m.A.shape == (7, 7)
        assert m.C.shape == (10, 7)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            ModelParams(A=np.eye(2), C=np.eye(2), sigma_q=0.1, sigma_r=0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(
                A=0.5 * np.eye(2), C=np.zeros((3, 4)), sigma_q=0.1, sigma_r=0.1
            )

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(A=np.zeros((1, 1)), C=np.ones((1, 1)), sigma_q=-0.1, sigma_r=0.1)

    def test_arrays_immutable(self):
        m = benchmark_p10_model()
        with pytest.raises(ValueError):
            m.A[0, 0] = 2.0


class TestChangeSpec:
    def test_none_is_in_control(self):
        c = ChangeSpec.none(3)
        assert c.tau == math.inf
        assert c.magnitude == 0.0

    def test_magnitude(self):
        c = ChangeSpec(tau=5, f=np.array([0.0, -0.4, 0.2]))
        assert c.magnitude == pytest.approx(0.4)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ChangeSpec(tau=-1, f=np.zeros(2))

    def test_nonfinite_f_rejected(self):
        with pytest.raises(ValueError):
            ChangeSpec(tau=0, f=np.array([np.nan]))

    @pytest.mark.parametrize("tau", [True, "3", None, 2.5, math.nan, -math.inf])
    def test_tau_not_an_integer_rejected(self, tau):
        # Each message starts with the field it names (config maps it to a path).
        with pytest.raises(ValueError, match="^tau must be"):
            ChangeSpec(tau=tau, f=np.zeros(2))

    @pytest.mark.parametrize("f", [["a", 0.0], [{}, 0.0], [[1.0], 2.0], [[1.0, 2.0]]])
    def test_non_numeric_f_rejected(self, f):
        with pytest.raises(ValueError, match="^f must be"):
            ChangeSpec(tau=0, f=f)

    def test_integral_taus_accepted(self):
        for tau in (np.int64(3), 3.0, np.float64(3.0)):
            assert ChangeSpec(tau=tau, f=np.ones(2)).magnitude == 1.0


class TestObservationMask:
    def test_sorted_distinct_required(self):
        with pytest.raises(ValueError):
            ObservationMask(indices=(2, 1), p=5)
        with pytest.raises(ValueError):
            ObservationMask(indices=(1, 1), p=5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ObservationMask(indices=(0, 5), p=5)

    def test_full(self):
        assert ObservationMask.full(4).indices == (0, 1, 2, 3)


class TestStationaryCovariance:
    def test_scalar_closed_form(self):
        # q=1, a=0.5, sigma_q=0.1: sigma^2 / (1 - a^2) = 0.01 / 0.75
        s = stationary_covariance(np.array([[0.5]]), np.array([[0.01]]))
        assert s[0, 0] == pytest.approx(0.01 / 0.75, rel=1e-10)

    def test_no_dynamics(self):
        q_mat = np.diag([0.04, 0.09])
        s = stationary_covariance(np.zeros((2, 2)), q_mat)
        np.testing.assert_allclose(s, q_mat)

    def test_against_scipy_oracle(self, rng):
        for _ in range(20):
            m = random_stable_model(rng, q=4, p=4)
            ours = stationary_covariance(m.A, m.state_cov)
            ref = solve_discrete_lyapunov(m.A, m.state_cov)
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_fixed_point_residual(self):
        m = benchmark_p10_model()
        s = stationary_covariance(m.A, m.state_cov)
        resid = np.max(np.abs(m.A @ s @ m.A.T + m.state_cov - s))
        assert resid < 1e-10
        np.testing.assert_allclose(s, s.T)
        assert np.min(np.linalg.eigvalsh(s)) >= 0

    def test_solved_once_per_params(self, monkeypatch):
        import pocpd.model as model_mod

        calls = []
        solve = model_mod.stationary_covariance
        monkeypatch.setattr(
            model_mod,
            "stationary_covariance",
            lambda a, q: calls.append(1) or solve(a, q),
        )
        m = benchmark_p10_model()
        for seed in range(3):
            simulate_stream(m, ChangeSpec.none(7), 5, seed=seed)
        np.testing.assert_array_equal(m.stationary_cov, solve(m.A, m.state_cov))
        assert len(calls) == 1
        assert not m.stationary_cov.flags.writeable

    def test_nonconvergence_raises(self):
        a = np.array([[1.0 - 1e-9]])
        with pytest.raises(NumericalError):
            stationary_covariance(a, np.array([[1.0]]), max_iters=100)


class TestSimulateStream:
    def test_noiseless_zero_dynamics(self):
        m = ModelParams(A=np.zeros((2, 2)), C=np.ones((3, 2)), sigma_q=0.0, sigma_r=0.0)
        y, x = simulate_stream(m, ChangeSpec.none(2), horizon=20, seed=0)
        np.testing.assert_array_equal(y, 0.0)
        np.testing.assert_array_equal(x, 0.0)

    def test_memoryless_unit_shift(self):
        # q=p=1, A=0, C=1, no noise, shift 1 at tau=0: X_t = Y_t = 1 always.
        m = ModelParams(
            A=np.zeros((1, 1)), C=np.ones((1, 1)), sigma_q=0.0, sigma_r=0.0
        )
        y, x = simulate_stream(m, ChangeSpec(tau=0, f=np.array([1.0])), 10, seed=0)
        np.testing.assert_allclose(x, 1.0)
        np.testing.assert_allclose(y, 1.0)

    def test_shift_applies_from_tau(self):
        m = ModelParams(
            A=np.zeros((1, 1)), C=np.ones((1, 1)), sigma_q=0.0, sigma_r=0.0
        )
        y, _ = simulate_stream(m, ChangeSpec(tau=3, f=np.array([2.0])), 6, seed=0)
        np.testing.assert_allclose(y[:3, 0], 0.0)
        np.testing.assert_allclose(y[3:, 0], 2.0)

    def test_determinism(self):
        m = benchmark_p10_model()
        y1, x1 = simulate_stream(m, ChangeSpec.none(7), 50, seed=42)
        y2, x2 = simulate_stream(m, ChangeSpec.none(7), 50, seed=42)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(x1, x2)
        y3, _ = simulate_stream(m, ChangeSpec.none(7), 50, seed=43)
        assert not np.array_equal(y1, y3)

    def test_lag1_autocovariance_matches_lyapunov(self):
        """Sample lag-1 autocovariance of Y against C A Sigma_X C' diagonal."""
        m = benchmark_p10_model(sigma_q=0.1, sigma_r=0.1)
        sx = stationary_covariance(m.A, m.state_cov)
        analytic = np.diag(m.C @ m.A @ sx @ m.C.T)
        horizon = 200_000
        y, _ = simulate_stream(m, ChangeSpec.none(7), horizon, seed=7)
        yc = y - y.mean(axis=0)
        sample = (yc[1:] * yc[:-1]).mean(axis=0)
        # Monte-Carlo error: a few times sd/sqrt(T) per coordinate.
        tol = 5.0 * np.abs(y).std(axis=0) ** 2 / np.sqrt(horizon)
        assert np.all(np.abs(sample - analytic) < np.maximum(tol, 5e-3))

    def test_bad_horizon(self):
        m = benchmark_p10_model()
        with pytest.raises(ValueError):
            simulate_stream(m, ChangeSpec.none(7), 0, seed=0)

    def test_shift_length_checked(self):
        m = benchmark_p10_model()
        with pytest.raises(ValueError):
            simulate_stream(m, ChangeSpec(tau=0, f=np.zeros(3)), 10, seed=0)


@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-0.99, 0.99))
@settings(max_examples=25, deadline=None)
def test_stationary_variance_property(seed, a):
    """Scalar closed form holds for any stable scalar model."""
    s = stationary_covariance(np.array([[a]]), np.array([[0.01]]))
    assert s[0, 0] == pytest.approx(0.01 / (1 - a * a), rel=1e-8)
