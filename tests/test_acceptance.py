"""End-to-end acceptance suite.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see them
all).  The Monte-Carlo arms are expensive, so their raw results are cached
under ``artifacts/acceptance/`` keyed by a hash of every input that affects
them; delete that directory to force a full recomputation.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from pocpd.calibration import (
    STREAM_EVALUATION,
    CalibrationSpec,
    RunLengthSample,
    calibrate_h,
    ic_trajectories,
    run_blocks,
    run_once,
)
from pocpd.detector import Detector, WindowConfig, make_step_term
from pocpd.filtering import filter_init, filter_step
from pocpd.model import ChangeSpec, ModelParams, simulate_stream
from pocpd.monitor import Policy, Scenario, replication_rngs, run_single, simulate_run_stream
from pocpd.sampler import (
    AlphaSchedule,
    UcrInputs,
    chi2_quantile,
    omega,
    select_random,
    solve_ellipsoid_max,
)
from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, benchmark_p10_model

from conftest import random_stable_model
from test_filtering import classic_kalman_predictor
from test_sampler import brute_force_boundary_max, make_inputs

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "artifacts" / "acceptance"

TARGET_ADD_IC = 200.0
HORIZON_CAP = 1000

# Experiment arms: (policy kind, alpha spec, m, calibration replications).
# The main arm gets a tight calibration because two absolute-value criteria
# ride on it.  The constant-alpha arms also get tight calibrations: at small
# shifts the delay scales with the arm's realized in-control level, so
# calibration error translates almost one-for-one into the comparison.
# Ordering-only arms need only loosely matched in-control behavior.
ARMS = {
    "e2_adaptive": ("e_aucrss", "schedule", 2, 6000),
    "r2": ("random", None, 2, 500),
    "e3_adaptive": ("e_aucrss", "schedule", 3, 500),
    "r3": ("random", None, 3, 500),
    "a2_adaptive": ("aucrss", "schedule", 2, 400),
    "e2_const010": ("e_aucrss", 0.1, 2, 2000),
    "e2_const085": ("e_aucrss", 0.85, 2, 2000),
}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cached(name: str, params: dict, compute):
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:16]
    path = ARTIFACT_DIR / f"{name}.json"
    if path.exists():
        doc = json.loads(path.read_text())
        if doc.get("key") == key:
            return doc["payload"]
    payload = compute()
    path.write_text(json.dumps({"key": key, "params": params, "payload": payload}))
    return payload


def _arm_policy(kind, alpha_spec):
    if kind == "random":
        return Policy(kind="random")
    if alpha_spec == "schedule":
        return Policy(kind=kind, alpha=DEFAULT_ALPHA_SCHEDULE)
    alpha = float(alpha_spec)
    return Policy(kind=kind, alpha=AlphaSchedule(d=0.0, l=1.0, alpha_min=alpha, alpha_max=alpha))


def _arm_scenario(arm: str, h=None) -> Scenario:
    kind, alpha_spec, m, _ = ARMS[arm]
    return Scenario(
        name=arm,
        model=benchmark_p10_model(),
        m=m,
        window=WindowConfig(m1=50, m2=5, h=h),
        policy=_arm_policy(kind, alpha_spec),
        horizon_cap=HORIZON_CAP,
        n0=50,
        seed=0,
    )


def _arm_params(arm: str) -> dict:
    kind, alpha_spec, m, cal_reps = ARMS[arm]
    return {
        "arm": arm,
        "kind": kind,
        "alpha": alpha_spec,
        "m": m,
        "cal_reps": cal_reps,
        "target": TARGET_ADD_IC,
        "horizon_cap": HORIZON_CAP,
        "model": "bench-p10",
        "version": 1,
    }


def arm_h(arm: str) -> float:
    """Control limit calibrated to ADD_IC = 200 for this arm (cached)."""

    def compute():
        _, _, _, cal_reps = ARMS[arm]
        spec = CalibrationSpec(
            target_add_ic=TARGET_ADD_IC,
            replications=cal_reps,
            horizon_cap=HORIZON_CAP,
            seed=0,
            tol=0.02,
        )
        scenario = _arm_scenario(arm)
        traj = ic_trajectories(scenario, spec)
        res = calibrate_h(spec, scenario, trajectories=traj)
        return {
            "h": res.h,
            "achieved": res.achieved_add_ic,
            "sdd": res.sdd,
            "censored": res.censored_fraction,
        }

    return _cached(f"calibration_{arm}", _arm_params(arm), compute)["h"]


def _shift_change(shift: float) -> ChangeSpec:
    """Shift of the first state dimension from monitoring step 1 (IC at 0)."""
    if shift == 0.0:
        return ChangeSpec.none(7)
    f = np.zeros(7)
    f[0] = shift
    return ChangeSpec(tau=0, f=f)


def _alarm_time(scenario: Scenario, record) -> int:
    return RunLengthSample.of(scenario, record.alarm_time).alarm_time


def engine_alarm_times(arm: str, shift: float, replications: int) -> list:
    """Alarm times of the first replications of one arm + shift from the
    Monte-Carlo engine's lockstep blocks (one cell, evaluation lane)."""
    scenario = replace(
        _arm_scenario(arm, h=arm_h(arm)),
        changes=(_shift_change(shift),),
        replications=replications,
    )
    [(times, error)] = run_blocks(scenario, STREAM_EVALUATION, _alarm_time)
    if error is not None:
        raise error
    return times


def arm_alarm_times(arm: str, shift: float, replications: int) -> np.ndarray:
    """Alarm times (monitoring clock, censored at cap) for one arm + shift."""

    def compute():
        return engine_alarm_times(arm, shift, replications)

    params = {**_arm_params(arm), "shift": shift, "replications": replications}
    return np.asarray(
        _cached(f"eval_{arm}_f{shift}", params, compute), dtype=float
    )


def bootstrap_prob_less(a, b, n_boot=4000, seed=0) -> float:
    """P_boot(mean(a) < mean(b)) for two independent samples."""
    rng = np.random.default_rng(seed)
    ma = a[rng.integers(0, len(a), size=(n_boot, len(a)))].mean(axis=1)
    mb = b[rng.integers(0, len(b), size=(n_boot, len(b)))].mean(axis=1)
    return float((ma < mb).mean())


class TestCacheRecompute:
    """The cache key holds the parameters, not the code, so a change to the
    numerics would still pass every criterion from the cache.  Recomputing
    the first replications of a few arms closes that gap: they must give
    the cached alarm times exactly."""

    N_REPS = 20

    @pytest.mark.parametrize(
        "arm,shift,replications",
        [
            ("e2_adaptive", 1.0, 1000),
            ("e2_adaptive", 0.2, 1000),
            ("r2", 0.4, 1000),
            ("a2_adaptive", 0.6, 400),
            ("e3_adaptive", 0.8, 1000),
            ("e2_const010", 0.1, 400),
            ("e2_const085", 0.1, 400),
        ],
    )
    def test_cached_alarm_times_recompute(self, arm, shift, replications):
        cached = arm_alarm_times(arm, shift, replications)[: self.N_REPS]
        scenario = _arm_scenario(arm, h=arm_h(arm))
        change = _shift_change(shift)
        fresh = [
            run_once(scenario, change, rep, stream_id=STREAM_EVALUATION).alarm_time
            for rep in range(self.N_REPS)
        ]
        np.testing.assert_array_equal(fresh, cached)

    @pytest.mark.parametrize(
        "arm,shift,replications", [("a2_adaptive", 0.6, 400), ("e2_adaptive", 1.0, 1000)]
    )
    def test_engine_gives_the_cached_alarm_times(self, arm, shift, replications):
        """The engine that fills the cache, in lockstep blocks, gives the
        cached alarm times too."""
        cached = arm_alarm_times(arm, shift, replications)[:40]
        np.testing.assert_array_equal(engine_alarm_times(arm, shift, 40), cached)


class TestCriterion1CalibrationFidelity:
    def test_fresh_ic_evaluation(self):
        times = arm_alarm_times("e2_adaptive", 0.0, 1000)
        add_ic = float(times.mean())
        ok = abs(add_ic - TARGET_ADD_IC) <= 10.0
        _report(
            1,
            ok,
            f"fresh 1000-rep ADD_IC {add_ic:.1f} vs target 200 +/- 10 "
            f"(h = {arm_h('e2_adaptive'):.4f})",
        )

    def test_run_length_dispersion(self):
        # Geometric-like run-length spread: SDD lands in [100, 300].
        times = arm_alarm_times("e2_adaptive", 0.0, 1000)
        sdd = float(times.std(ddof=1))
        assert 100.0 <= sdd <= 300.0


class TestCriterion2OcDelays:
    @pytest.mark.parametrize(
        "shift,reference,rel_tol",
        [(1.0, 3.92, 0.20), (0.4, 12.3, 0.20), (0.2, 48.4, 0.25)],
    )
    def test_oc_delay(self, shift, reference, rel_tol):
        times = arm_alarm_times("e2_adaptive", shift, 1000)
        add_oc = float(times.mean())
        ok = abs(add_oc - reference) <= rel_tol * reference
        _report(
            2,
            ok,
            f"ADD_OC(E-AUCRSS, m=2, f={shift}) = {add_oc:.2f} vs "
            f"{reference} +/- {int(rel_tol * 100)}%",
        )


class TestCriterion3PolicyOrdering:
    SHIFTS = (0.2, 0.4, 0.6, 0.8, 1.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_greedy_beats_random(self, m):
        e_arm, r_arm = (f"e{m}_adaptive", f"r{m}")
        confs, pairs = [], []
        for shift in self.SHIFTS:
            e = arm_alarm_times(e_arm, shift, 1000)
            r = arm_alarm_times(r_arm, shift, 1000)
            confs.append(bootstrap_prob_less(e, r, seed=int(shift * 100) + m))
            pairs.append((float(e.mean()), float(r.mean())))
        ok = all(c >= 0.95 for c in confs)
        detail = ", ".join(
            f"f={s}: {e:.1f}<{r:.1f} ({c:.3f})"
            for s, (e, r), c in zip(self.SHIFTS, pairs, confs)
        )
        _report(3, ok, f"E-AUCRSS < R-AUCRSS at m={m} [{detail}]")

    def test_exhaustive_greedy_gap(self):
        gaps = []
        for shift in self.SHIFTS:
            a = float(arm_alarm_times("a2_adaptive", shift, 400).mean())
            e = float(arm_alarm_times("e2_adaptive", shift, 1000).mean())
            gaps.append(abs(e - a) / a)
        ok = all(g < 0.10 for g in gaps)
        detail = ", ".join(
            f"f={s}: {g * 100:.1f}%" for s, g in zip(self.SHIFTS, gaps)
        )
        _report(3, ok, f"exhaustive-vs-greedy relative gap [{detail}]")

    def test_monotone_in_m(self):
        # More sensors never hurt: ADD_OC(m=3) <= ADD_OC(m=2) at shifts >= 0.4.
        for shift in (0.4, 0.6, 0.8, 1.0):
            m3 = float(arm_alarm_times("e3_adaptive", shift, 1000).mean())
            m2 = float(arm_alarm_times("e2_adaptive", shift, 1000).mean())
            assert m3 <= m2 * 1.05


class TestCriterion4AdaptiveAlpha:
    SHIFTS = (0.05, 0.07, 0.1)
    REPS = 400

    @pytest.mark.parametrize("const_arm", ["e2_const010", "e2_const085"])
    def test_adaptive_not_worse(self, const_arm):
        confs, pairs = [], []
        for shift in self.SHIFTS:
            adaptive = arm_alarm_times("e2_adaptive", shift, self.REPS)
            const = arm_alarm_times(const_arm, shift, self.REPS)
            # Weak-inequality test at 90%: fail only when the constant
            # schedule is better with >= 0.9 bootstrap confidence.
            boot_seed = {"e2_const010": 400, "e2_const085": 500}[const_arm] + int(shift * 100)
            confs.append(bootstrap_prob_less(const, adaptive, seed=boot_seed))
            pairs.append((float(adaptive.mean()), float(const.mean())))
        ok = all(c < 0.90 for c in confs)
        detail = ", ".join(
            f"f={s}: adaptive {a:.1f} vs constant {c:.1f} (P_worse {p:.3f})"
            for s, (a, c), p in zip(self.SHIFTS, pairs, confs)
        )
        _report(4, ok, f"adaptive alpha vs {const_arm} [{detail}]")


class TestCriterion5FilterOracle:
    def test_full_observation_equivalence(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(100):
            q = int(rng.integers(1, 5))
            p = int(rng.integers(q, q + 4))
            model = random_stable_model(rng, q=q, p=p)
            y, _ = simulate_stream(model, ChangeSpec.none(q), 30, seed=rng)
            state = filter_init(model)
            masks = [list(range(p))]
            xs, ps = [], []
            for t in range(30):
                state, _ = filter_step(state, model, masks, y[t][None])
                xs.append(state.x_pred[0])
                ps.append(state.p_pred[0])
            ref_x, ref_p = classic_kalman_predictor(model, y)
            worst = max(
                worst,
                float(np.max(np.abs(np.array(xs) - ref_x))),
                float(np.max(np.abs(np.array(ps) - ref_p))),
            )
        ok = worst < 1e-10
        _report(5, ok, f"full-observation filter vs classic Kalman, max |delta| = {worst:.2e}")


class TestCriterion6EllipsoidOracle:
    def test_worked_instance_exact(self):
        params = ModelParams(
            A=0.5 * np.eye(2), C=np.eye(2), sigma_q=0.1, sigma_r=0.1
        )
        inputs = UcrInputs(
            f_hat=np.array([[1.0, 0.0]]),
            sigma_f=np.eye(2)[None],
            g_next=np.eye(2)[None],
            p_pred=np.eye(2)[None],
            params=params,
            alpha=np.array([1.0 - chi2.cdf(1.0, 2)]),
        )
        (f_star,), (score,) = solve_ellipsoid_max(inputs, np.diag([2.0, 1.0])[None])
        ok = (
            abs(score - 8.0) < 1e-8
            and abs(f_star[0] - 2.0) < 1e-8
            and abs(f_star[1]) < 1e-8
        )
        _report(6, ok, f"worked q=2 instance: f* = {f_star}, score = {score:.10f}")

    def test_brute_force_sweep(self):
        rng = np.random.default_rng(66)
        worst = 0.0
        for i in range(1000):
            q = int(rng.integers(1, 4))
            inputs = make_inputs(
                rng, q=q, p=q + 2, alpha=float(rng.uniform(0.05, 0.9))
            )
            mask = select_random(q + 2, int(rng.integers(1, q + 3)), rng)
            om = omega(mask, inputs.g_next[0], inputs.p_pred[0], inputs.params)
            _, (score,) = solve_ellipsoid_max(inputs, om[None])
            ref = brute_force_boundary_max(inputs, om, n_points=20_000, seed=i)
            # The sampled maximum can only undershoot the true one; a
            # solver value below it is a real failure, a value above it
            # within the discretization gap is not.  Resolve borderline
            # instances with a denser sample before judging.
            assert score >= ref - 1e-9 * max(ref, 1.0)
            if abs(score - ref) > 1e-3 * max(ref, 1e-12):
                ref = brute_force_boundary_max(
                    inputs, om, n_points=500_000, seed=i + 1
                )
            worst = max(worst, abs(score - ref) / max(ref, 1e-12))
        ok = worst <= 1e-3
        _report(6, ok, f"1000 random instances vs boundary brute force, worst rel err {worst:.2e}")


class TestCriterion7NullDistribution:
    def test_exceedance_rate(self):
        """GLRT at a fixed candidate under H0, full observation, 10^4 reps.

        The filter gain sequence is deterministic under a constant mask, so
        all replications share (K_t, A_t, V_t, G, M) and only the residual
        accumulation is per-replication.
        """
        model = benchmark_p10_model()
        n_reps, n_steps = 10_000, 10
        q, p = 7, 10
        y = np.stack(
            [
                simulate_stream(model, ChangeSpec.none(q), n_steps, seed=rep)[0]
                for rep in range(n_reps)
            ]
        )
        masks = [list(range(p))]
        # Shared deterministic pieces of the recursion (the gain sequence
        # does not depend on the data under a fixed mask).
        shared = []
        state = filter_init(model)
        for t in range(n_steps):
            p_prev = state.p_pred[0]
            state, out = filter_step(state, model, masks, np.zeros((1, p)))
            vinv = np.linalg.inv(out.v_mat[0])
            # Gain K = P C' V^{-1} of this step.
            shared.append((out.a_tilde_used[0], vinv, p_prev @ model.C.T @ vinv))
        # Per-replication residual accumulation for candidate k = 0.
        x_pred = np.zeros((n_reps, q))
        g = np.eye(q)
        s_vec = np.zeros((n_reps, q))
        m_mat = np.zeros((q, q))
        c = model.C
        a = model.A
        for t in range(n_steps):
            a_tilde, vinv, k_gain = shared[t]
            if t > 0:
                g = shared[t - 1][0] @ g + np.eye(q)
            resid = y[:, t, :] - x_pred @ c.T
            u = resid @ vinv @ c  # (n_reps, q) = C' V^{-1} r
            s_vec += u @ g
            m_mat += g.T @ (c.T @ vinv @ c) @ g
            x_pred = x_pred @ a_tilde.T + y[:, t, :] @ k_gain.T @ a.T
        stats = np.einsum("ni,ij,nj->n", s_vec, np.linalg.inv(m_mat), s_vec)
        threshold = chi2_quantile(0.95, q)
        rate = float((stats > threshold).mean())
        ok = abs(rate - 0.05) <= 0.01
        _report(
            7,
            ok,
            f"null GLRT exceedance of chi2(df=q=7) 95% quantile: {rate:.4f} vs 0.05 +/- 0.01",
        )

    def test_vectorized_recursion_matches_library(self):
        """Spot check: the batched path above equals the step-by-step API."""
        model = benchmark_p10_model()
        y, _ = simulate_stream(model, ChangeSpec.none(7), 10, seed=123)
        state = filter_init(model)
        # At n = 10 the window n - m1 < k < n - m2 holds only k = 0.
        det = Detector(7, WindowConfig(m1=11, m2=9))
        masks = [list(range(10))]
        for t in range(10):
            state, out = filter_step(state, model, masks, y[t][None])
            det.push_step(make_step_term(out, model.C))
        scan = det.scan()
        assert scan.tau_hat == (0,)
        lib_stat = scan.t_stat[0]
        # One-replication rerun of the batched arithmetic.
        state = filter_init(model)
        x_pred = np.zeros(7)
        g = np.eye(7)
        s_vec = np.zeros(7)
        m_mat = np.zeros((7, 7))
        prev_a = None
        for t in range(10):
            state, out = filter_step(state, model, masks, y[t][None])
            vinv = np.linalg.inv(out.v_mat[0])
            if prev_a is not None:
                g = prev_a @ g + np.eye(7)
            resid = out.residual[0]
            s_vec += g.T @ (model.C.T @ vinv @ resid)
            m_mat += g.T @ (model.C.T @ vinv @ model.C) @ g
            prev_a = out.a_tilde_used[0]
        manual = float(s_vec @ np.linalg.solve(m_mat, s_vec))
        assert manual == pytest.approx(lib_stat, rel=1e-8)


class TestCriterion8SamplingProperties:
    def test_ic_balance(self):
        """Balanced IC sampling on a symmetric p = q model."""
        q = p = 5
        m = 2
        model = ModelParams(
            A=0.5 * np.eye(q), C=np.eye(p), sigma_q=0.1, sigma_r=0.1
        )
        scenario = Scenario(
            name="balance",
            model=model,
            m=m,
            window=WindowConfig(m1=30, m2=2, h=None),
            policy=Policy(kind="e_aucrss", alpha=DEFAULT_ALPHA_SCHEDULE),
            horizon_cap=10_000,
            n0=30,
            seed=1,
        )
        sim_rng, mask_rng = replication_rngs(1, 7, 0)
        stream = simulate_run_stream(scenario, ChangeSpec.none(q), sim_rng)
        record = run_single(scenario, stream, mask_rng, stop_at_alarm=False)
        counts = np.zeros(p)
        for mask in record.masks[scenario.n0 :]:
            for i in mask:
                counts[i] += 1
        freqs = counts / len(record.masks[scenario.n0 :])
        expected = m / p
        ok = np.all(np.abs(freqs - expected) <= 0.2 * expected)
        _report(
            8,
            ok,
            f"IC balance: per-dimension frequencies {np.round(freqs, 3).tolist()} "
            f"vs {expected} +/- 20%",
        )

    def test_oc_lock_on(self):
        """After a shift on state dim 1, sampling fixes on its sensor."""
        scenario = _arm_scenario("e2_adaptive", h=None)
        f = np.zeros(7)
        f[0] = 0.4
        change = ChangeSpec(tau=0, f=f)
        scenario = replace(scenario, horizon_cap=100)
        hits = total = 0
        for rep in range(50):
            sim_rng, mask_rng = replication_rngs(scenario.seed, 9, rep)
            stream = simulate_run_stream(scenario, change, sim_rng)
            record = run_single(scenario, stream, mask_rng, stop_at_alarm=False)
            # Monitoring steps 50..100; sensor 0 is the only row of C
            # reading the changed state dimension.
            for mask in record.masks[scenario.n0 + 50 : scenario.n0 + 100]:
                total += 1
                hits += int(0 in mask)
        rate = hits / total
        ok = rate > 0.9
        _report(8, ok, f"OC lock-on: changed-sensor frequency {rate:.3f} > 0.9 after step 50")
