import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pocpd.calibration
import pocpd.filtering
import pocpd.monitor
from pocpd.calibration import (
    STREAM_EVALUATION,
    CalibrationSpec,
    calibrate_h,
    estimate_add,
    run_once,
)
from pocpd.errors import ConfigError, NumericalError
from pocpd.harness import (
    CellResult,
    ResultTable,
    emit_outputs,
    ingest_csv,
    replay_monitor,
    run_scenario,
)
from pocpd.model import ChangeSpec, ModelParams, SimulatedStream, simulate_stream
from pocpd.detector import WindowConfig
from pocpd.monitor import POLICY_NAMES, Policy, Scenario, replication_rngs, simulate_run_stream

DATA_DIR = Path(__file__).parent / "data"


def mini_scenario(h=6.0, replications=10, policy_kind="e_aucrss"):
    model = ModelParams(
        A=np.diag([0.5, 0.3]),
        C=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.4]]),
        sigma_q=0.1,
        sigma_r=0.1,
    )
    if policy_kind == "random":
        policy = Policy(kind="random")
    else:
        from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE

        policy = Policy(kind=policy_kind, alpha=DEFAULT_ALPHA_SCHEDULE)
    return Scenario(
        name="mini",
        model=model,
        m=2,
        window=WindowConfig(m1=12, m2=1, h=h),
        policy=policy,
        changes=(
            ChangeSpec.none(2),
            ChangeSpec(tau=0, f=np.array([1.0, 0.0])),
        ),
        replications=replications,
        horizon_cap=60,
        n0=8,
        seed=17,
    )


class TestRunScenario:
    def test_fills_every_cell(self):
        table = run_scenario(mini_scenario())
        assert len(table.cells) == 2
        for cell in table.cells:
            assert cell.error is None
            assert cell.add is not None
            assert cell.h == 6.0

    def test_shift_cell_detects_faster(self):
        table = run_scenario(mini_scenario(replications=30))
        ic = table.cell("e_aucrss", 0.0)
        oc = table.cell("e_aucrss", 1.0)
        assert oc.add < ic.add

    def test_reproducible(self):
        t1 = run_scenario(mini_scenario())
        t2 = run_scenario(mini_scenario())
        assert t1.cells == t2.cells

    def test_requires_h(self):
        with pytest.raises(ValueError, match="control limit"):
            run_scenario(mini_scenario(h=None))


def cell_by_cell(scenario):
    """run_scenario as one cell after another, each replication a full
    run_once: the reference the shared-prefix sweep must equal."""
    cells = []
    for change in scenario.changes:
        try:
            samples = [
                run_once(scenario, change, rep, stream_id=STREAM_EVALUATION)
                for rep in range(scenario.replications)
            ]
            est = estimate_add(samples, change.tau)
            stats = dict(
                add=est.add, sdd=est.sdd, n_reps=est.n_used, censored=est.censored_fraction
            )
        except (NumericalError, RuntimeError, np.linalg.LinAlgError) as exc:
            stats = dict(add=None, sdd=None, n_reps=0, censored=None, error=str(exc))
        cells.append(
            CellResult(
                scenario=scenario.name,
                policy=scenario.policy.kind,
                f=float(change.magnitude),
                h=scenario.window.h,
                **stats,
            )
        )
    return ResultTable(cells)


def shift(tau, f0, f1):
    return ChangeSpec(tau=tau, f=np.array([f0, f1]))


def fail_filter_step(monkeypatch, when):
    """Make the monitor's stacked filter step raise a NumericalError when
    when(state, y) holds for the observations y of any row."""
    filter_step = pocpd.monitor.filter_step

    def failing(state, params, masks, y_obs):
        if any(when(state, y) for y in y_obs):
            raise NumericalError("injected")
        return filter_step(state, params, masks, y_obs)

    monkeypatch.setattr(pocpd.monitor, "filter_step", failing)


class TestSharedPrefix:
    """run_scenario monitors each replication's rows before the earliest
    change once, then forks per cell; every cell equals the reference."""

    policy = "e_aucrss"

    def scenario(self, **kw):
        return mini_scenario(policy_kind=self.policy, **kw)

    def test_mixed_change_points_censoring_and_in_control(self):
        scenario = replace(
            self.scenario(h=10.0, replications=12),
            horizon_cap=30,
            changes=(
                ChangeSpec.none(2),
                shift(0, 1.0, 0.0),
                shift(4, 0.2, 0.0),
                shift(12, 0.0, 0.5),
            ),
        )
        want = cell_by_cell(scenario)
        assert want.cell(self.policy, 0.0).censored > 0
        assert all(c.error is None for c in want.cells)
        assert run_scenario(scenario).cells == want.cells

    def test_false_alarm_inside_the_prefix(self):
        scenario = replace(
            self.scenario(h=7.0, replications=12),
            horizon_cap=40,
            changes=(shift(15, 1.0, 0.0), shift(25, 0.0, 0.8)),
        )
        alarms = [run_once(scenario, scenario.changes[0], rep).alarm_time for rep in range(12)]
        assert min(alarms) <= 15 < max(alarms)  # some alarms in the prefix, some after
        assert run_scenario(scenario).cells == cell_by_cell(scenario).cells

    def test_error_in_the_prefix_fails_every_cell(self, monkeypatch):
        scenario = replace(
            self.scenario(replications=8),
            changes=(ChangeSpec.none(2), shift(0, 1.0, 0.0), shift(5, 0.0, 0.5)),
        )
        fail_filter_step(monkeypatch, lambda state, y: state.t == 3 and y.sum() > 0.25)
        want = cell_by_cell(scenario)
        errors = {c.error for c in want.cells}
        assert errors == {"seed 17, stream lane 2, replication 4, absolute step 4: injected"}
        assert run_scenario(scenario).cells == want.cells

    def test_error_after_the_fork_fails_its_cell_only(self, monkeypatch):
        scenario = replace(
            self.scenario(replications=8),
            changes=(ChangeSpec.none(2), shift(0, 1.0, 0.0), shift(3, 50.0, 0.0)),
        )
        fail_filter_step(monkeypatch, lambda state, y: np.abs(y).max() > 20.0)
        want = cell_by_cell(scenario)
        rep = 0 if self.policy == "random" else 2  # UCR alarms sooner in replications 0 and 1
        assert [c.error for c in want.cells] == [
            None, None, f"seed 17, stream lane 2, replication {rep}, absolute step 12: injected"
        ]
        assert run_scenario(scenario).cells == want.cells

    def test_no_cell_changes_before_the_horizon(self):
        """The shared prefix is the whole run: no cell forks."""
        scenario = replace(
            self.scenario(h=8.0, replications=12),
            changes=(ChangeSpec.none(2), shift(60, 1.0, 0.0)),
        )
        want = cell_by_cell(scenario)
        assert want.cells[0].error is None
        assert run_scenario(scenario).cells == want.cells


class TestSharedPrefixInBlocks(TestSharedPrefix):
    """The same cases in lockstep blocks of one, of 7 and of more than the
    replications, under every policy."""

    @pytest.fixture(autouse=True, params=[1, 7, 64])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(pocpd.calibration, "IC_BLOCK", request.param)

    @pytest.fixture(autouse=True, params=POLICY_NAMES)
    def policy_kind(self, request):
        request.instance.policy = request.param


def test_poisoned_fork_fails_its_cell_only(monkeypatch):
    """A fork failing in the middle of a block of 7, with a block after it:
    its cell keeps the error of that replication and uses no later one,
    and the sibling cells use every replication."""
    monkeypatch.setattr(pocpd.calibration, "IC_BLOCK", 7)
    scenario = replace(
        mini_scenario(h=12.0, replications=10),
        changes=(ChangeSpec.none(2), shift(2, 1.0, 0.0), shift(2, 0.0, 1.0)),
    )
    want = cell_by_cell(scenario)
    assert want.cell("e_aucrss", 0.0).n_reps == 10
    # Replication 3's first state noise marks its stream and the stream's forks.
    sim_rng, _ = replication_rngs(scenario.seed, STREAM_EVALUATION, 3)
    poisoned = SimulatedStream(scenario.model, ChangeSpec.none(2), 1, sim_rng).w[0]
    step = SimulatedStream.step

    def failing(stream):
        if stream.change.f[1] == 1.0 and np.array_equal(stream.w[0], poisoned):
            raise NumericalError("injected")
        return step(stream)

    monkeypatch.setattr(SimulatedStream, "step", failing)
    got = run_scenario(scenario).cells
    assert got[:2] == want.cells[:2]
    assert got[2].error == "seed 17, stream lane 2, replication 3, absolute step 10: injected"


def test_failing_filter_in_a_block_names_one_step(monkeypatch):
    """A NumericalError of replication 3's filter after the fork, in the
    middle of a block of 7: its cell gets the message of running the
    replications one by one, with one absolute step."""
    monkeypatch.setattr(pocpd.calibration, "IC_BLOCK", 7)
    scenario = replace(
        mini_scenario(h=12.0, replications=10),
        changes=(ChangeSpec.none(2), shift(2, 1.0, 0.0)),
    )
    # The row replication 3 reads under the shift at absolute step 11, the
    # first after the fork (the shared prefix is n0 + tau = 10 rows).
    sim_rng, _ = replication_rngs(scenario.seed, STREAM_EVALUATION, 3)
    row = simulate_run_stream(scenario, scenario.changes[1], sim_rng)[10]
    fail_filter_step(monkeypatch, lambda state, y: state.t == 10 and set(y) <= set(row))
    want = cell_by_cell(scenario)
    assert re.match(
        r"^seed 17, stream lane 2, replication 3, absolute step 11: injected$",
        want.cells[1].error,
    )
    assert want.cells[0].error is None
    assert run_scenario(scenario).cells == want.cells


def test_failed_factor_in_a_block_names_its_source(monkeypatch):
    """dpotrf fails on replication 3's row at absolute step 11, in the middle
    of a block of 7: the cell error names the seed, lane, replication and
    step, and the row's mask in Python ints, as a singular V does."""
    monkeypatch.setattr(pocpd.calibration, "IC_BLOCK", 7)
    scenario = replace(mini_scenario(h=12.0, replications=10), changes=(ChangeSpec.none(2),))
    sim_rng, _ = replication_rngs(scenario.seed, STREAM_EVALUATION, 3)
    row = simulate_run_stream(scenario, scenario.changes[0], sim_rng)[10]
    filter_step, dpotrf = pocpd.monitor.filter_step, pocpd.filtering.dpotrf
    failing = []  # whether each row's factor of this step fails, in row order

    def marking(state, params, masks, y_obs):
        failing[:] = [state.t == 10 and np.array_equal(y, row[idx])
                      for idx, y in zip(masks, y_obs)]
        return filter_step(state, params, masks, y_obs)

    def factor(v, **kwargs):
        chol, info = dpotrf(v, **kwargs)
        return chol, 1 if failing.pop(0) else info

    monkeypatch.setattr(pocpd.monitor, "filter_step", marking)
    monkeypatch.setattr(pocpd.filtering, "dpotrf", factor)
    [cell] = run_scenario(scenario).cells
    assert re.match(
        r"^seed 17, stream lane 2, replication 3, absolute step 11: innovation covariance "
        r"not positive definite \(leading minor 1\) at step t=11 \(mask \(\d, \d\)\)$",
        cell.error,
    )


def test_exhaustive_p30_sweep_keeps_the_candidate_budget(monkeypatch):
    """bench-p30 aucrss at m = 3 scores C(30, 3) = 4,060 candidates per
    decision, more than CANDIDATE_BUDGET allows one call: a 3-cell sweep
    advances its forks in groups of cells, so no call scores more than the
    budget or one decision, and the table equals the per-cell one."""
    from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, built_in_scenario

    policy = Policy(kind="aucrss", alpha=DEFAULT_ALPHA_SCHEDULE)
    scenario = replace(
        built_in_scenario("bench-p30", m=3, policy=policy, h=25.0, magnitudes=(0.0, 0.5, 1.0),
                          replications=2, horizon_cap=6),
        n0=10,
    )
    want = cell_by_cell(scenario)
    sizes = []
    select = pocpd.monitor.select_exhaustive

    def recording(inputs, m):
        sizes.append(len(inputs.f_hat))
        return select(inputs, m)

    monkeypatch.setattr(pocpd.monitor, "select_exhaustive", recording)
    assert run_scenario(scenario).cells == want.cells
    budget = pocpd.calibration.CANDIDATE_BUDGET
    assert sizes and all(n == 1 or n * math.comb(30, 3) <= budget for n in sizes)


def test_candidate_budget_counts_distinct_subsets():
    """The budget counts the subsets the scorer scores: bench-p30 repeats
    15 of its 30 rows of C, so exhaustive search at m = 2 scores 184 of its
    435 subsets and greedy search's first round 15 of its 30 sensors."""
    from pocpd.calibration import _candidates
    from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, built_in_scenario

    def candidates(model, kind):
        alpha = None if kind == "random" else DEFAULT_ALPHA_SCHEDULE
        return _candidates(built_in_scenario(model, m=2, policy=Policy(kind=kind, alpha=alpha)))

    assert [candidates("bench-p30", kind) for kind in ("aucrss", "e_aucrss", "random")] == [184, 15, 0]
    assert [candidates("bench-p10", kind) for kind in ("aucrss", "e_aucrss", "random")] == [45, 10, 0]


class TestIngestCsv:
    def test_zeros_none(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n0,0\n0,0\n")
        stream = ingest_csv(path)
        np.testing.assert_array_equal(stream, np.zeros((3, 2)))

    def test_header_skipped(self, tmp_path):
        """The first non-blank row may be a header; a later one may not."""
        path = tmp_path / "h.csv"
        for text in ("a,b\n1,2\n3,4\n", "\n \na,b\n1,2\n3,4\n"):
            path.write_text(text)
            np.testing.assert_array_equal(ingest_csv(path), [[1, 2], [3, 4]])
        path.write_text("\na,b\nc,d\n1,2\n")
        with pytest.raises(ConfigError, match="non-numeric cell 'c' at row 2, column 0"):
            ingest_csv(path)

    @pytest.mark.parametrize("header", ["", "a,b\n"], ids=["no-header", "header"])
    def test_byte_order_mark_dropped(self, tmp_path, header):
        # Excel writes a UTF-8 byte-order mark before the first cell.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}1.0,2\n3,4\n5,6\n".encode())
        stream = ingest_csv(path)
        np.testing.assert_array_equal(stream, [[1, 2], [3, 4], [5, 6]])

    def test_zscore_self_reference(self, tmp_path, rng):
        path = tmp_path / "s.csv"
        data = rng.normal(size=(50, 4)) * 3 + 1
        np.savetxt(path, data, delimiter=",")
        stream = ingest_csv(path, reference=path)
        assert np.all(np.abs(stream.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(stream.std(axis=0) - 1.0) < 1e-12)

    def test_zscore_external_reference_leaves_shift(self, tmp_path, rng):
        """IC reference statistics applied to a shifted run: means stay off 0."""
        ic = rng.normal(size=(500, 6))
        oc = rng.normal(size=(500, 6)) + 2.0
        ic_path, oc_path = tmp_path / "ic.csv", tmp_path / "oc.csv"
        np.savetxt(ic_path, ic, delimiter=",")
        np.savetxt(oc_path, oc, delimiter=",")
        stream = ingest_csv(oc_path, reference=ic_path)
        ref_mean = ic.mean(axis=0)
        ref_std = ic.std(axis=0)
        np.testing.assert_allclose(
            stream.mean(axis=0),
            (oc.mean(axis=0) - ref_mean) / ref_std,
            atol=1e-10,
        )
        assert np.all(np.abs(stream.mean(axis=0)) > 1.0)

    def test_ragged_row_located(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ConfigError, match="row 1"):
            ingest_csv(path)

    def test_non_numeric_located(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ConfigError, match="row 1.*column 1"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_located(self, tmp_path, cell):
        path = tmp_path / "n.csv"
        path.write_text(f"1,2\n3,4\n5,{cell}\n")
        with pytest.raises(ConfigError, match="non-finite.*row 2.*column 1"):
            ingest_csv(path)

    def test_constant_reference_column_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,5\n2,5\n3,5\n")
        with pytest.raises(ConfigError, match="column 1"):
            ingest_csv(path, reference=path)


class TestReplayMonitor:
    def _stream(self, scenario, change, seed=3):
        y, _ = simulate_stream(
            scenario.model, change, scenario.n0 + scenario.horizon_cap, seed=seed
        )
        return y

    def _calibrated(self):
        scenario = mini_scenario(h=None)
        spec = CalibrationSpec(
            target_add_ic=12.0, replications=150, horizon_cap=60, seed=21, tol=0.1
        )
        res = calibrate_h(spec, replace(scenario, changes=()))
        return replace(scenario, window=replace(scenario.window, h=res.h)), res

    def test_too_short_rejected(self):
        scenario = mini_scenario()
        stream = np.zeros((5, 3))
        with pytest.raises(ValueError, match="shorter"):
            replay_monitor(stream, scenario)

    def test_wrong_width_rejected(self):
        scenario = mini_scenario()
        stream = np.zeros((50, 5))
        with pytest.raises(ConfigError, match="columns"):
            replay_monitor(stream, scenario)
        with pytest.raises(ConfigError, match=r"^stream of shape \(50,\) does not have p=3"):
            replay_monitor(np.zeros(50), scenario)

    def test_constant_zero_stream_is_robust(self):
        scenario = replace(mini_scenario(), horizon_cap=500)
        stream = np.zeros((508, 3))
        record = replay_monitor(stream, scenario)
        assert np.all(np.isfinite(record.t_stats))

    def test_ic_replay_alarm_rate_closes_loop(self):
        """Replaying simulated IC streams reproduces the calibrated ADD_IC."""
        scenario, res = self._calibrated()
        times = []
        for seed in range(120):
            record = replay_monitor(
                self._stream(scenario, ChangeSpec.none(2), seed=seed), scenario
            )
            times.append(
                record.alarm_time if record.alarm_time else scenario.horizon_cap
            )
        assert abs(np.mean(times) - 12.0) / 12.0 < 0.25

    def test_injected_shift_detected_quickly(self):
        scenario, _ = self._calibrated()
        change = ChangeSpec(tau=scenario.n0, f=np.array([1.5, 0.0]))
        alarms = []
        for seed in range(40):
            record = replay_monitor(self._stream(scenario, change, seed=seed), scenario)
            alarms.append(
                record.alarm_time if record.alarm_time else scenario.horizon_cap
            )
        assert np.median(alarms) <= 10

    def test_masks_recorded(self):
        scenario = mini_scenario()
        record = replay_monitor(self._stream(scenario, ChangeSpec.none(2)), scenario)
        assert record.masks
        assert all(len(m) == 2 for m in record.masks)


class TestEmitOutputs:
    def _cell(self, **kw):
        base = dict(
            scenario="mini",
            policy="random",
            f=0.5,
            add=10.25,
            sdd=3.5,
            n_reps=100,
            censored=0.0,
            h=7.0,
        )
        base.update(kw)
        return CellResult(**base)

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs(ResultTable([]), tmp_path)

    def test_one_cell_two_files(self, tmp_path):
        written = emit_outputs(ResultTable([self._cell()]), tmp_path)
        assert sorted(Path(w).name for w in written) == [
            "plot_mini.csv",
            "results.csv",
        ]
        lines = (tmp_path / "results.csv").read_bytes().split(b"\n")
        assert lines[0] == b"scenario,policy,f,ADD,SDD,n_reps,censored,h"
        assert len([l for l in lines if l]) == 2
        assert b"\r" not in (tmp_path / "results.csv").read_bytes()

    def test_float_round_trip(self, tmp_path):
        add = 1.0 / 3.0
        emit_outputs(ResultTable([self._cell(add=add)]), tmp_path)
        row = (tmp_path / "results.csv").read_text().splitlines()[1]
        assert float(row.split(",")[3]) == add

    def test_plot_file_wide_form(self, tmp_path):
        cells = [
            self._cell(policy="random", f=0.2, add=30.0),
            self._cell(policy="random", f=0.4, add=20.0),
            self._cell(policy="e_aucrss", f=0.2, add=25.0),
            self._cell(policy="e_aucrss", f=0.4, add=15.0),
        ]
        emit_outputs(ResultTable(cells), tmp_path)
        lines = (tmp_path / "plot_mini.csv").read_text().splitlines()
        assert lines[0] == "f,ADD_e_aucrss,ADD_random"
        assert lines[1].startswith("0.2,")
        assert len(lines) == 3

    def test_golden_file(self, tmp_path):
        """Byte-identical output for a fixed-seed miniature scenario."""
        table = run_scenario(mini_scenario())
        emit_outputs(table, tmp_path)
        got = (tmp_path / "results.csv").read_bytes()
        golden = DATA_DIR / "golden_results.csv"
        assert got == golden.read_bytes()


def test_failed_cell_recorded_not_raised():
    """A failing grid cell is reported in the table; the sweep continues."""
    scenario = mini_scenario()
    bad = replace(
        scenario,
        changes=(ChangeSpec(tau=59, f=np.array([1.0, 0.0])),),
        window=replace(scenario.window, h=1e9),
        horizon_cap=60,
    )
    # Every run censors at the cap with tau close to it; estimate_add then
    # has no uncensored replication and the cell records the failure.
    table = run_scenario(bad)
    cell = table.cells[0]
    assert cell.error is not None
    assert cell.add is None
