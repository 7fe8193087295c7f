import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pocpd.calibration import CalibrationSpec, calibrate_h
from pocpd.errors import ConfigError
from pocpd.harness import (
    CellResult,
    RecordedStream,
    ResultTable,
    emit_outputs,
    ingest_csv,
    replay_monitor,
    run_scenario,
)
from pocpd.model import ChangeSpec, ModelParams, simulate_stream
from pocpd.detector import WindowConfig
from pocpd.monitor import Policy, Scenario

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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


class TestIngestCsv:
    def test_zeros_none(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n0,0\n0,0\n")
        stream = ingest_csv(path, normalization="none")
        np.testing.assert_array_equal(stream.data, np.zeros((3, 2)))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        stream = ingest_csv(path)
        np.testing.assert_array_equal(stream.data, [[1, 2], [3, 4]])

    def test_zscore_self_reference(self, tmp_path, rng):
        path = tmp_path / "s.csv"
        data = rng.normal(size=(50, 4)) * 3 + 1
        np.savetxt(path, data, delimiter=",")
        stream = ingest_csv(path, normalization="zscore-from-reference")
        assert np.all(np.abs(stream.data.mean(axis=0)) < 1e-12)
        assert np.all(np.abs(stream.data.std(axis=0) - 1.0) < 1e-12)

    def test_zscore_external_reference_leaves_shift(self, tmp_path, rng):
        """IC reference statistics applied to a shifted run: means stay off 0."""
        ic = rng.normal(size=(500, 6))
        oc = rng.normal(size=(500, 6)) + 2.0
        ic_path, oc_path = tmp_path / "ic.csv", tmp_path / "oc.csv"
        np.savetxt(ic_path, ic, delimiter=",")
        np.savetxt(oc_path, oc, delimiter=",")
        stream = ingest_csv(
            oc_path, normalization="zscore-from-reference", reference=ic_path
        )
        ref_mean = ic.mean(axis=0)
        ref_std = ic.std(axis=0)
        np.testing.assert_allclose(
            stream.data.mean(axis=0),
            (oc.mean(axis=0) - ref_mean) / ref_std,
            atol=1e-10,
        )
        assert np.all(np.abs(stream.data.mean(axis=0)) > 1.0)

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
            ingest_csv(path, normalization="zscore-from-reference")

    def test_unknown_normalization(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1\n")
        with pytest.raises(ConfigError, match="normalization"):
            ingest_csv(path, normalization="minmax")


class TestReplayMonitor:
    def _stream(self, scenario, change, seed=3):
        y, _ = simulate_stream(
            scenario.model, change, scenario.n0 + scenario.horizon_cap, seed=seed
        )
        return RecordedStream(
            data=y,
            column_mean=np.zeros(3),
            column_std=np.ones(3),
            source="sim",
        )

    def _calibrated(self):
        scenario = mini_scenario(h=None)
        spec = CalibrationSpec(
            target_add_ic=12.0, replications=150, horizon_cap=60, seed=21, tol=0.1
        )
        res = calibrate_h(spec, replace(scenario, changes=()))
        return replace(scenario, window=replace(scenario.window, h=res.h)), res

    def test_too_short_rejected(self):
        scenario = mini_scenario()
        stream = RecordedStream(
            data=np.zeros((5, 3)),
            column_mean=np.zeros(3),
            column_std=np.ones(3),
            source="x",
        )
        with pytest.raises(ValueError, match="shorter"):
            replay_monitor(stream, scenario)

    def test_wrong_width_rejected(self):
        scenario = mini_scenario()
        stream = RecordedStream(
            data=np.zeros((50, 5)),
            column_mean=np.zeros(5),
            column_std=np.ones(5),
            source="x",
        )
        with pytest.raises(ConfigError, match="columns"):
            replay_monitor(stream, scenario)

    def test_constant_zero_stream_is_robust(self):
        scenario = replace(mini_scenario(), horizon_cap=500)
        stream = RecordedStream(
            data=np.zeros((508, 3)),
            column_mean=np.zeros(3),
            column_std=np.ones(3),
            source="zeros",
        )
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
