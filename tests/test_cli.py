import json

import numpy as np
import pytest

from pocpd.calibration import calibrate_h
from pocpd.cli import main
from pocpd.config import parse_config
from pocpd.errors import ConfigError
from pocpd.monitor import Policy
from pocpd.sampler import AlphaSchedule


def mini_config_doc():
    return {
        "model": {
            "A": [[0.5, 0.0], [0.0, 0.4]],
            "C": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            "sigma_q": 0.1,
            "sigma_r": 0.1,
        },
        "window": {"m1": 12, "m2": 1},
        "policy": {"name": "e_aucrss"},
        "sampling": {"m": 2, "n0": 8},
        "experiment": {
            "grid": [0.0, 1.0],
            "replications": 15,
            "horizon_cap": 60,
            "seed": 5,
        },
        "calibration": {
            "target_add_ic": 12.0,
            "replications": 100,
            "horizon_cap": 60,
            "tol": 0.1,
        },
    }


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(mini_config_doc()))
    return str(path)


class TestParseConfig:
    def test_defaults_resolve_builtin(self):
        cfg = parse_config({})
        assert cfg.scenario_name == "bench-p10"
        assert cfg.model.p == 10
        assert cfg.policy.kind == "e_aucrss"
        assert isinstance(cfg.policy.alpha, AlphaSchedule)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"bogus": {}})

    def test_missing_key_path(self):
        doc = mini_config_doc()
        del doc["model"]["A"]
        with pytest.raises(ConfigError, match="model.A"):
            parse_config(doc)

    def test_bad_matrix_entry_path(self):
        doc = mini_config_doc()
        doc["model"]["A"][1][0] = "x"
        with pytest.raises(ConfigError, match=r"model.A\[1\]\[0\]"):
            parse_config(doc)

    def test_dimension_mismatch(self):
        doc = mini_config_doc()
        doc["model"]["C"] = [[1.0, 0.0, 0.0]]
        with pytest.raises(ConfigError, match="model.C"):
            parse_config(doc)

    def test_m_bounds_checked(self):
        doc = mini_config_doc()
        doc["sampling"]["m"] = 9
        with pytest.raises(ConfigError, match="sampling.m"):
            parse_config(doc)

    def test_alpha_constant_and_schedule(self):
        doc = mini_config_doc()
        doc["policy"]["alpha"] = 0.3
        assert parse_config(doc).policy.alpha == 0.3
        doc["policy"]["alpha"] = {
            "d": 15,
            "l": 6.67,
            "alpha_min": 0.1,
            "alpha_max": 0.85,
        }
        assert isinstance(parse_config(doc).policy.alpha, AlphaSchedule)

    def test_grid_objects(self):
        doc = mini_config_doc()
        doc["experiment"]["grid"] = [{"tau": 3, "f": [0.5, 0.0]}, 0.2]
        cfg = parse_config(doc)
        assert cfg.changes[0].tau == 3
        assert cfg.changes[1].f[0] == 0.2

    def test_scenario_roundtrip(self):
        cfg = parse_config(mini_config_doc())
        scenario = cfg.scenario()
        assert scenario.m == 2
        assert scenario.replications == 15


class TestSimulate:
    def test_deterministic_bytes(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert (
                main(
                    ["--config", cfg_path, "--out", str(out), "simulate",
                     "--horizon", "10", "--seed", "1"]
                )
                == 0
            )
        assert (out1 / "stream.csv").read_bytes() == (out2 / "stream.csv").read_bytes()

    def test_noiseless_zero_stream(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--config", cfg_path, "--out", str(out), "simulate", "--horizon", "5",
             "--shift", "0", "--sigma-q", "0", "--sigma-r", "0"]
        )
        assert code == 0
        data = np.loadtxt(out / "stream.csv", delimiter=",")
        np.testing.assert_array_equal(data, np.zeros((5, 3)))

    def test_builtin_shape(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "simulate", "--horizon", "500"]) == 0
        data = np.loadtxt(out / "stream.csv", delimiter=",")
        assert data.shape == (500, 10)

    def test_global_flags_both_positions(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg_path, "--out", str(out1), "--seed", "7",
              "simulate", "--horizon", "6"])
        main(["simulate", "--config", cfg_path, "--out", str(out2), "--seed", "7",
              "--horizon", "6"])
        assert (out1 / "stream.csv").read_bytes() == (out2 / "stream.csv").read_bytes()


class TestCalibrate:
    def test_report_and_determinism(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--config", cfg_path, "--out", str(out), "calibrate"]) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert abs(report["achieved_add_ic"] - 12.0) / 12.0 <= 0.1
        h1 = report["h"]
        assert main(["--config", cfg_path, "--out", str(out), "calibrate"]) == 0
        assert json.loads((out / "calibration.json").read_text())["h"] == h1
        assert "h = " in capsys.readouterr().out

    def test_unreachable_tolerance_exits_3(self, tmp_path, capsys):
        # One bisection step cannot pin a 0.01% tolerance: the search gives
        # up and reports its best h.
        doc = mini_config_doc()
        doc["calibration"].update({"max_iters": 1, "tol": 1e-4})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out", str(tmp_path / "o"), "calibrate"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestBenchmark:
    def test_policy_subset_rows(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--config", cfg_path, "--out", str(out), "benchmark",
             "--policies", "e_aucrss,random"]
        )
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        policies = sorted({r.split(",")[1] for r in rows})
        assert policies == ["e_aucrss", "random"]
        assert len(rows) == 4  # 2 policies x 2 grid cells

    def test_each_policy_at_its_own_h(self, tmp_path):
        # A short calibration whose bisections end at different h per policy.
        doc = mini_config_doc()
        doc["calibration"].update(target_add_ic=8.0, horizon_cap=40, tol=0.05)
        doc["experiment"]["replications"] = 5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(
            ["--config", str(path), "--out", str(out), "benchmark",
             "--policies", "e_aucrss,random"]
        )
        assert code == 0
        rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
        cfg = parse_config(doc)
        direct = {
            policy.kind: calibrate_h(
                cfg.calibration, cfg.scenario(changes=(), policy=policy)
            ).h
            for policy in (cfg.policy, Policy(kind="random"))
        }
        assert direct["e_aucrss"] != direct["random"]
        for kind, h in direct.items():
            assert {float(r[7]) for r in rows if r[1] == kind} == {h}

    def test_unknown_policy_exits_2(self, cfg_path, tmp_path):
        code = main(
            ["--config", cfg_path, "--out", str(tmp_path / "o"), "benchmark",
             "--policies", "oracle"]
        )
        assert code == 2


class TestReplay:
    def test_round_trip(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        main(["--config", cfg_path, "--out", str(out), "simulate",
              "--horizon", "68", "--shift", "1.5", "--tau", "8"])
        doc = mini_config_doc()
        doc["window"]["h"] = 8.0
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(doc))
        code = main(
            ["--config", str(cfg2), "--out", str(out), "replay",
             "--input", str(out / "stream.csv")]
        )
        assert code == 0
        record = json.loads((out / "replay.json").read_text())
        assert record["alarm_time"] is not None
        assert len(record["masks"]) >= record["n0"]

    def test_wrong_width_exits_2(self, cfg_path, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join("1,2,3,4" for _ in range(60)) + "\n")
        code = main(
            ["--config", cfg_path, "--out", str(tmp_path / "o"), "replay",
             "--input", str(bad)]
        )
        assert code == 2
        assert "p=3" in capsys.readouterr().err

    def test_no_control_limit_exits_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        main(["--config", cfg_path, "--out", str(out), "simulate", "--horizon", "68"])
        code = main(
            ["--config", cfg_path, "--out", str(out), "replay",
             "--input", str(out / "stream.csv")]
        )
        assert code == 2
        assert "window.h" in capsys.readouterr().err
        assert not (out / "replay.json").exists()

    def test_missing_input_exits_4(self, cfg_path, tmp_path):
        code = main(
            ["--config", cfg_path, "--out", str(tmp_path / "o"), "replay",
             "--input", str(tmp_path / "none.csv")]
        )
        assert code == 4


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "simulate"]) == 2
    assert "configuration error" in capsys.readouterr().err
