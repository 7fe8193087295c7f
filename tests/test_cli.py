import ast
import dataclasses
import inspect
import json
import math
import re
import shlex
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pocpd import calibration
from pocpd.calibration import CalibrationSpec, calibrate_h
from pocpd.cli import _load, build_parser, main
from pocpd.config import _KEYS, parse_config
from pocpd.detector import WindowConfig
from pocpd.errors import ConfigError
from pocpd.model import ChangeSpec, ModelParams
from pocpd.monitor import Policy, Scenario
from pocpd.sampler import AlphaSchedule, adaptive_alpha
from pocpd.scenarios import DEFAULT_ALPHA_SCHEDULE, benchmark_p10_model


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
        assert cfg.base.name == "bench-p10"
        assert cfg.base.model.p == 10
        assert cfg.base.policy.kind == "e_aucrss"
        assert isinstance(cfg.base.policy.alpha, AlphaSchedule)

    def test_defaults_pinned(self):
        cfg = parse_config({})
        s = cfg.scenario()
        model = benchmark_p10_model()
        assert s.name == "bench-p10"
        np.testing.assert_array_equal(s.model.A, model.A)
        np.testing.assert_array_equal(s.model.C, model.C)
        assert (s.model.sigma_q, s.model.sigma_r) == (model.sigma_q, model.sigma_r)
        assert (s.m, s.n0) == (2, 50)
        assert s.window == WindowConfig(m1=50, m2=5, h=None)
        assert s.policy == Policy(kind="e_aucrss", alpha=DEFAULT_ALPHA_SCHEDULE)
        assert len(s.changes) == 1
        assert s.changes[0].tau == math.inf
        np.testing.assert_array_equal(s.changes[0].f, np.zeros(7))
        assert (s.replications, s.horizon_cap, s.seed) == (1000, 1000, 0)
        assert cfg.calibration == CalibrationSpec(target_add_ic=200.0, seed=0)
        assert parse_config({}, seed=4).calibration.seed == 4
        spec = parse_config({"calibration": {"target_add_ic": 200}}).calibration
        assert spec == CalibrationSpec(target_add_ic=200.0, seed=0)
        assert type(spec.target_add_ic) is float

    def test_calibration_keys_are_spec_fields(self):
        # Every CalibrationSpec field but workers (set by --threads) is a key.
        fields = {f.name for f in dataclasses.fields(CalibrationSpec)}
        assert set(_KEYS["calibration"]) == fields - {"workers"}

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config({"bogus": {}})

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"experiment": {"replication": 5}}, "experiment.replication"),
            ({"model": {"builtin": "bench-p10", "A": [[2.0]]}}, "model.A"),
            ({"calibration": {"target_add_ic": 200, "workers": 2}}, "calibration.workers"),
            ({"policy": {"alpha": {"d": 1, "l": 1, "alpha_min": 0.1, "alpha_max": 0.5,
                                   "alpha": 0.2}}}, "policy.alpha.alpha"),
            ({"experiment": {"grid": [{"f": [0.0] * 7, "t": 3}]}}, "experiment.grid[0].t"),
        ],
    )
    def test_unknown_key_named(self, doc, path):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key")):
            parse_config(doc)

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
        # A number is the flat schedule, whose alpha is that number at every T.
        flat = AlphaSchedule(d=0.0, l=1.0, alpha_min=0.3, alpha_max=0.3)
        doc = mini_config_doc()
        doc["policy"]["alpha"] = 0.3
        assert parse_config(doc).base.policy.alpha == flat
        assert {adaptive_alpha(t, flat) for t in (0.0, 0.2, 7.0, 1e300)} == {0.3}
        doc["policy"]["alpha"] = {
            "d": 15,
            "l": 6.67,
            "alpha_min": 0.1,
            "alpha_max": 0.85,
        }
        assert isinstance(parse_config(doc).base.policy.alpha, AlphaSchedule)
        # The random policy ignores alpha but keeps the parsed value.
        doc["policy"] = {"name": "random", "alpha": 0.3}
        assert parse_config(doc).base.policy.alpha == flat

    def test_grid_objects(self):
        doc = mini_config_doc()
        doc["experiment"]["grid"] = [{"tau": 3, "f": [0.5, 0.0]}, 0.2]
        cfg = parse_config(doc)
        assert cfg.base.changes[0].tau == 3
        assert cfg.base.changes[1].f[0] == 0.2

    def test_scenario_roundtrip(self):
        cfg = parse_config(mini_config_doc())
        scenario = cfg.scenario()
        assert scenario.m == 2
        assert scenario.replications == 15

    def test_readme_config_blocks_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert blocks
        for block in blocks:
            parse_config(json.loads(block))

    def test_readme_commands_parse(self):
        # Every `pocpd ...` line of the README's sh blocks is a valid command.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        lines = [
            line.split("#")[0]
            for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
            for line in block.splitlines()
            if line.startswith("pocpd ")
        ]
        assert lines
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_readme_paths_exist(self):
        root = Path(__file__).resolve().parent.parent
        paths = re.findall(r"`([\w.-]+/[\w./-]*)`", (root / "README.md").read_text())
        assert "perfbench/run.py" in paths
        assert [p for p in paths if not (root / p).exists()] == []

    def test_policy_arms(self):
        doc = mini_config_doc()
        doc["policy"] = [
            {"name": "random"},
            {"name": "e_aucrss", "alpha": 0.3, "label": "alpha=0.3"},
            {"name": "e_aucrss", "label": "schedule"},
        ]
        cfg = parse_config(doc)
        assert [(s.name, s.policy.kind) for s in cfg.arms] == [
            ("custom", "random"),
            ("custom-alpha=0.3", "e_aucrss"),
            ("custom-schedule", "e_aucrss"),
        ]
        assert cfg.arms[1].policy.alpha.alpha_max == 0.3
        assert cfg.arms[2].policy.alpha == DEFAULT_ALPHA_SCHEDULE
        # A single policy object may carry a label too.
        doc["policy"] = {"name": "random", "label": "r"}
        assert parse_config(doc).base.name == "custom-r"

    @pytest.mark.parametrize(
        "policy, message",
        [
            ([], "policy: expected an object or a non-empty array"),
            ([{"name": "random"}, 3], "policy[1]: expected an object"),
            ([{"name": "random", "label": "a/b"}], "policy[0].label: expected letters"),
            ([{"name": "random", "label": ""}], "policy[0].label: expected letters"),
            ([{"name": "oracle"}],
             "policy[0].name: kind must be one of ('aucrss', 'e_aucrss', 'random'), "
             "got 'oracle'"),
            ([{"name": "random"}, {"alpha": 1.5}],
             "policy[1].alpha: alpha_min must be in (0, 1), got 1.5"),
            ([{"label": "x"}, {"label": "y"}, {"alpha": 0.3, "label": "x"}],
             "policy[2]: same scenario and policy as policy[0]"),
            ([{"name": "random"}, {"name": "random", "alpha": 0.3}],
             "policy[1]: same scenario and policy as policy[0]"),
        ],
    )
    def test_bad_policy_arms(self, policy, message):
        doc = mini_config_doc()
        doc["policy"] = policy
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(doc)

    def test_io_section_is_unknown(self, tmp_path, capsys):
        # Paths are flags only: --out, --input and --reference.
        doc = {**mini_config_doc(), "io": {"out_dir": str(tmp_path / "o")}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "calibrate"]) == 2
        assert "io: unknown section" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_reaches_unset_calibration_seed(self, cfg_path, tmp_path):
        argv = ["--config", cfg_path, "--seed", "11", "calibrate"]
        cfg = _load(build_parser().parse_args(argv))
        assert (cfg.base.seed, cfg.calibration.seed) == (11, 11)
        doc = mini_config_doc()
        doc["calibration"]["seed"] = 3
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(doc))
        argv = ["--config", str(path), "--seed", "11", "calibrate"]
        cfg = _load(build_parser().parse_args(argv))
        assert (cfg.base.seed, cfg.calibration.seed) == (11, 3)


@pytest.mark.parametrize(
    "section, patch, message",
    [
        # The bisection bracket and step limit are constants, not keys.
        ("calibration", {"max_iters": 0, "tol": 1e-4}, "calibration.max_iters: unknown key"),
        ("calibration", {"seed": -1}, "seed must be >= 0"),
        ("calibration", {"workers": 2}, "calibration.workers: unknown key"),
        ("experiment", {"replications": 0},
         "experiment.replications: replications must be >= 1"),
        # The unset calibration.seed follows this seed; the error must still
        # name the experiment seed.
        ("experiment", {"seed": -1}, "experiment.seed: seed must be >= 0"),
        ("window", {"h": math.nan}, "window.h: expected a finite number or null"),
        ("window", {"h": math.inf}, "window.h: expected a finite number or null"),
        ("window", {"h": -math.inf}, "window.h: expected a finite number or null"),
        ("experiment", {"grid": [0.5, {"tau": -3, "f": [1.0, 0.0]}]},
         "experiment.grid[1].tau: tau must be a nonnegative integer"),
        ("experiment", {"grid": [{"tau": "x", "f": [1.0, 0.0]}]}, "experiment.grid[0].tau"),
        ("experiment", {"grid": [{"tau": True, "f": [1.0, 0.0]}]}, "experiment.grid[0].tau"),
        ("experiment", {"grid": [{"tau": 2.5, "f": [1.0, 0.0]}]}, "experiment.grid[0].tau"),
        ("experiment", {"grid": [{"f": ["a", 0.0]}]},
         "experiment.grid[0].f[0]: expected a finite number, got str"),
        ("experiment", {"grid": [{"f": [{}, 0.0]}]},
         "experiment.grid[0].f[0]: expected a finite number, got dict"),
        ("experiment", {"grid": [{"f": [math.nan, 0.0]}]},
         "experiment.grid[0].f[0]: expected a finite number, got nan"),
        ("model", {"sigma_q": -1.0}, "model.sigma_q: sigma_q must be nonnegative"),
        ("window", {"h": 10**400}, "window.h: expected a finite number or null, got inf"),
        ("calibration", {"target_add_ic": 10**400},
         "calibration.target_add_ic: expected a finite number, got inf"),
        ("model", {"sigma_q": math.inf}, "model.sigma_q: expected a finite number, got inf"),
        ("calibration", {"h_hi": math.inf}, "calibration.h_hi: unknown key"),
        ("policy", {"alpha": {"d": math.nan, "l": 1, "alpha_min": 0.1, "alpha_max": 0.5}},
         "policy.alpha.d: expected a finite number, got nan"),
        ("policy", {"alpha": {"d": 1, "l": 1, "alpha_min": 0.1, "alpha_max": 1.5}},
         "policy.alpha.alpha_max: alpha_max must be in [alpha_min, 1)"),
        ("window", {"m2": 12}, "window.m2: m2 must satisfy 0 <= m2 < m1"),
        ("calibration", {"h_lo": 300}, "calibration.h_lo: unknown key"),
        ("sampling", {"n0": 0}, "sampling.n0: n0 must be >= 1"),
        ("model", {"A": [[0.5, 0.0], [0.0, math.nan]]},
         "model.A[1][1]: expected a finite number, got nan"),
        ("experiment", {"grid": [10**400]}, "experiment.grid[0]: expected a finite number"),
        ("experiment", {"grid": [{"tau": 3, "f": ["1.5", 0.0]}]},
         "experiment.grid[0].f[0]: expected a finite number, got str"),
        ("experiment", {"grid": [{"tau": 3, "f": [0.0, True]}]},
         "experiment.grid[0].f[1]: expected a finite number, got bool"),
        # The result tables key a cell by max |f|: one shift of either sign,
        # one shift at two change points, or two in-control entries.
        ("experiment", {"grid": [0.5, -0.5]},
         "experiment.grid[1]: same shift magnitude (max |f| = 0.5) as experiment.grid[0]"),
        ("experiment", {"grid": [{"tau": 0, "f": [1.0, 0.0]}, {"tau": 5, "f": [0.0, -1.0]}]},
         "experiment.grid[1]: same shift magnitude (max |f| = 1) as experiment.grid[0]"),
        ("experiment", {"grid": [0.0, 0.2, {"tau": None, "f": [0.0, 0.0]}]},
         "experiment.grid[2]: same shift magnitude (max |f| = 0) as experiment.grid[0]"),
        ("experiment", {"grid": [{"tau": 4, "f": [0.0, 0.0]}, 0.0]},
         "experiment.grid[1]: same shift magnitude (max |f| = 0) as experiment.grid[0]"),
    ],
)
def test_out_of_range_config_exits_2(tmp_path, capsys, section, patch, message):
    doc = mini_config_doc()
    doc[section].update(patch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["--config", str(path), "--out", str(tmp_path / "o"), "calibrate"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "cls",
    [ModelParams, ChangeSpec, WindowConfig, AlphaSchedule, Policy, Scenario, CalibrationSpec],
)
def test_value_errors_start_with_a_field(cls):
    # config.build names the path of the field a ValueError message starts
    # with, so every check of a class the config builds must start that way.
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
    heads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and getattr(node.exc, "args", None):
            message = node.exc.args[0]
            if isinstance(message, ast.JoinedStr):
                message = message.values[0]
            text = message.value if isinstance(message, ast.Constant) else ""
            heads.append(text.split(" ", 1)[0])
    assert heads
    fields = {f.name for f in dataclasses.fields(cls)}
    assert [head for head in heads if head not in fields] == []


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        ({"model": {"builtin": "bench-p10", "sigma_q": -1.0}}, ["simulate"],
         "model.sigma_q: sigma_q must be nonnegative"),
        ({"model": {"builtin": "bench-p30", "sigma_r": -0.5}}, ["simulate"],
         "model.sigma_r: sigma_r must be nonnegative"),
        ({}, ["simulate", "--horizon", "0"], "--horizon: horizon must be >= 1"),
        ({}, ["simulate", "--horizon", "-3"], "--horizon: horizon must be >= 1"),
        ({}, ["simulate", "--threads", "0"], "--threads: workers must be >= 1"),
        ({}, ["--threads", "-4", "calibrate"], "--threads: workers must be >= 1"),
        ({"model": {"builtin": "bench-p10", "sigma_q": math.inf}}, ["simulate"],
         "model.sigma_q: expected a finite number, got inf"),
        ({"experiment": {"grid": [{"tau": -3, "f": [1.0] + [0.0] * 6}]}}, ["simulate"],
         "experiment.grid[0].tau: tau must be"),
        ({"experiment": {"grid": [{"tau": 2, "f": [math.nan] + [0.0] * 6}]}}, ["simulate"],
         "experiment.grid[0].f[0]: expected a finite number, got nan"),
        # simulate judges grid[0] whether or not it shifts anything.
        ({"experiment": {"grid": [{"tau": -3, "f": [0.0] * 7}]}}, ["simulate"],
         "experiment.grid[0].tau: tau must be"),
        ({}, ["--seed", "-1", "simulate"], "--seed: seed must be >= 0"),
        # The shift would start at row n0 + tau = 510, after the stream ends.
        ({"experiment": {"grid": [{"tau": 460, "f": [5.0] + [0.0] * 6}]}}, ["simulate"],
         "--horizon: the shift of experiment.grid[0] starts at row 510 (n0 + tau), "
         "after the last of 500 rows"),
        ({"experiment": {"grid": [{"tau": 460, "f": [5.0] + [0.0] * 6}]}},
         ["simulate", "--horizon", "510"], "--horizon: the shift of experiment.grid[0]"),
    ],
)
def test_bad_model_or_flag_exits_2(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["--config", str(path), "--out", str(tmp_path / "o")] + argv)
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not (tmp_path / "o").exists()


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

    def test_noiseless_zero_stream(self, tmp_path):
        doc = mini_config_doc()
        doc["model"].update(sigma_q=0, sigma_r=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["--config", str(path), "--out", str(out), "simulate", "--horizon", "5"])
        assert code == 0
        data = np.loadtxt(out / "stream.csv", delimiter=",")
        np.testing.assert_array_equal(data, np.zeros((5, 3)))

    def test_builtin_shape(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "simulate", "--horizon", "500"]) == 0
        data = np.loadtxt(out / "stream.csv", delimiter=",")
        assert data.shape == (500, 10)

    def test_tau_without_shift_is_in_control(self, tmp_path):
        """simulate writes experiment.grid[0]; a zero f at tau 5 is in control.
        tau counts monitoring steps, as in benchmark: with n0 = 8 the first
        shifted row is row 13."""
        streams = {}
        for name, grid in [("ic", [0.0, {"tau": 5, "f": [1.0, 0.0]}]),
                           ("tau", [{"tau": 5, "f": [0.0, 0.0]}]),
                           ("shift", [{"tau": 5, "f": [1.0, 0.0]}])]:
            doc = mini_config_doc()
            doc["experiment"]["grid"] = grid
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / name
            argv = ["--config", str(path), "--out", str(out), "simulate", "--horizon", "20"]
            assert main(argv) == 0
            streams[name] = (out / "stream.csv").read_bytes().splitlines()
        assert streams["tau"] == streams["ic"]
        assert streams["shift"][:13] == streams["ic"][:13]
        assert streams["shift"][13] != streams["ic"][13]

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
        # Over 100 replications every ADD is a multiple of 0.01, so a target
        # of 11.995 is never within 0.01 % (0.0012): the search gives up.
        doc = mini_config_doc()
        doc["calibration"].update({"target_add_ic": 11.995, "tol": 1e-4})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out", str(tmp_path / "o"), "calibrate"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: bisection did not reach tol=0.0001 in 40 iterations" in err


class TestBenchmark:
    def test_empty_grid_exits_2_before_calibrating(self, tmp_path, capsys, monkeypatch):
        """An empty grid has no cell to sweep: benchmark says so before it
        calibrates h (unset here) or writes a file, while simulate still
        writes the in-control stream."""
        import pocpd.cli

        def no_calibration(*args):
            raise AssertionError("calibrate_h called")

        monkeypatch.setattr(pocpd.cli, "calibrate_h", no_calibration)
        doc = mini_config_doc()
        doc["experiment"]["grid"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "benchmark"]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: experiment.grid: benchmark needs at least "
                       "one shift to sweep\n")
        assert not (out / "results.csv").exists() and not out.exists()
        argv = ["--config", str(path), "--out", str(out), "simulate", "--horizon", "20"]
        assert main(argv) == 0
        assert (out / "stream.csv").exists()

    @pytest.mark.parametrize("tau", [60, 75])
    def test_unreachable_change_point_exits_2_before_calibrating(
        self, tmp_path, capsys, monkeypatch, tau
    ):
        """With horizon_cap 60 the last monitored step is 60, and a change at
        tau >= 60 first shifts step tau + 1: no replication could measure
        its delay.  benchmark says so before it calibrates; simulate, whose
        length is --horizon, still writes the stream."""
        import pocpd.cli

        def no_calibration(*args):
            raise AssertionError("calibrate_h called")

        monkeypatch.setattr(pocpd.cli, "calibrate_h", no_calibration)
        doc = mini_config_doc()
        doc["experiment"]["grid"] = [{"tau": tau, "f": [1.0, 0.0]}, 0.0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "benchmark"]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: experiment.grid[0].tau: the change at tau {tau} "
                       "is never monitored: its first shifted step is past "
                       "experiment.horizon_cap 60\n")
        assert not out.exists()
        argv = ["--config", str(path), "--out", str(out), "simulate", "--horizon", "100"]
        assert main(argv) == 0
        assert (out / "stream.csv").exists()

    def test_policy_subset_rows(self, tmp_path):
        doc = mini_config_doc()
        doc["policy"] = [{"name": "e_aucrss"}, {"name": "random"}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "benchmark"]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        policies = sorted({r.split(",")[1] for r in rows})
        assert policies == ["e_aucrss", "random"]
        assert len(rows) == 4  # 2 policies x 2 grid cells

    def test_each_policy_at_its_own_h(self, tmp_path):
        # A short calibration whose bisections end at different h per policy.
        doc = mini_config_doc()
        doc["calibration"].update(target_add_ic=8.0, horizon_cap=40, tol=0.05)
        doc["experiment"]["replications"] = 5
        doc["policy"] = [{"name": "e_aucrss"}, {"name": "random"}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "benchmark"]) == 0
        rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
        cfg = parse_config(doc)
        direct = {
            arm.policy.kind: calibrate_h(cfg.calibration, arm).h
            for arm in cfg.arms
        }
        assert direct["e_aucrss"] != direct["random"]
        for kind, h in direct.items():
            assert {float(r[7]) for r in rows if r[1] == kind} == {h}

    def test_threads_leave_the_tables_byte_identical(self, tmp_path, monkeypatch):
        # Blocks of 4: each arm's 15 replications run in four blocks, which
        # one process runs in turn or two workers share.
        monkeypatch.setattr(calibration, "IC_BLOCK", 4)
        doc = mini_config_doc()
        doc["window"]["h"] = 6.0
        doc["policy"] = [{"name": "aucrss"}, {"name": "e_aucrss"}, {"name": "random"}]
        doc["experiment"]["grid"] = [
            {"tau": None, "f": [0.0, 0.0]}, {"tau": 6, "f": [0.8, 0.0]}, {"tau": 10, "f": [0.0, 1.0]}
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            argv = ["--config", str(path), "--out", str(out), "--threads", threads, "benchmark"]
            assert main(argv) == 0
            tables.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert sorted(tables[0]) == ["plot_custom.csv", "results.csv"]
        assert tables[0] == tables[1]

    @pytest.mark.filterwarnings("error")
    def test_rank_deficient_arms_run_without_warning(self, tmp_path):
        # m * m2 = 1 < q = 2: the scan skips rank-deficient candidates, and
        # neither parsing nor calibrating the arms warns about it.
        doc = mini_config_doc()
        doc["sampling"]["m"] = 1
        doc["policy"] = [{"name": "e_aucrss"}, {"name": "random"}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "benchmark"]) == 0

    def test_policy_arms_each_at_its_own_h(self, tmp_path):
        doc = mini_config_doc()
        doc["calibration"].update(target_add_ic=8.0, horizon_cap=40, tol=0.05)
        doc["experiment"]["replications"] = 5
        doc["policy"] = [
            {"name": "e_aucrss", "label": "schedule"},
            {"name": "e_aucrss", "alpha": 0.05, "label": "alpha=0.05"},
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "benchmark"]) == 0
        rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], float(r[2])) for r in rows] == [
            (name, "e_aucrss", f)
            for name in ("custom-schedule", "custom-alpha=0.05")
            for f in (0.0, 1.0)
        ]
        cfg = parse_config(doc)
        direct = {
            arm.name: calibrate_h(cfg.calibration, arm).h
            for arm in cfg.arms
        }
        assert direct["custom-schedule"] != direct["custom-alpha=0.05"]
        for name, h in direct.items():
            assert {float(r[7]) for r in rows if r[0] == name} == {h}
        assert sorted(p.name for p in out.glob("plot_*.csv")) == [
            "plot_custom-alpha=0.05.csv", "plot_custom-schedule.csv"
        ]

    @pytest.mark.parametrize(
        "policy, argv, message",
        [
            ([{"label": "x"}, {"label": "x", "alpha": 0.3}], ["benchmark"],
             "policy[1]: same scenario and policy as policy[0]"),
            ([{"name": "random"}, {"name": "e_aucrss"}, {"name": "random"}], ["benchmark"],
             "policy[2]: same scenario and policy as policy[0]"),
            ([], ["benchmark"], "policy: expected an object or a non-empty array"),
            ([{"name": "random"}, {"name": "e_aucrss"}], ["calibrate"],
             "policy: lists 2 arms, but this command takes one policy"),
            ([{"name": "random"}, {"name": "e_aucrss"}], ["replay", "--input", "x.csv"],
             "policy: lists 2 arms, but this command takes one policy"),
        ],
    )
    def test_arm_conflicts_exit_2(self, tmp_path, capsys, policy, argv, message):
        doc = mini_config_doc()
        doc["policy"] = policy
        doc["window"]["h"] = 5.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out", str(tmp_path / "o")] + argv)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_unknown_policy_exits_2(self, tmp_path, capsys):
        # Every entry is checked before the first calibration starts.
        for i, policy in enumerate(([{"name": "oracle"}],
                                    [{"name": "e_aucrss"}, {"name": "oracle"}])):
            doc = mini_config_doc()
            doc["policy"] = policy
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            code = main(["--config", str(path), "--out", str(tmp_path / "o"), "benchmark"])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert (
                f"policy[{i}].name: kind must be one of ('aucrss', 'e_aucrss', 'random'), "
                "got 'oracle'"
            ) in err
            assert not (tmp_path / "o").exists()


class TestReplay:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "o"
        doc = mini_config_doc()
        doc["experiment"]["grid"] = [{"tau": 8, "f": [1.5, 0.0]}]
        cfg1 = tmp_path / "cfg1.json"
        cfg1.write_text(json.dumps(doc))
        assert main(["--config", str(cfg1), "--out", str(out), "simulate",
                     "--horizon", "68"]) == 0
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

    def test_short_stream_exits_2(self, cfg_path, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("\n".join("1,2,3" for _ in range(5)) + "\n")
        code = main(
            ["--config", cfg_path, "--out", str(tmp_path / "o"), "replay",
             "--input", str(short)]
        )
        assert code == 2
        assert "shorter" in capsys.readouterr().err

    @staticmethod
    def _config_with_h(tmp_path) -> str:
        doc = mini_config_doc()
        doc["window"]["h"] = 8.0
        path = tmp_path / "cfg_h.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _replay(self, tmp_path, name, *flags):
        """replay.json of the mini config at h = 8, without its source path."""
        out = tmp_path / name
        cfg = self._config_with_h(tmp_path)
        assert main(["--config", cfg, "--out", str(out), "replay", *flags]) == 0
        record = json.loads((out / "replay.json").read_text())
        del record["source"]
        return record

    def test_reference_zscores_the_stream(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(80, 3)) * 0.4
        data[40:, 0] += 1.0
        ref = rng.normal(size=(60, 3)) * [0.2, 0.5, 1.0] + [0.3, -0.1, 2.0]
        zscored = (data - ref.mean(axis=0)) / ref.std(axis=0)
        paths = {}
        for name, matrix in (("data", data), ("ref", ref), ("z", zscored)):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(
                "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)
            )
        got = self._replay(
            tmp_path, "by_ref", "--input", str(paths["data"]), "--reference", str(paths["ref"])
        )
        assert got == self._replay(tmp_path, "z", "--input", str(paths["z"]))
        assert got != self._replay(tmp_path, "raw", "--input", str(paths["data"]))

    def test_zscore_overflow_exits_2(self, tmp_path, capsys):
        # A tiny but nonzero reference spread carries 1e300 past the float range.
        ref = tmp_path / "ref.csv"
        ref.write_text("".join(f"{(i % 2) * 1e-150!r},{i},{-i}\n" for i in range(20)))
        data = tmp_path / "data.csv"
        data.write_text("".join(f"1e300,{i},{i}\n" for i in range(20)))
        code = main(
            ["--config", self._config_with_h(tmp_path), "--out", str(tmp_path / "o"),
             "replay", "--input", str(data), "--reference", str(ref)]
        )
        assert code == 2
        assert "column 0 leaves the float range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_statistic_exits_3(self, tmp_path, capsys):
        # Finite but huge values make the scan statistics NaN.
        data = tmp_path / "data.csv"
        data.write_text("".join(f"1e300,{i},{i}\n" for i in range(20)))
        code = main(
            ["--config", self._config_with_h(tmp_path), "--out", str(tmp_path / "o"),
             "replay", "--input", str(data)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(r"absolute step \d+: scan statistic is not finite", err), err
        assert not (tmp_path / "o").exists()

    def test_missing_input_exits_4(self, cfg_path, tmp_path):
        code = main(
            ["--config", cfg_path, "--out", str(tmp_path / "o"), "replay",
             "--input", str(tmp_path / "none.csv")]
        )
        assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark", "--policies", "random"],
        ["simulate", "--shift", "1"],
        ["simulate", "--tau", "5"],
        ["simulate", "--sigma-q", "0"],
        ["simulate", "--sigma-r", "0"],
        ["replay", "--input", "x.csv", "--normalization", "zscore-from-reference"],
    ],
)
def test_settings_are_not_flags(cfg_path, tmp_path, capsys, argv):
    # Each of these is a config key: policy, experiment.grid, model.sigma_q/r.
    # z-scoring has no switch: giving --reference turns it on.
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg_path, "--out", str(tmp_path / "o")] + argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err
    assert not (tmp_path / "o").exists()


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "simulate"]) == 2
    assert "configuration error" in capsys.readouterr().err
