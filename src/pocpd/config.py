"""JSON configuration: schema checks and construction of library objects.

The split of validation: this module checks only the JSON shape (types,
unknown keys, required keys, and that every number is finite).  Every rule
on a value (ranges, dimensions, policy names) belongs to the library
dataclass that holds it.  `build` turns a ValueError from one of them into
a ConfigError naming the JSON path (or CLI flag) of the offending value,
e.g. "model.sigma_q", before any computation starts.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .calibration import CalibrationSpec
from .detector import WindowConfig
from .errors import ConfigError
from .model import ChangeSpec, ModelParams
from .monitor import Policy, Scenario
from .sampler import AlphaSchedule
from .scenarios import BUILT_IN_MODELS, DEFAULT_ALPHA_SCHEDULE, single_dim_shift

__all__ = ["Config", "build", "load_config", "parse_config"]

# JSON types of the calibration keys, each named after its CalibrationSpec field.
_CALIBRATION_TYPES = {
    "target_add_ic": (int, float),
    "replications": int,
    "tol": (int, float),
    "horizon_cap": int,
    "seed": int,
}

# A policy label is part of a file name and of an unquoted CSV field.
_LABEL = re.compile(r"[A-Za-z0-9_.=+-]+")

# The keys each section accepts; any other key is a ConfigError.
_KEYS = {
    "model": ("builtin", "sigma_q", "sigma_r", "A", "C"),
    "window": ("m1", "m2", "h"),
    "policy": ("name", "alpha", "label"),
    "sampling": ("m", "n0"),
    "experiment": ("replications", "horizon_cap", "seed", "grid"),
    "io": ("out_dir", "input_csv", "reference_csv"),
    "calibration": tuple(_CALIBRATION_TYPES),
}

# JSON path of each Scenario field a config sets.
_SCENARIO_PATHS = {
    "m": "sampling.m",
    "n0": "sampling.n0",
    "changes": "experiment.grid",
    "replications": "experiment.replications",
    "horizon_cap": "experiment.horizon_cap",
    "seed": "experiment.seed",
}

_REQUIRED = object()


def build(paths, make, /, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError re-raised as a ConfigError.

    Library checks start their message with the field they judge.  `paths`
    maps that field to the JSON path or CLI flag to name, or is the prefix
    of "<paths>.<field>".  A message naming no field of a `paths` mapping
    propagates unchanged.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        if not isinstance(paths, dict):
            path = f"{paths}.{field}"
        elif field in paths:
            path = paths[field]
        else:
            raise
        raise ConfigError(f"{path}: {exc}") from None


def _value(value, path: str, types, nullable: bool = False):
    """The JSON `value` at `path`, checked against `types`: int, str, list,
    or (int, float) for a number, which comes back as a finite float."""
    number = types == (int, float)
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and number:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf
        ok = math.isfinite(value)
    if not ok:
        expected = "a finite number" if number else types.__name__
        got = value if isinstance(value, float) else type(value).__name__
        null = " or null" if nullable else ""
        raise ConfigError(f"{path}: expected {expected}{null}, got {got}")
    return value


def _require(obj: dict, key: str, path: str, types, default=_REQUIRED):
    # A null value counts as absent where the default is None (unset).
    if key not in obj or obj[key] is None and default is None:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"{path}.{key}: missing required key")
    return _value(obj[key], f"{path}.{key}", types, nullable=default is None)


def _matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(
        isinstance(r, list) for r in obj
    ):
        raise ConfigError(f"{path}: expected a non-empty array of arrays")
    width = len(obj[0])
    for i, row in enumerate(obj):
        if len(row) != width:
            raise ConfigError(f"{path}[{i}]: ragged row, expected {width} entries")
        for j, v in enumerate(row):
            _value(v, f"{path}[{i}][{j}]", (int, float))
    return np.asarray(obj, dtype=float)


@dataclass(frozen=True)
class Config:
    """Validated configuration, ready to hand to the library.

    `arms` holds one Scenario per policy arm, in file order.  The arms
    differ only in name and policy.
    """

    arms: tuple
    out_dir: str
    input_csv: str | None
    reference_csv: str | None
    calibration: CalibrationSpec

    @property
    def base(self) -> Scenario:
        """The scenario of a single-policy config."""
        if len(self.arms) > 1:
            raise ConfigError(
                f"policy: lists {len(self.arms)} arms, but this command takes one policy"
            )
        return self.arms[0]

    @property
    def window(self) -> WindowConfig:
        return self.base.window

    def scenario(self, **overrides) -> Scenario:
        return replace(self.base, **overrides)


def _check_keys(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _object(value, path: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(value, path, allowed)
    return value


def _section(doc: dict, name: str, default=None) -> dict:
    return _object(doc.get(name, default or {}), name, _KEYS[name])


def _parse_model(section: dict, path: str) -> tuple[ModelParams, str]:
    builtin = section.get("builtin")
    if builtin is not None:
        # Built-in models keep their own noise defaults unless overridden.
        _check_keys(section, path, ("builtin", "sigma_q", "sigma_r"))
        if builtin not in BUILT_IN_MODELS:
            raise ConfigError(f"{path}.builtin: unknown built-in model {builtin!r}")
        kw = {
            key: _require(section, key, path, (int, float))
            for key in ("sigma_q", "sigma_r")
            if key in section
        }
        return build(path, BUILT_IN_MODELS[builtin], **kw), builtin
    model = build(
        path,
        ModelParams,
        A=_matrix(_require(section, "A", path, list), f"{path}.A"),
        C=_matrix(_require(section, "C", path, list), f"{path}.C"),
        sigma_q=_require(section, "sigma_q", path, (int, float), 0.1),
        sigma_r=_require(section, "sigma_r", path, (int, float), 0.1),
    )
    return model, "custom"


def _parse_alpha(value, path: str):
    if not isinstance(value, dict):
        return _value(value, path, (int, float))
    keys = ("d", "l", "alpha_min", "alpha_max")
    _check_keys(value, path, keys)
    return build(
        path, AlphaSchedule, **{k: _require(value, k, path, (int, float)) for k in keys}
    )


def _parse_policy(section, path: str) -> tuple[Policy, str | None]:
    _object(section, path, _KEYS["policy"])
    name = _require(section, "name", path, str, "e_aucrss")
    alpha = section.get("alpha")
    alpha = DEFAULT_ALPHA_SCHEDULE if alpha is None else _parse_alpha(alpha, f"{path}.alpha")
    label = _require(section, "label", path, str, None)
    if label is not None and not _LABEL.fullmatch(label):
        raise ConfigError(
            f"{path}.label: expected letters, digits and _.=+- only, got {label!r}"
        )
    paths = {"kind": f"{path}.name", "alpha": f"{path}.alpha"}
    return build(paths, Policy, kind=name, alpha=alpha), label


def _parse_arms(section) -> list:
    """(policy, label) per arm: one per entry of a policy array, else the
    policy object's."""
    if not isinstance(section, list):
        return [_parse_policy(section, "policy")]
    if not section:
        raise ConfigError("policy: expected an object or a non-empty array")
    arms = [_parse_policy(arm, f"policy[{i}]") for i, arm in enumerate(section)]
    # emit_outputs keys each plot_<scenario>.csv column by policy, so two
    # arms with the same scenario name and policy would overwrite each other.
    seen = {}
    for i, (policy, label) in enumerate(arms):
        j = seen.setdefault((label, policy.kind), i)
        if j != i:
            raise ConfigError(
                f"policy[{i}]: same scenario and policy as policy[{j}]; "
                "give one a distinct label"
            )
    return arms


def _parse_changes(grid, q: int, path: str) -> tuple:
    if not isinstance(grid, list):
        raise ConfigError(f"{path}: expected an array")
    changes = []
    for i, entry in enumerate(grid):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            changes.append(single_dim_shift(q, _value(entry, where, (int, float))))
            continue
        _check_keys(entry, where, ("tau", "f"))
        f = entry.get("f")
        if not isinstance(f, list) or len(f) != q:
            raise ConfigError(f"{where}.f: expected an array of length {q}")
        f = [_value(v, f"{where}.f[{j}]", (int, float)) for j, v in enumerate(f)]
        tau = entry.get("tau", 0)
        changes.append(build(where, ChangeSpec, tau=math.inf if tau is None else tau, f=f))
    return tuple(changes)


def parse_config(doc: dict, source: str = "<config>", seed: int | None = None) -> Config:
    """Validate `doc` and build the Config.  A `seed` given here (the CLI's
    --seed) replaces experiment.seed, and so also the default of an unset
    calibration.seed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    for key in doc:
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown section")

    model_sec = _section(doc, "model", {"builtin": "bench-p10"})
    model, builtin_name = _parse_model(model_sec, "model")

    window_sec = _section(doc, "window")
    window = build(
        "window",
        WindowConfig,
        m1=_require(window_sec, "m1", "window", int, 50),
        m2=_require(window_sec, "m2", "window", int, 5),
        h=_require(window_sec, "h", "window", (int, float), None),
    )

    arms = _parse_arms(doc.get("policy", {}))

    sampling = _section(doc, "sampling")
    exp = _section(doc, "experiment")
    shared = dict(
        model=model,
        m=_require(sampling, "m", "sampling", int, 2),
        n0=_require(sampling, "n0", "sampling", int, 50),
        window=window,
        changes=_parse_changes(exp.get("grid", [0.0]), model.q, "experiment.grid"),
        replications=_require(exp, "replications", "experiment", int, 1000),
        horizon_cap=_require(exp, "horizon_cap", "experiment", int, 1000),
        seed=_require(exp, "seed", "experiment", int, 0) if seed is None else seed,
    )
    # The arms are built before the CalibrationSpec: an unset
    # calibration.seed takes the experiment seed, judged here under its path.
    paths = _SCENARIO_PATHS if seed is None else {**_SCENARIO_PATHS, "seed": "--seed"}
    arms = tuple(
        build(
            paths,
            Scenario,
            name=builtin_name if label is None else f"{builtin_name}-{label}",
            policy=policy,
            **shared,
        )
        for policy, label in arms
    )

    io = _section(doc, "io")
    out_dir = _require(io, "out_dir", "io", str, ".")
    input_csv = _require(io, "input_csv", "io", str, None)
    reference_csv = _require(io, "reference_csv", "io", str, None)

    # CalibrationSpec owns the defaults, except that an unset seed follows
    # the experiment seed.  A calibration section must set target_add_ic;
    # without one, the target is 200.
    kw = {"seed": shared["seed"]}
    if doc.get("calibration") is None:
        kw["target_add_ic"] = 200.0
    else:
        cal = _section(doc, "calibration")
        for key, types in _CALIBRATION_TYPES.items():
            if key in cal or key == "target_add_ic":
                kw[key] = _require(cal, key, "calibration", types)
    cal = build("calibration", CalibrationSpec, **kw)
    return Config(
        arms=arms,
        out_dir=out_dir,
        input_csv=input_csv,
        reference_csv=reference_csv,
        calibration=cal,
    )


def load_config(path, seed: int | None = None) -> Config:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(doc, source=str(path), seed=seed)
