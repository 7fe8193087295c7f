"""JSON configuration: schema validation and construction of library objects.

Every validation failure raises ConfigError naming the JSON path of the
offending value (e.g. "model.sigma_q"), before any computation starts.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .calibration import CalibrationSpec
from .detector import WindowConfig
from .errors import ConfigError
from .model import ChangeSpec, ModelParams
from .monitor import POLICY_NAMES, Policy, Scenario
from .sampler import AlphaSchedule
from .scenarios import BUILT_IN_MODELS, DEFAULT_ALPHA_SCHEDULE, single_dim_shift

__all__ = ["Config", "load_config", "parse_config"]

# JSON types of the calibration keys, each named after its CalibrationSpec field.
_CALIBRATION_TYPES = {
    "target_add_ic": (int, float),
    "replications": int,
    "h_lo": (int, float),
    "h_hi": (int, float),
    "tol": (int, float),
    "max_iters": int,
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

_REQUIRED = object()


def _require(obj: dict, key: str, path: str, types, default=_REQUIRED):
    # A null value counts as absent where the default is None (unset).
    if key not in obj or obj[key] is None and default is None:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"{path}.{key}: missing required key")
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool) and types != bool:
        names = types.__name__ if isinstance(types, type) else "/".join(
            t.__name__ for t in types
        )
        raise ConfigError(
            f"{path}.{key}: expected {names}, got {type(value).__name__}"
        )
    return value


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
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{path}[{i}][{j}]: expected a number")
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
    calibration: CalibrationSpec | None

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
        build, name = partial(BUILT_IN_MODELS[builtin], **kw), builtin
    else:
        sigma_q = _require(section, "sigma_q", path, (int, float), 0.1)
        sigma_r = _require(section, "sigma_r", path, (int, float), 0.1)
        a = _matrix(_require(section, "A", path, list), f"{path}.A")
        c = _matrix(_require(section, "C", path, list), f"{path}.C")
        if a.shape[0] != a.shape[1]:
            raise ConfigError(f"{path}.A: must be square, got {a.shape}")
        if c.shape[1] != a.shape[0]:
            raise ConfigError(
                f"{path}.C: has {c.shape[1]} columns but A is {a.shape[0]}x{a.shape[0]}"
            )
        build = partial(ModelParams, A=a, C=c, sigma_q=sigma_q, sigma_r=sigma_r)
        name = "custom"
    try:
        return build(), name
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_alpha(value, path: str):
    if isinstance(value, dict):
        _check_keys(value, path, ("d", "l", "alpha_min", "alpha_max"))
        try:
            return AlphaSchedule(
                d=float(_require(value, "d", path, (int, float))),
                l=float(_require(value, "l", path, (int, float))),
                alpha_min=float(_require(value, "alpha_min", path, (int, float))),
                alpha_max=float(_require(value, "alpha_max", path, (int, float))),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{path}: expected a number or a schedule object")


def _parse_policy(section, path: str) -> tuple[Policy, str | None]:
    _object(section, path, _KEYS["policy"])
    name = _require(section, "name", path, str, "e_aucrss")
    if name not in POLICY_NAMES:
        raise ConfigError(
            f"{path}.name: unknown policy {name!r}, expected one of {POLICY_NAMES}"
        )
    alpha = section.get("alpha")
    alpha = DEFAULT_ALPHA_SCHEDULE if alpha is None else _parse_alpha(alpha, f"{path}.alpha")
    label = _require(section, "label", path, str, None)
    if label is not None and not _LABEL.fullmatch(label):
        raise ConfigError(
            f"{path}.label: expected letters, digits and _.=+- only, got {label!r}"
        )
    try:
        # The random policy ignores alpha; it is kept for `--policies`.
        return Policy(kind=name, alpha=alpha), label
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_arms(section, policies: str | None) -> list:
    """(policy, label) per arm: one per entry of a policy array, else one
    per kind of `policies` (the CLI's --policies, a comma-separated list)
    with the policy object's alpha and label, else the policy object."""
    if isinstance(section, list):
        if not section:
            raise ConfigError("policy: expected an object or a non-empty array")
        if policies is not None:
            raise ConfigError("--policies: the config already lists its policy arms")
        arms = [_parse_policy(arm, f"policy[{i}]") for i, arm in enumerate(section)]
        where = "policy"
    else:
        policy, label = _parse_policy(section, "policy")
        kinds = [policy.kind] if policies is None else policies.split(",")
        try:
            arms = [(replace(policy, kind=kind.strip()), label) for kind in kinds]
        except ValueError as exc:
            raise ConfigError(f"--policies: {exc}") from None
        where = "--policies"
    # emit_outputs keys each plot_<scenario>.csv column by policy, so two
    # arms with the same scenario name and policy would overwrite each other.
    seen = {}
    for i, (policy, label) in enumerate(arms):
        j = seen.setdefault((label, policy.kind), i)
        if j != i:
            raise ConfigError(
                f"{where}[{i}]: same scenario and policy as {where}[{j}]; "
                "give one a distinct label"
            )
    return arms


def _parse_changes(grid, q: int, path: str) -> tuple:
    if not isinstance(grid, list):
        raise ConfigError(f"{path}: expected an array")
    changes = []
    for i, entry in enumerate(grid):
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            changes.append(single_dim_shift(q, float(entry)))
        elif isinstance(entry, dict):
            _check_keys(entry, f"{path}[{i}]", ("tau", "f"))
            f = entry.get("f")
            if not isinstance(f, list) or len(f) != q:
                raise ConfigError(f"{path}[{i}].f: expected an array of length {q}")
            tau = entry.get("tau", 0)
            try:
                changes.append(ChangeSpec(tau=math.inf if tau is None else tau, f=f))
            except ValueError as exc:
                key = "tau" if str(exc).startswith("tau") else "f"
                raise ConfigError(f"{path}[{i}].{key}: {exc}") from None
        else:
            raise ConfigError(f"{path}[{i}]: expected a number or an object")
    return tuple(changes)


def _parse_calibration(cal: dict, seed: int) -> CalibrationSpec:
    # Only the keys the file sets are passed (target_add_ic is required):
    # CalibrationSpec owns the defaults, except that an unset seed follows
    # the experiment seed.
    kw = {"seed": seed}
    for key, types in _CALIBRATION_TYPES.items():
        if key in cal or key == "target_add_ic":
            value = _require(cal, key, "calibration", types)
            kw[key] = value if types is int else float(value)
    try:
        return CalibrationSpec(**kw)
    except ValueError as exc:
        raise ConfigError(f"calibration: {exc}") from None


def parse_config(
    doc: dict,
    source: str = "<config>",
    seed: int | None = None,
    policies: str | None = None,
) -> Config:
    """Validate `doc` and build the Config.  A `seed` given here (the CLI's
    --seed) replaces experiment.seed, and so also the default of an unset
    calibration.seed.  `policies` (the CLI's --policies) makes one arm per
    listed kind from a single policy object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    for key in doc:
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown section")

    model_sec = _section(doc, "model", {"builtin": "bench-p10"})
    model, builtin_name = _parse_model(model_sec, "model")

    window_sec = _section(doc, "window")
    h = window_sec.get("h")
    if h is not None and (
        not isinstance(h, (int, float)) or isinstance(h, bool) or not math.isfinite(h)
    ):
        raise ConfigError("window.h: expected a finite number or null")
    try:
        window = WindowConfig(
            m1=_require(window_sec, "m1", "window", int, 50),
            m2=_require(window_sec, "m2", "window", int, 5),
            h=None if h is None else float(h),
        )
    except ValueError as exc:
        raise ConfigError(f"window: {exc}") from None

    arms = _parse_arms(doc.get("policy", {}), policies)

    sampling = _section(doc, "sampling")
    m = _require(sampling, "m", "sampling", int, 2)
    n0 = _require(sampling, "n0", "sampling", int, 50)
    if not 1 <= m <= model.p:
        raise ConfigError(f"sampling.m: must be in [1, p={model.p}], got {m}")
    if n0 < 1:
        raise ConfigError(f"sampling.n0: must be >= 1, got {n0}")

    exp = _section(doc, "experiment")
    replications = _require(exp, "replications", "experiment", int, 1000)
    horizon_cap = _require(exp, "horizon_cap", "experiment", int, 1000)
    file_seed = _require(exp, "seed", "experiment", int, 0)
    if replications < 1:
        raise ConfigError("experiment.replications: must be >= 1")
    if horizon_cap < 1:
        raise ConfigError("experiment.horizon_cap: must be >= 1")
    if file_seed < 0:
        raise ConfigError("experiment.seed: must be >= 0")
    seed = file_seed if seed is None else seed
    changes = _parse_changes(exp.get("grid", [0.0]), model.q, "experiment.grid")

    io = _section(doc, "io")
    out_dir = _require(io, "out_dir", "io", str, ".")
    input_csv = _require(io, "input_csv", "io", str, None)
    reference_csv = _require(io, "reference_csv", "io", str, None)

    cal = doc.get("calibration")
    if cal is not None:
        cal = _parse_calibration(_section(doc, "calibration"), seed)
    return Config(
        arms=tuple(
            Scenario(
                name=builtin_name if label is None else f"{builtin_name}-{label}",
                model=model,
                m=m,
                window=window,
                policy=policy,
                changes=changes,
                replications=replications,
                horizon_cap=horizon_cap,
                n0=n0,
                seed=seed,
            )
            for policy, label in arms
        ),
        out_dir=out_dir,
        input_csv=input_csv,
        reference_csv=reference_csv,
        calibration=cal,
    )


def load_config(path, seed: int | None = None, policies: str | None = None) -> Config:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(doc, source=str(path), seed=seed, policies=policies)
