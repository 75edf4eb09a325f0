"""Plain-text run configuration: parse and turn into solver inputs.

The format is line oriented ``key = value`` with ``#`` comments and optional
``[section]`` grouping lines (sections are cosmetic, keys are global and may
appear at most once). Unknown keys are errors, not warnings: a typo must not
silently fall back to a default.

A config runs one named scenario (``tdglfem scenarios`` lists them with
their defaults); every key it leaves out takes the scenario's default. A
config for the default scenario::

    M = 16
    T = 20
    tau = adaptive
    out = results/run
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

from . import scenarios
from .mesh import load_mesh_file
from .stepper import AdaptiveTau, SchemeParams

__all__ = ["ConfigError", "RunConfig", "OutputOptions", "PreparedRun",
           "parse_config", "materialize"]


class ConfigError(ValueError):
    """Bad configuration input; carries the offending key when known."""

    def __init__(self, message, *, key=None):
        super().__init__(message)
        self.key = key


@dataclass
class RunConfig:
    """One run as written in a config file; ``None`` means scenario default."""

    scenario: str = scenarios.DEFAULT_SCENARIO
    M: int | None = None
    mesh_file: str | None = None
    kappa: float | None = None
    sigma: float | None = None
    H: float | None = None
    mu: float | str | None = None
    T: float | None = None
    tau: float | str | None = None
    alpha: float | None = None
    tau_min: float | None = None
    tau_max: float | None = None
    psi0: complex | None = None
    out: str | None = None
    snapshots: tuple | None = None
    series_cadence: int | None = None
    strict_acute: bool = False
    energy_check: str | None = None
    mbp_check: str | None = None


def _parse_bool(raw, key):
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}", key=key)


def _parse_float(raw, key):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}", key=key) from None


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}", key=key) from None


def _parse_complex(raw, key):
    try:
        return complex(raw.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{key}: expected a complex number like 0.6+0.8i", key=key) from None


def _parse_snapshots(raw, key):
    if not raw.strip():
        return ()
    try:
        times = tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated times", key=key) from None
    if not all(math.isfinite(t) for t in times):
        raise ConfigError(f"{key}: times must be finite, got {raw!r}", key=key)
    return times


_PARSERS: dict[str, Callable] = {
    "scenario": lambda raw, key: raw,
    "M": _parse_int,
    "mesh_file": lambda raw, key: raw,
    "kappa": _parse_float,
    "sigma": _parse_float,
    "H": _parse_float,
    "mu": lambda raw, key: "auto" if raw == "auto" else _parse_float(raw, key),
    "T": _parse_float,
    "tau": lambda raw, key: "adaptive" if raw == "adaptive" else _parse_float(raw, key),
    "alpha": _parse_float,
    "tau_min": _parse_float,
    "tau_max": _parse_float,
    "psi0": _parse_complex,
    "out": lambda raw, key: raw,
    "snapshots": _parse_snapshots,
    "series_cadence": _parse_int,
    "strict_acute": _parse_bool,
    "energy_check": lambda raw, key: raw,
    "mbp_check": lambda raw, key: raw,
}


def parse_config(text: str) -> RunConfig:
    """Parse config text; strict about unknown and duplicate keys."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            continue  # sections are grouping only
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, rawval = line.partition("=")
        key = key.strip()
        rawval = rawval.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key)
        values[key] = _PARSERS[key](rawval, key)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# turning a config into solver inputs


@dataclass(frozen=True)
class OutputOptions:
    out: str | None
    snapshots: tuple
    series_cadence: int


@dataclass(frozen=True)
class PreparedRun:
    mesh: object
    params: SchemeParams
    output: OutputOptions
    exact: object | None  # reference fields when the scenario has them


def materialize(cfg: RunConfig) -> PreparedRun:
    """Merge a config onto its scenario's record; build the mesh and the solver parameters.

    Every key the config leaves ``None`` takes the scenario's default (see
    ``scenarios.Scenario``). A key with neither must be configured, and a key
    the scenario sets itself may not be. Raises :class:`ConfigError` for such
    combinations and for parameters the solver rejects.
    """
    name = cfg.scenario
    scenario = scenarios.SCENARIOS.get(name)
    if scenario is None:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {scenarios.SCENARIO_NAMES}",
            key="scenario",
        )
    given = {key: value for key, value in vars(cfg).items() if value is not None}
    values = {**scenario.defaults, **given}
    if cfg.series_cadence is not None and cfg.series_cadence < 1:
        raise ConfigError(
            f"series_cadence must be a positive integer, got {cfg.series_cadence}",
            key="series_cadence",
        )
    for key in scenario.fixed:
        if key in given:
            raise ConfigError(f"{key} cannot be overridden for the {name} scenario", key=key)

    # mesh ------------------------------------------------------------
    if cfg.mesh_file is not None:
        if cfg.M is not None:
            raise ConfigError("give M or mesh_file, not both", key="mesh_file")
        try:
            mesh = load_mesh_file(cfg.mesh_file)
        except OSError as exc:
            raise ConfigError(f"cannot read mesh_file: {exc}", key="mesh_file") from exc
        mesh_m = None
    else:
        mesh_m = values.get("M")
        if mesh_m is None:
            raise ConfigError(f"scenario {name!r} needs M or mesh_file", key="M")
        try:
            mesh = scenario.build_mesh(mesh_m)
        except ValueError as exc:
            raise ConfigError(str(exc), key="M") from exc
    for key in scenarios.SCENARIO_KEYS[1:]:  # M is settled with the mesh
        if key not in values and key not in scenario.fixed:
            raise ConfigError(f"{name} scenario needs {key}", key=key)

    # step size ------------------------------------------------------------
    tau = values["tau"]
    if tau == "1/M":
        if mesh_m is None:
            raise ConfigError("tau must be given explicitly with mesh_file", key="tau")
        tau = 1.0 / mesh_m
    elif tau == "adaptive":
        tau = AdaptiveTau()
    else:
        tau = float(tau)
    adaptive_keys = [k for k in ("alpha", "tau_min", "tau_max") if k in given]
    if isinstance(tau, AdaptiveTau):
        try:
            tau = replace(tau, **{k: given[k] for k in adaptive_keys})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif adaptive_keys:
        raise ConfigError(
            f"{adaptive_keys[0]} only applies with tau = adaptive", key=adaptive_keys[0]
        )
    values["tau"] = tau

    # solver parameters: the configured ones, then those the exact solution fixes
    exact, solution_fields = None, {}
    if scenario.solution is not None:
        exact, solution_fields = scenario.solution(values["kappa"], values["sigma"])
    try:
        params = SchemeParams(
            **{f.name: values[f.name] for f in fields(SchemeParams) if f.name in values},
            **solution_fields,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    output = OutputOptions(
        out=cfg.out,
        snapshots=tuple(cfg.snapshots) if cfg.snapshots else (),
        series_cadence=cfg.series_cadence or 1,
    )
    return PreparedRun(mesh=mesh, params=params, output=output, exact=exact)
