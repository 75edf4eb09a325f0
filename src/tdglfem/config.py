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
from dataclasses import dataclass, field, fields, replace

from . import scenarios
from .mesh import load_mesh_file
from .stepper import AdaptiveTau, SchemeParams

__all__ = ["ConfigError", "RunConfig", "PreparedRun", "parse_config", "materialize"]


class ConfigError(ValueError):
    """Bad configuration input; carries the offending key when known."""

    def __init__(self, message, *, key=None):
        super().__init__(message)
        self.key = key


def _parse_text(raw, key):
    return raw


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


def _parse_float_or(word):
    return lambda raw, key: word if raw == word else _parse_float(raw, key)


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


def _key(parse, default=None):
    """A config key: its default and the parser ``parse(raw, key)`` of its value text."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """One run as written in a config file; ``None`` means scenario default.

    Each field is a config key and carries the parser of its value text.
    """

    scenario: str = _key(_parse_text, scenarios.DEFAULT_SCENARIO)
    M: int | None = _key(_parse_int)
    mesh_file: str | None = _key(_parse_text)
    kappa: float | None = _key(_parse_float)
    sigma: float | None = _key(_parse_float)
    H: float | None = _key(_parse_float)
    mu: float | str | None = _key(_parse_float_or("auto"))
    T: float | None = _key(_parse_float)
    tau: float | str | None = _key(_parse_float_or("adaptive"))
    alpha: float | None = _key(_parse_float)
    tau_min: float | None = _key(_parse_float)
    tau_max: float | None = _key(_parse_float)
    psi0: complex | None = _key(_parse_complex)
    out: str | None = _key(_parse_text)
    snapshots: tuple | None = _key(_parse_snapshots)
    series_cadence: int | None = _key(_parse_int)
    strict_acute: bool = _key(_parse_bool, False)
    checks: str | None = _key(_parse_text)


def parse_config(text: str) -> RunConfig:
    """Parse config text; strict about unknown and duplicate keys."""
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
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
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key)
        values[key] = parsers[key](rawval, key)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# turning a config into solver inputs


@dataclass(frozen=True)
class PreparedRun:
    mesh: object
    params: SchemeParams
    exact: object | None  # reference fields when the scenario has them


def materialize(cfg: RunConfig) -> PreparedRun:
    """Merge a config onto its scenario's record; build the mesh and the solver parameters.

    Every key the config leaves ``None`` takes the scenario's default (see
    ``scenarios.Scenario``). A key with neither must be configured, and a key
    the scenario sets itself may not be. Raises :class:`ConfigError` for such
    combinations, for parameters the solver rejects, for a ``series_cadence``
    below 1 and for a snapshot time after ``T``; ``tdglfem run`` reads the
    output keys (``out``, ``snapshots``, ``series_cadence``) off the config.
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

    if cfg.snapshots and max(cfg.snapshots) > params.T:
        raise ConfigError(f"snapshot time {max(cfg.snapshots)!r} is after T = {params.T!r}",
                          key="snapshots")
    return PreparedRun(mesh=mesh, params=params, exact=exact)
