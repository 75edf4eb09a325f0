"""Plain-text run configuration: parse, emit, and turn into solver inputs.

The format is line oriented ``key = value`` with ``#`` comments and optional
``[section]`` grouping lines (sections are cosmetic, keys are global and may
appear at most once). Unknown keys are errors, not warnings: a typo must not
silently fall back to a default. ``parse_config(emit_config(cfg)) == cfg``
round-trips exactly.

Example::

    scenario = lshape
    T = 20
    tau = adaptive
    out = results/lshape
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

from .stepper import AdaptiveTau, SchemeParams

__all__ = ["ConfigError", "RunConfig", "OutputOptions", "PreparedRun",
           "parse_config", "emit_config", "materialize"]


class ConfigError(ValueError):
    """Bad configuration input; carries the offending key when known."""

    def __init__(self, message, *, key=None):
        super().__init__(message)
        self.key = key


@dataclass
class RunConfig:
    """One run as written in a config file; ``None`` means scenario default."""

    scenario: str = "lshape"
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
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated times", key=key) from None


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


def _format_value(key, value):
    if key == "psi0":
        sign = "+" if value.imag >= 0 else "-"
        return f"{value.real!r}{sign}{abs(value.imag)!r}i"
    if key == "snapshots":
        return ",".join(repr(float(s)) for s in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config`` round-trips it exactly."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "strict_acute" and value is False:
            continue  # default, keep emitted files minimal
        if f.name == "snapshots" and len(value) == 0:
            continue
        lines.append(f"{f.name} = {_format_value(f.name, value)}")
    return "\n".join(lines) + "\n"


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


def _pick(cfg_value, default):
    return default if cfg_value is None else cfg_value


def materialize(cfg: RunConfig) -> PreparedRun:
    """Resolve scenario defaults, build the mesh and the solver parameters.

    Raises :class:`ConfigError` for inconsistent combinations (the full set
    of valid keys is scenario dependent: the manufactured problem determines
    its own initial data and applied field, for instance).
    """
    from . import scenarios
    from .mesh import load_mesh_file

    name = cfg.scenario
    if name not in scenarios.SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {scenarios.SCENARIO_NAMES}",
            key="scenario",
        )
    defaults = scenarios.scenario_defaults(name)

    if name == "manufactured":
        for key in ("H", "psi0", "mesh_file"):
            if getattr(cfg, key) is not None:
                raise ConfigError(
                    f"{key} cannot be overridden for the manufactured scenario", key=key
                )

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
        mesh_m = _pick(cfg.M, defaults["M"])
        if mesh_m is None:
            raise ConfigError(f"scenario {name!r} needs M or mesh_file", key="M")
        builder = {
            "manufactured": scenarios.unit_square_mesh,
            "lshape": scenarios.lshape_mesh,
            "square_with_holes": scenarios.holed_square_mesh,
            "custom": scenarios.unit_square_mesh,
        }[name]
        try:
            mesh = builder(mesh_m)
        except ValueError as exc:
            raise ConfigError(str(exc), key="M") from exc

    # physics ------------------------------------------------------------
    kappa = _pick(cfg.kappa, defaults["kappa"])
    if kappa is None:
        raise ConfigError("custom scenario needs kappa", key="kappa")
    sigma = _pick(cfg.sigma, defaults["sigma"])
    T = _pick(cfg.T, defaults["T"])
    if T is None:
        raise ConfigError("custom scenario needs T", key="T")
    mu = _pick(cfg.mu, defaults["mu"])

    # step size ------------------------------------------------------------
    tau_default = defaults["tau"]
    tau_cfg = cfg.tau
    adaptive_keys = [k for k in ("alpha", "tau_min", "tau_max") if getattr(cfg, k) is not None]
    if tau_cfg is None:
        tau = tau_default
        if tau == "1/M":
            if mesh_m is None:
                raise ConfigError("tau must be given explicitly with mesh_file", key="tau")
            tau = 1.0 / mesh_m
    elif tau_cfg == "adaptive":
        tau = AdaptiveTau()
    else:
        tau = float(tau_cfg)
    if isinstance(tau, AdaptiveTau):
        try:
            tau = replace(tau, **{k: getattr(cfg, k) for k in adaptive_keys})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif adaptive_keys:
        raise ConfigError(
            f"{adaptive_keys[0]} only applies with tau = adaptive", key=adaptive_keys[0]
        )

    # scenario-specific fields -----------------------------------------
    exact = None
    policies = dict(
        mu=mu,
        strict_acute=cfg.strict_acute,
        energy_check=_pick(cfg.energy_check, "warn"),
        mbp_check=_pick(cfg.mbp_check, "warn"),
    )
    try:
        if name == "manufactured":
            params, exact = scenarios.manufactured_params(kappa, sigma, T, tau)
            params = replace(params, **policies)
        else:
            params = SchemeParams(
                kappa=kappa,
                sigma=sigma,
                T=T,
                tau=tau,
                H=_pick(cfg.H, defaults["H"]),
                psi0=_pick(cfg.psi0, defaults["psi0"]),
                **policies,
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    output = OutputOptions(
        out=cfg.out,
        snapshots=tuple(cfg.snapshots) if cfg.snapshots else (),
        series_cadence=_pick(cfg.series_cadence, 1),
    )
    return PreparedRun(mesh=mesh, params=params, output=output, exact=exact)
