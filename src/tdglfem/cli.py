"""Command line front end.

Subcommands: ``run`` (integrate one configured scenario), ``convergence``
(refinement study against the manufactured solution, also importable as
:func:`run_manufactured_convergence`), ``check-mesh`` (angle and uniformity
audit), and ``scenarios`` (list the built-in setups from their records).

Exit codes: 0 on success, 2 for configuration problems (bad config text,
unreadable, non-UTF-8 or malformed mesh and config files, inconsistent
parameters), 3 for solver failures or policy refusals (iteration caps,
obtuse meshes, aborted checks), 130 for an interrupt (``SIGINT``,
Ctrl-C), 143 for a termination (``SIGTERM``, under the ``tdglfem`` command
of :func:`console`); a ``run`` stopped in its time loop, by a failure, an
interrupt or a termination, still writes the accepted rows.

Heavy imports happen inside the handlers so ``--threads`` (1 unless given)
can pin the BLAS thread pools through the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace

#: maps --threads to the knobs the common BLAS backends actually read
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _thread_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdglfem",
        description="finite-element solver for 2D superconductivity dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured scenario")
    p_run.add_argument("--config", required=True, help="path to a config file")
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.add_argument("--threads", type=_thread_count, default=1, help="BLAS threads (default 1)")
    p_run.add_argument(
        "--strict-acute", action="store_true", help="refuse weakly acute meshes too"
    )
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="refinement study, manufactured solution")
    p_conv.add_argument("--config", help="optional manufactured config, applied to every level")
    p_conv.add_argument(
        "--resolutions", default="8,16,32,64", help="comma-separated subdivisions per unit"
    )
    p_conv.add_argument("--out", help="output directory for the study table")
    p_conv.add_argument("--threads", type=_thread_count, default=1, help="BLAS threads (default 1)")
    p_conv.set_defaults(func=_cmd_convergence)

    p_check = sub.add_parser("check-mesh", help="angle and uniformity audit")
    src = p_check.add_mutually_exclusive_group(required=True)
    src.add_argument("--mesh", help="mesh file (Gmsh ASCII v2 or native format)")
    src.add_argument("--config", help="config whose scenario mesh is audited")
    p_check.add_argument(
        "--strict-acute", action="store_true", help="fail on weakly acute meshes too"
    )
    p_check.set_defaults(func=_cmd_check_mesh)

    p_list = sub.add_parser("scenarios", help="list built-in scenarios")
    p_list.set_defaults(func=_cmd_scenarios)
    return parser


def _read_config(path):
    from .config import parse_config

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        from .config import ConfigError

        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(text)


def _cmd_run(args) -> int:
    from .config import materialize
    from .output import ensure_dir, write_timeseries_csv, write_vtk_snapshot
    from .stepper import run

    cfg = _read_config(args.config)
    if args.out:
        cfg.out = args.out
    if args.strict_acute:
        cfg.strict_acute = True
    prepared = materialize(cfg)
    out_dir = ensure_dir(prepared.output.out or "out")

    snap_counter = [0]

    def on_snapshot(state, t_nominal):
        name = f"snapshot_{snap_counter[0]:03d}.vtk"
        write_vtk_snapshot(os.path.join(out_dir, name), state.mesh, state.A, state.psi, state.t)
        print(f"snapshot {name} (t={state.t:g}, requested {t_nominal:g})")
        snap_counter[0] += 1

    series = os.path.join(out_dir, "series.csv")
    try:
        state = run(prepared.mesh, prepared.params,
                    snapshot_times=prepared.output.snapshots, on_snapshot=on_snapshot)
    except BaseException as exc:
        if hasattr(exc, "state"):  # ``run`` attaches the accepted steps to whatever stops it
            write_timeseries_csv(series, exc.state.history, prepared.output.series_cadence)
        raise

    write_timeseries_csv(series, state.history, prepared.output.series_cadence)
    write_vtk_snapshot(os.path.join(out_dir, "final.vtk"), state.mesh, state.A, state.psi, state.t)

    final = state.history[-1]
    print(f"scenario {cfg.scenario}: {state.n} steps to t={state.t:g}")
    print(
        f"energy {final.total:.10g} (covariant {final.covariant:.4g}, "
        f"magnetic {final.magnetic:.4g}, potential {final.potential:.4g})"
    )
    print(f"max |psi| = {final.max_psi:.12g}")
    if state.violations:
        checks = [check for _, check, _ in state.violations]
        print(f"violations: energy {checks.count('energy')}, "
              f"modulus bound {checks.count('modulus')}")
    print(f"wrote {out_dir}/series.csv and {out_dir}/final.vtk")
    return 0


def run_manufactured_convergence(resolutions=(8, 16, 32, 64), cfg=None):
    """Solve the manufactured problem on a halving mesh family with tau = 1/M.

    Each level is ``cfg`` (a manufactured ``config.RunConfig``; every
    scenario default when ``None``) at ``M`` = its resolution, built by
    ``config.materialize``, and every level is built before the first
    solve. ``cfg`` may not set the keys the study sets itself or never
    reads: ``M``, ``tau``, ``mesh_file``, ``snapshots`` and
    ``series_cadence``; ``config.ConfigError`` says which.

    Returns ``(reports, rates)`` where ``reports`` is one error report per
    resolution (coarse to fine) and ``rates`` maps field name to observed
    orders between consecutive resolutions.
    """
    from .config import ConfigError, RunConfig, materialize
    from .diagnostics import ERROR_FIELDS, convergence_rates, error_norms
    from .stepper import run

    cfg = RunConfig(scenario="manufactured") if cfg is None else cfg
    if cfg.scenario != "manufactured":
        raise ConfigError("convergence study requires scenario = manufactured", key="scenario")
    for key in ("M", "tau", "mesh_file", "snapshots", "series_cadence"):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"{key} cannot be set for the convergence study", key=key)
    levels = [materialize(replace(cfg, M=int(m))) for m in resolutions]

    reports = []
    for m in resolutions:
        level = levels.pop(0)  # no solved level outlives the next one's run
        state = run(level.mesh, level.params)
        reports.append(error_norms(level.mesh, state.A, state.psi, level.exact, state.t,
                                   h=1.0 / m, tau=level.params.tau))
    hs = [rep.h for rep in reports]
    rates = {
        name: convergence_rates(hs, [getattr(rep, "err_" + name) for rep in reports])
        for name in ERROR_FIELDS
    }
    return reports, rates


def _cmd_convergence(args) -> int:
    from .config import ConfigError, RunConfig
    from .output import ensure_dir, write_convergence_csv

    cfg = _read_config(args.config) if args.config else RunConfig(scenario="manufactured")
    try:
        resolutions = [int(tok) for tok in args.resolutions.split(",")]
    except ValueError:
        raise ConfigError(f"bad --resolutions value {args.resolutions!r}") from None
    if len(resolutions) < 2:
        raise ConfigError("need at least two resolutions for rates")
    if resolutions[0] < 1 or any(b != 2 * a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError(
            f"resolutions must start at 1 or more and double each time, got {args.resolutions!r}"
        )

    reports, rates = run_manufactured_convergence(resolutions, cfg)

    header = f"{'1/h':>6} {'err A':>12} {'rate':>6} {'err curlA':>12} {'rate':>6} " \
             f"{'err psi':>12} {'rate':>6} {'err gradpsi':>12} {'rate':>6}"
    print(header)
    for k, rep in enumerate(reports):
        cells = [f"{round(1 / rep.h):>6}"]
        for name, rate in rates.items():  # keyed in ``diagnostics.ERROR_FIELDS`` order
            cells.append(f"{getattr(rep, 'err_' + name):>12.4e}")
            cells.append(f"{rate[k - 1]:>6.2f}" if k else f"{'':>6}")
        print(" ".join(cells))

    out = args.out or cfg.out
    if out:
        out_dir = ensure_dir(out)
        path = os.path.join(out_dir, "convergence.csv")
        write_convergence_csv(path, reports, rates)
        print(f"wrote {path}")
    return 0


def _cmd_check_mesh(args) -> int:
    from .config import materialize
    from .mesh import audit_mesh, load_mesh_file

    if args.mesh:
        mesh = load_mesh_file(args.mesh)
    else:
        mesh = materialize(_read_config(args.config)).mesh

    audit = audit_mesh(mesh)
    print(f"vertices {mesh.num_vertices}, edges {mesh.num_edges}, cells {mesh.num_cells}")
    print(f"mesh size h = {mesh.h:.6g}")
    print(f"angles: min {audit.min_angle_deg:.4f} deg, max {audit.max_angle_deg:.4f} deg")
    print(f"strictly acute: {audit.strictly_acute}")
    print(f"weakly acute:   {audit.weakly_acute}")
    print(f"quasi-uniformity ratio: {audit.quasi_uniformity_ratio:.4g}")

    if not audit.weakly_acute:
        print("REJECT: obtuse angles present; the solver will refuse this mesh")
        return 3
    if args.strict_acute and not audit.strictly_acute:
        print("REJECT: right angles present and --strict-acute was requested")
        return 3
    if not audit.strictly_acute:
        print("OK with warning: right angles present; bound checks stay on at runtime")
    else:
        print("OK: strictly acute")
    return 0


def _cmd_scenarios(args) -> int:
    from .scenarios import SCENARIO_KEYS, SCENARIOS
    from .stepper import AdaptiveTau

    adaptive = AdaptiveTau()
    for name, scenario in SCENARIOS.items():
        print(f"{name}: {scenario.description}")
        for key in SCENARIO_KEYS:
            value = scenario.defaults.get(key)
            if key in scenario.fixed:
                value = "from exact solution"
            elif value == "adaptive":
                value = (
                    f"adaptive (alpha={adaptive.alpha:g}, tau_min={adaptive.tau_min:g}, "
                    f"tau_max={adaptive.tau_max:g})"
                )
            print(f"    {key} = {value}")
    return 0


class Terminated(BaseException):
    """A ``SIGTERM`` under :func:`console`: like ``KeyboardInterrupt``, no
    ``except Exception`` catches it."""


def _raise_terminated(signum, frame):
    raise Terminated


def console() -> int:
    """The ``tdglfem`` command: :func:`main`, with ``SIGTERM`` raised as
    :class:`Terminated`, so that a terminated run keeps its accepted rows.
    ``main`` itself installs no handler, as other programs call it in their
    own process."""
    signal.signal(signal.SIGTERM, _raise_terminated)
    return main()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if hasattr(args, "threads"):  # only ``run`` and ``convergence`` take it
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .config import ConfigError
    from .linalg import ConvergenceError
    from .mesh import EmptyMeshError, MalformedFileError, UnsupportedFormatError
    from .stepper import NonFiniteStateError, ViolationError

    try:
        return args.func(args)
    except (ConfigError, UnsupportedFormatError, MalformedFileError, EmptyMeshError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ViolationError, NonFiniteStateError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (KeyboardInterrupt, Terminated) as exc:
        stopped, code = ("terminated", 143) if isinstance(exc, Terminated) else ("interrupted", 130)
        state = getattr(exc, "state", None)
        print(stopped + (f" at t={state.t:g}" if state is not None else ""), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(console())
