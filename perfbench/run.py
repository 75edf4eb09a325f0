"""Benchmark of tdglfem through its command line, end to end and per module.

    python3 perfbench/run.py --workload lshape-adaptive --seed 0 --seconds 40 --trace 0

Each operation is one ``tdglfem run`` or ``tdglfem convergence`` invocation,
made in-process through ``tdglfem.cli.main`` with ``--threads 1``. The run
repeats the workload's operation until ``--seconds`` would be exceeded (at
least three times),
checks every operation's output files, and prints one JSON object as its
last line. See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

from checks import (
    CheckFailed,
    check_convergence,
    check_series,
    check_snapshots,
    digest,
    require,
)
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MODULES = ("cli", "config", "diagnostics", "fem", "output", "scenarios", "stepper")

#: calls whose outermost spans make up ``setup_s``
SETUP_SPANS = ("config.materialize", "scenarios.unit_square_mesh", "stepper.initialize")

#: operations every run attempts, however long they take: the median of three
#: shrugs off one slow operation, and repeats show determinism and tracing overhead
MIN_OPS = 3

#: set-ups repeated after each operation of an untraced run, so ``setup_s`` is a median of many
SETUP_REPEATS = 2


# ---------------------------------------------------------------------------
# workloads


def unit_phase(seed: int) -> complex:
    """Uniform initial order parameter of modulus 1 with a seeded global phase."""
    theta = 2.0 * math.pi * random.Random(seed).random()
    return complex(math.cos(theta), math.sin(theta))


@dataclass(frozen=True)
class Relaxation:
    """``tdglfem run`` on a built-in scenario from a uniform ``psi0``.

    ``vertices`` and ``cells`` are the counts of the scenario's uniform
    right-triangle mesh at ``M``, worked out by hand, not by the package.
    """

    name: str
    scenario: str
    M: int
    T: float
    snapshots: tuple
    vertices: int
    cells: int

    def setup_configs(self, seed: int) -> list[str]:
        z = unit_phase(seed)
        psi0 = f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"
        return [
            f"scenario = {self.scenario}\nM = {self.M}\nT = {self.T!r}\ntau = adaptive\n"
            f"psi0 = {psi0}\nsnapshots = {', '.join(repr(s) for s in self.snapshots)}\n"
        ]

    def argv(self, seed: int, work: Path, out: Path) -> list[str]:
        cfg = work / "run.cfg"
        cfg.write_text(self.setup_configs(seed)[0])
        return ["run", "--config", str(cfg), "--out", str(out), "--threads", "1"]

    def check(self, out: Path, stdout: str) -> tuple[int, str]:
        found = re.search(r"^scenario \S+: (\d+) steps to t=", stdout, re.MULTILINE)
        require(found is not None, "run printed no step count")
        steps = int(found.group(1))
        require(check_series(out / "series.csv", self.T) == steps,
                "series.csv rows do not match the printed step count")
        check_snapshots(out, len(self.snapshots), self.vertices, self.cells)
        return steps, digest(out / "series.csv")


@dataclass(frozen=True)
class Ladder:
    """``tdglfem convergence`` against the manufactured exact solution."""

    name: str
    resolutions: tuple

    def setup_configs(self, seed: int) -> list[str]:
        """The study's runs as configs: same mesh, parameters and initial data."""
        return [f"scenario = manufactured\nM = {M}\n" for M in self.resolutions]

    def argv(self, seed: int, work: Path, out: Path) -> list[str]:
        res = ",".join(str(m) for m in self.resolutions)
        return ["convergence", "--resolutions", res, "--out", str(out), "--threads", "1"]

    def check(self, out: Path, stdout: str) -> tuple[int | None, str]:
        check_convergence(out / "convergence.csv", self.resolutions)
        return None, digest(out / "convergence.csv")


# Mesh counts: an n x n grid of squares, two triangles each, has (n+1)^2
# vertices. lshape at M=32 drops a 16 x 16 quadrant and its 16^2 vertices
# off the kept boundary; square_with_holes at M=8 (80 x 80) drops four
# 8 x 8 holes and their 7^2 interior vertices each.
WORKLOADS = {
    w.name: w
    for w in (
        Relaxation("lshape-adaptive", "lshape", 32, 20.0,
                   tuple(float(k) for k in range(21)),
                   vertices=33**2 - 16**2, cells=2 * (32**2 - 16**2)),
        Relaxation("holed-transient", "square_with_holes", 8, 1.0,
                   (0.25, 0.5, 0.75, 1.0),
                   vertices=81**2 - 4 * 7**2, cells=2 * (80**2 - 4 * 8**2)),
        Ladder("manufactured-ladder", (8, 16, 32)),
    )
}


# ---------------------------------------------------------------------------
# instrumentation


def instrument(rec: Recorder, m, traced: bool) -> dict:
    """Wrap the setup calls, and with ``traced`` every layer boundary.

    Functions are wrapped where their callers look them up: ``stepper``
    imports ``cg_solve``, ``phi_apply``, ``discrete_energy`` and
    ``audit_mesh`` by name, ``scenarios`` imports ``generate_uniform_square``.
    ``linalg.cg_solve`` is the time loop's A-solve; the CG inside
    ``fem.ritz_projection`` counts toward the projection.
    """
    tally = {"cg_iterations": 0, "steps": 0, "taus": set(), "bytes": 0}
    rec.wrap(m.config, "materialize", "config.materialize")
    rec.wrap(m.scenarios, "unit_square_mesh", "scenarios.unit_square_mesh")
    rec.wrap(m.stepper, "initialize", "stepper.initialize")
    if not traced:
        return tally

    def count_cg(args, result):
        tally["cg_iterations"] += result.iterations
        return result

    def count_steps(args, state):
        tally["steps"] += state.n
        tally["taus"].update(row.tau for row in state.history[1:])
        return state

    def count_bytes(args, result):
        tally["bytes"] += os.path.getsize(args[0])
        return result

    def time_fields(args, result):
        exact, forcing_A, forcing_psi = result
        exact = replace(exact, **{k: rec.timed(getattr(exact, k), "scenarios.fields")
                                  for k in ("psi", "grad_psi", "A", "curl_A", "H")})
        return (exact, rec.timed(forcing_A, "scenarios.fields"),
                rec.timed(forcing_psi, "scenarios.fields"))

    rec.wrap(m.scenarios, "generate_uniform_square", "mesh.build")
    rec.wrap(m.stepper, "audit_mesh", "mesh.audit")
    rec.wrap(m.scenarios, "manufactured_fields", "scenarios.manufactured_fields", time_fields)
    rec.wrap(m.stepper, "run", "stepper.run", count_steps)
    for name in ("ritz_projection", "assemble_A_system", "assemble_A_rhs", "assemble_Lhat"):
        rec.wrap(m.fem, name, "fem." + name)
    rec.wrap(m.stepper, "cg_solve", "linalg.cg_solve", count_cg)
    rec.wrap(m.stepper, "phi_apply", "linalg.phi_apply")
    rec.wrap(m.stepper, "discrete_energy", "diagnostics.discrete_energy")
    rec.wrap(m.diagnostics, "error_norms", "diagnostics.error_norms")
    for name in ("write_vtk_snapshot", "write_timeseries_csv", "write_convergence_csv"):
        rec.wrap(m.output, name, "output." + name, count_bytes)
    return tally


#: per-layer time metric -> the span name whose self time it reports
LAYER_TIMES = {
    "linalg.cg_solve.time_s": "linalg.cg_solve",
    "linalg.phi_apply.time_s": "linalg.phi_apply",
    "fem.assemble_A_system.time_s": "fem.assemble_A_system",
    "fem.assemble_A_rhs.time_s": "fem.assemble_A_rhs",
    "fem.assemble_Lhat.time_s": "fem.assemble_Lhat",
    "fem.ritz_projection.time_s": "fem.ritz_projection",
    "diagnostics.discrete_energy.time_s": "diagnostics.discrete_energy",
    "diagnostics.error_norms.time_s": "diagnostics.error_norms",
    "output.write_vtk_snapshot.time_s": "output.write_vtk_snapshot",
    "output.write_timeseries_csv.time_s": "output.write_timeseries_csv",
    "scenarios.fields.time_s": "scenarios.fields",
    "stepper.self.time_s": "stepper.run",
    "stepper.initialize.time_s": "stepper.initialize",
    "mesh.build.time_s": "mesh.build",
    "mesh.audit.time_s": "mesh.audit",
}


def layer_metrics(rec: Recorder, tally: dict) -> dict:
    selfs = rec.self_times()
    values = {metric: selfs.get(span, 0.0) for metric, span in LAYER_TIMES.items()}
    values["linalg.cg_solve.calls"] = sum(s[0] == "linalg.cg_solve" for s in rec.spans)
    values["linalg.cg_solve.iterations"] = tally["cg_iterations"]
    values["linalg.phi_apply.calls"] = sum(s[0] == "linalg.phi_apply" for s in rec.spans)
    values["output.bytes_written"] = tally["bytes"]
    values["stepper.steps"] = tally["steps"]
    values["stepper.distinct_tau"] = len(tally["taus"])
    return values


def unit_of(metric: str) -> str:
    if metric == "output.bytes_written":
        return "B"
    return "s" if metric.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# one operation


@dataclass
class Op:
    traced: bool
    wall: float
    setup: float
    steps: int | None
    digest: str
    peak_rss_mib: float
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def solve(self) -> float:
        return self.wall - self.setup


def run_op(m, workload, seed: int, work: Path, traced: bool) -> Op:
    out = work / "op"
    shutil.rmtree(out, ignore_errors=True)
    argv = workload.argv(seed, work, out)
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    with Recorder() as rec:
        tally = instrument(rec, m, traced)
        start = time.perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = m.cli.main(argv)
        wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    require(code == 0, f"tdglfem {argv[0]} exited {code}: {stderr.getvalue().strip()[-500:]}")
    steps, dig = workload.check(out, stdout.getvalue())
    return Op(
        traced=traced,
        wall=wall,
        setup=rec.outermost_time(SETUP_SPANS),
        steps=steps,
        digest=dig,
        peak_rss_mib=peak_rss_mib,
        layers=layer_metrics(rec, tally) if traced else {},
        spans=rec.spans if traced else [],
    )


def repeat_setup(m, texts) -> float:
    """Set up the operation's runs again, through the same calls and spans.

    Each config is materialized and initialized on a freshly built mesh,
    so the per-mesh operator cache is rebuilt exactly as in the operation.
    """
    with Recorder() as rec, redirect_stderr(io.StringIO()):
        instrument(rec, m, traced=False)
        for text in texts:
            prepared = m.config.materialize(m.config.parse_config(text))
            params = prepared.params
            m.stepper.initialize(prepared.mesh, params.A0, params.psi0, params)
    return rec.outermost_time(SETUP_SPANS)


# ---------------------------------------------------------------------------
# the run


def import_package():
    """Import tdglfem from this checkout's ``src``, never from elsewhere."""
    package = SRC / "tdglfem"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no tdglfem sources at {package}")
    # cap the BLAS pools before numpy loads, as ``tdglfem --threads 1`` does
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module("tdglfem." + name) for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: tdglfem was imported from {modules['cli'].__file__}")
    return SimpleNamespace(**modules)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    m = import_package()
    workload = WORKLOADS[args.workload]
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)

    ops: list[Op] = []
    setups: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # with --trace 1, untraced and traced operations alternate
        traced = args.trace == 1 and attempted % 2 == 1
        attempted += 1
        try:
            op = run_op(m, workload, args.seed, work, traced)
            if ops:
                first = ops[0]
                require((op.steps, op.digest) == (first.steps, first.digest),
                        f"repeat gave {op.steps} steps, digest {op.digest[:12]}; "
                        f"the first gave {first.steps}, {first.digest[:12]}")
            ops.append(op)
            if not args.trace:
                setups.append(op.setup)
                setups.extend(repeat_setup(m, workload.setup_configs(args.seed))
                              for _ in range(SETUP_REPEATS))
            print(f"op {attempted}: {'traced' if traced else 'untraced'} "
                  f"solve {op.solve:.4f} s, setup {op.setup:.4f} s, steps {op.steps}")
        except Exception as exc:  # a failed operation is counted, and the run goes on
            failed += 1
            kind = "check failed" if isinstance(exc, CheckFailed) else "error"
            print(f"op {attempted}: {kind}: {exc}", file=sys.stderr)
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if attempted >= MIN_OPS and elapsed * (attempted + 1) / attempted > args.seconds:
            break

    plain = [op for op in ops if not op.traced]
    traced_ops = [op for op in ops if op.traced]
    if not plain or (args.trace and not traced_ops):
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: statistics.median(op.layers[k] for op in traced_ops)
                   for k in traced_ops[0].layers}
        metrics["trace.overhead.time_s"] = (statistics.median(op.solve for op in traced_ops)
                                            - statistics.median(op.solve for op in plain))
        units = {k: unit_of(k) for k in metrics}
        trace_file = work / f"trace-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "spans": [op.spans for op in traced_ops]}))
    else:
        metrics = {
            "solve_s": statistics.median(op.solve for op in plain),
            "setup_s": statistics.median(setups),
            # the process's peak once its first operation has ended, before the
            # repeats and re-set-ups, so it is the peak of a one-operation process
            "peak_rss_mib": ops[0].peak_rss_mib,
        }
        units = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    line = json.dumps(result)
    (work / f"report-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
