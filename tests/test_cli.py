import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import tdglfem.cli
import tdglfem.config
import tdglfem.linalg
import tdglfem.scenarios
import tdglfem.stepper
from tdglfem.cli import _THREAD_VARS, main
from tdglfem.mesh import Mesh, format_native
from tdglfem.output import CSV_HEADER


def cleared_thread_vars(monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(autouse=True)
def restored_thread_vars(monkeypatch):
    # every ``run`` and ``convergence`` sets them; the test process gets its own back
    cleared_thread_vars(monkeypatch)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def obtuse_mesh_file(tmp_path):
    mesh = Mesh.from_cells([[0.0, 0.0], [4.0, 0.0], [0.2, 0.2]], [[0, 1, 2]])
    path = tmp_path / "obtuse.mesh"
    path.write_text(format_native(mesh))
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("manufactured", "lshape", "square_with_holes", "custom"):
        assert f"{name}:" in out
    assert "adaptive (alpha=100000" in out
    assert "kappa = 10.0" in out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "res"
    cfg = write_config(
        tmp_path,
        f"""
        scenario = lshape
        M = 2
        T = 0.3
        tau = 0.1
        snapshots = 0, 0.25
        series_cadence = 2
        out = {out_dir}
        """,
    )
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "scenario lshape: 3 steps to t=0.3" in out
    assert "max |psi|" in out

    series = (out_dir / "series.csv").read_text()
    assert series.splitlines()[0] == CSV_HEADER
    assert len(series.splitlines()) == 1 + 3  # rows 0, 2 and the final one
    assert (out_dir / "final.vtk").exists()
    assert (out_dir / "snapshot_000.vtk").exists()
    assert (out_dir / "snapshot_001.vtk").exists()
    assert not (out_dir / "snapshot_002.vtk").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_out_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, f"scenario = lshape\nM = 2\nT = 0.1\ntau = 0.1\nout = {tmp_path / 'a'}\n"
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert (tmp_path / "b" / "series.csv").exists()
    assert not (tmp_path / "a").exists()


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = lshape\nkapa = 10\n")
    assert main(["run", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_rejects_infinite_horizon_before_stepping(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the time loop started")

    monkeypatch.setattr(tdglfem.stepper, "run", never)
    cfg = write_config(tmp_path, f"scenario = lshape\nM = 2\nT = inf\nout = {tmp_path / 'r'}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "T must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_takes_long_steps_on_fine_mesh(tmp_path, capsys):
    # the phi action has no degree cap: at M = 64, tau = 0.5 it needs a degree of about 660
    out_dir = tmp_path / "r"
    cfg = write_config(tmp_path, f"scenario = manufactured\nM = 64\nT = 0.5\ntau = 0.5\nout = {out_dir}\n")
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    assert len((out_dir / "series.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_reports_nonfinite_state(tmp_path, capsys, monkeypatch):
    # the finiteness check runs before the energy and modulus checks, whatever ``checks`` says
    monkeypatch.setattr(
        tdglfem.stepper, "step_psi", lambda state, *args: np.full_like(state.psi, np.nan)
    )
    for checks in ("abort", "warn", "off"):
        cfg = write_config(tmp_path, f"scenario = lshape\nM = 2\nT = 1\ntau = 0.25\n"
                                     f"checks = {checks}\nout = {tmp_path / 'r'}\n")
        assert main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err == "solver error: psi is not finite at t=0.25\n"


def nan_psi(state, *args):
    return np.full_like(state.psi, np.nan)


def forced_nonconvergence(*args, **kwargs):
    raise tdglfem.linalg.ConvergenceError("cg forced to fail", iterations=0, residual=1.0)


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


#: calls ``initialize`` makes before the first step
INIT_CALLS = {"discrete_energy": 1, "mbp_stats": 1}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "target, failing, code, message",
    [
        ("cg_solve", forced_nonconvergence, 3, "solver error: cg forced to fail"),
        ("discrete_energy", lambda *args: (np.inf, 0.0, 0.0), 3, "solver error: energy grew from "),
        ("mbp_stats", lambda psi: (2.0, 0), 3,
         "solver error: nodal modulus reached 2.0 > 1 at t=0.75"),
        ("step_psi", nan_psi, 3, "solver error: psi is not finite at t=0.75"),
        ("cg_solve", interrupt, 130, "interrupted at t=0.5\n"),
    ],
    ids=["convergence", "energy", "bound", "nonfinite", "interrupt"],
)
def test_failed_run_keeps_accepted_rows(tmp_path, capsys, monkeypatch, target, failing, code,
                                        message):
    real = getattr(tdglfem.stepper, target)
    calls = []

    def third_step_fails(*args, **kwargs):
        calls.append(None)
        third = len(calls) == 3 + INIT_CALLS.get(target, 0)
        return (failing if third else real)(*args, **kwargs)

    out_dir = tmp_path / "r"
    cfg = write_config(
        tmp_path, f"scenario = lshape\nM = 2\nT = 1\ntau = 0.25\nchecks = abort\nout = {out_dir}\n"
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(tdglfem.stepper, target, third_step_fails)
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == code
    assert message in capsys.readouterr().err
    text = (out_dir / "series.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.25, 0.5]
    # the kept rows are the uninterrupted run's, byte for byte
    assert (tmp_path / "whole" / "series.csv").read_text().startswith(text)
    assert not (out_dir / "final.vtk").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sigterm_keeps_accepted_rows(tmp_path, capsys, monkeypatch):
    # the handler ``console`` installs turns a real SIGTERM into a stop that keeps the rows
    real = tdglfem.stepper.cg_solve
    calls = []

    def third_step_terminates(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            os.kill(os.getpid(), signal.SIGTERM)
        return real(*args, **kwargs)

    out_dir = tmp_path / "r"
    cfg = write_config(tmp_path, f"scenario = lshape\nM = 2\nT = 1\ntau = 0.25\nout = {out_dir}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(tdglfem.stepper, "cg_solve", third_step_terminates)
    monkeypatch.setattr(sys, "argv", ["tdglfem", "run", "--config", cfg])
    capsys.readouterr()
    previous = signal.getsignal(signal.SIGTERM)
    try:
        assert tdglfem.cli.console() == 143
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert capsys.readouterr().err == "terminated at t=0.5\n"
    text = (out_dir / "series.csv").read_text()
    assert [float(line.split(",")[0]) for line in text.splitlines()[1:]] == [0.0, 0.25, 0.5]
    assert (tmp_path / "whole" / "series.csv").read_text().startswith(text)
    assert not (out_dir / "final.vtk").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_main_leaves_sigterm_alone(tmp_path):
    # perfbench and other programs call ``main`` in their own process
    before = signal.getsignal(signal.SIGTERM)
    cfg = write_config(tmp_path, f"scenario = lshape\nM = 2\nT = 0.25\nout = {tmp_path / 'r'}\n")
    assert main(["run", "--config", cfg]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_run_rejects_bad_series_cadence_before_meshing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(tdglfem.scenarios, "lshape_mesh", never)
    cfg = write_config(tmp_path, f"scenario = lshape\nM = 4\nT = 0.1\ntau = 0.05\n"
                                 f"series_cadence = 0\nout = {tmp_path / 'r'}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "series_cadence must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [["run", "--config", "run.cfg"], ["convergence"]],
                         ids=["run", "convergence"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(capsys, monkeypatch, argv, threads):
    def never(*args, **kwargs):
        raise AssertionError("the command started")

    monkeypatch.setattr(tdglfem.config, "materialize", never)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", threads])
    assert exc.value.code == 2
    assert f"must be 1 or more, got {threads}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_rejects_snapshot_after_T(tmp_path, capsys):
    cfg = write_config(tmp_path, f"scenario = lshape\nM = 4\nT = 0.1\nsnapshots = 5\n"
                                 f"out = {tmp_path / 'r'}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "snapshot time 5.0 is after T = 0.1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_rejects_step_below_time_resolution(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the time loop started")

    monkeypatch.setattr(tdglfem.stepper, "run", never)
    cfg = write_config(tmp_path, f"scenario = lshape\nM = 2\nT = 1\ntau = 1e-300\n"
                                 f"out = {tmp_path / 'r'}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "time resolution" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_refuses_obtuse_mesh(tmp_path, capsys):
    mesh_file = obtuse_mesh_file(tmp_path)
    cfg = write_config(
        tmp_path,
        f"scenario = custom\nmesh_file = {mesh_file}\nkappa = 1\nT = 0.1\ntau = 0.05\n"
        f"out = {tmp_path / 'res'}\n",
    )
    assert main(["run", "--config", cfg]) == 3
    assert "obtuse" in capsys.readouterr().err


def test_run_strict_acute_flag(tmp_path, capsys):
    cfg = write_config(
        tmp_path, f"scenario = lshape\nM = 2\nT = 0.1\ntau = 0.1\nout = {tmp_path / 'r'}\n"
    )
    assert main(["run", "--config", cfg, "--strict-acute"]) == 3
    assert "weakly acute" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_refuses_overflowing_initial_energy(tmp_path, capsys):
    out = tmp_path / "r"
    cfg = write_config(
        tmp_path, f"scenario = custom\nM = 4\nkappa = 1\nT = 1\nH = 1e308\nout = {out}\n"
    )
    assert main(["run", "--config", cfg]) == 3
    assert "initial magnetic energy is not finite" in capsys.readouterr().err
    assert not (out / "series.csv").exists()


# -- check-mesh -----------------------------------------------------------------


def test_check_mesh_weakly_acute(tmp_path, capsys):
    mesh = Mesh.from_cells(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0, 1, 2], [1, 3, 2]]
    )
    path = tmp_path / "square.mesh"
    path.write_text(format_native(mesh))

    assert main(["check-mesh", "--mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "vertices 4, edges 5, cells 2" in out
    assert "OK with warning" in out

    assert main(["check-mesh", "--mesh", str(path), "--strict-acute"]) == 3
    assert "REJECT" in capsys.readouterr().out


def test_check_mesh_obtuse(tmp_path, capsys):
    assert main(["check-mesh", "--mesh", obtuse_mesh_file(tmp_path)]) == 3
    assert "REJECT: obtuse" in capsys.readouterr().out


def test_check_mesh_missing_file(tmp_path, capsys):
    assert main(["check-mesh", "--mesh", str(tmp_path / "nope.mesh")]) == 2
    capsys.readouterr()


NATIVE_OUT_OF_RANGE = "tdgl-mesh 1\n3\n0 0\n1 0\n0 1\n1\n0 1 3\n"
NATIVE_ZERO_AREA = "tdgl-mesh 1\n3\n0 0\n1 0\n2 0\n1\n0 1 2\n"
GMSH_ZERO_AREA = """\
$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 2 0 0
$EndNodes
$Elements
1
1 2 2 0 1 1 2 3
$EndElements
"""


@pytest.mark.parametrize("text, message", [
    (NATIVE_OUT_OF_RANGE, "cell refers to a vertex index out of range"),
    (NATIVE_ZERO_AREA, "1 degenerate (zero-area) cells"),
    (GMSH_ZERO_AREA, "1 degenerate (zero-area) cells"),
    (NATIVE_ZERO_AREA.replace("2 0\n", "nan 1\n"), "vertex coordinates must be finite"),
    ("tdgl-mesh 1\n3\n0 0\n1 0\n0 1\n2\n0 1 2\n2 1 0\n",
     "repeated triangle: two cells have the same three vertices"),
], ids=["out-of-range", "native-zero-area", "gmsh-zero-area", "non-finite", "repeated-triangle"])
def test_check_mesh_malformed_file_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.msh"
    path.write_text(text)
    assert main(["check-mesh", "--mesh", str(path)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_check_mesh_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.mesh"
    path.write_bytes(b"tdgl-mesh 1\n# caf\xe9\n")
    assert main(["check-mesh", "--mesh", str(path)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_run_config_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"scenario = lshape\nM = 4\n# \xff\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "configuration error: cannot read config" in capsys.readouterr().err


def test_check_mesh_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = lshape\nM = 4\n")
    assert main(["check-mesh", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "angles" in out and "quasi-uniformity" in out


# -- convergence -----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_convergence_table_and_csv(tmp_path, capsys):
    out_dir = tmp_path / "conv"
    assert main(["convergence", "--resolutions", "2,4", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "err A" in out and "rate" in out
    lines = (out_dir / "convergence.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "2"


def test_convergence_needs_two_resolutions(capsys):
    assert main(["convergence", "--resolutions", "8"]) == 2
    assert "at least two" in capsys.readouterr().err


def test_convergence_bad_resolutions(capsys):
    assert main(["convergence", "--resolutions", "8,many"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "config, resolutions, message",
    [
        ("T = inf", "4,8", "T must be finite"),
        ("kappa = -1", "4,8", "kappa must be positive"),
        ("checks = bogus", "4,8", "checks must be one of"),
        ("tau = 0.5", "4,8", "tau cannot be set"),
        ("M = 8", "4,8", "M cannot be set"),
        ("mesh_file = nowhere.msh", "4,8", "mesh_file cannot be set"),
        ("snapshots = 0.5", "4,8", "snapshots cannot be set"),
        ("series_cadence = 2", "4,8", "series_cadence cannot be set"),
        (None, "4,0", "double"),
        (None, "4,4", "double"),
        (None, "0,0", "double"),
    ],
)
def test_convergence_validates_before_solving(tmp_path, capsys, monkeypatch, config,
                                              resolutions, message):
    def never(*args, **kwargs):
        raise AssertionError("the time loop started")

    monkeypatch.setattr(tdglfem.stepper, "run", never)
    argv = ["convergence", "--resolutions", resolutions]
    if config is not None:
        argv += ["--config", write_config(tmp_path, f"scenario = manufactured\n{config}\n")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_convergence_levels_follow_the_config(tmp_path, monkeypatch):
    real_run, seen = tdglfem.stepper.run, []

    def recording_run(mesh, params):
        seen.append((mesh.num_cells, params.kappa, params.mu, params.tau, params.T))
        return real_run(mesh, params)

    monkeypatch.setattr(tdglfem.stepper, "run", recording_run)
    cfg = write_config(tmp_path, "scenario = manufactured\nkappa = 2\nmu = 50\nT = 0.5\n")
    assert main(["convergence", "--config", cfg, "--resolutions", "2,4"]) == 0
    assert seen == [(8, 2.0, 50.0, 0.5, 0.5), (32, 2.0, 50.0, 0.25, 0.5)]


def test_convergence_config_must_be_manufactured(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = lshape\n")
    assert main(["convergence", "--config", cfg, "--resolutions", "2,4"]) == 2
    assert "manufactured" in capsys.readouterr().err


# -- misc ------------------------------------------------------------------------


def test_thread_limit_sets_env(monkeypatch):
    # one thread unless more are asked for, so the output bytes do not depend on the machine
    for command in ("run", "convergence"):
        monkeypatch.setattr(tdglfem.cli, f"_cmd_{command}", lambda args: 0)
        for flag, expected in ((["--threads", "3"], "3"), ([], "1")):
            cleared_thread_vars(monkeypatch)
            assert main([command, "--config", "x.cfg", *flag]) == 0
            assert {var: os.environ[var] for var in _THREAD_VARS} == dict.fromkeys(_THREAD_VARS, expected)


def test_thread_limit_ignores_garbage(capsys):
    for threads in ("-2", "0", "two", ""):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "x.cfg", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not any(var in os.environ for var in _THREAD_VARS)


def test_threads_parsed_before_numpy_loads():
    # the cap only takes effect if numpy is not loaded when it is set
    code = (
        "import sys, tdglfem.cli as cli\n"
        "args = cli._build_parser().parse_args(['run', '--config', 'x', '--threads', '2'])\n"
        "assert args.threads == 2\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_smoke():
    exe = shutil.which("tdglfem")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "scenarios"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lshape" in proc.stdout
