import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import tdglfem.config
from tdglfem.cli import run_manufactured_convergence
from tdglfem.config import (
    ConfigError,
    RunConfig,
    materialize,
    parse_config,
)
from tdglfem.diagnostics import error_norms
from tdglfem.mesh import format_native
from tdglfem.stepper import AdaptiveTau, run

from mutations import mutated


def test_parse_full_file():
    cfg = parse_config(
        """
        # a comment
        [run]
        scenario = lshape
        M = 8
        kappa = 10      # inline comment
        sigma = 1.0
        H = 5
        mu = auto
        T = 20
        tau = adaptive
        alpha = 2e5
        tau_min = 0.01
        tau_max = 0.25
        psi0 = 0.6+0.8i
        out = results/lshape
        snapshots = 0, 5, 20
        series_cadence = 10
        strict_acute = true
        checks = abort
        """
    )
    assert cfg.scenario == "lshape"
    assert cfg.M == 8
    assert cfg.kappa == 10.0
    assert cfg.mu == "auto"
    assert cfg.tau == "adaptive"
    assert cfg.alpha == 2e5
    assert cfg.psi0 == 0.6 + 0.8j
    assert cfg.snapshots == (0.0, 5.0, 20.0)
    assert cfg.strict_acute is True
    assert cfg.checks == "abort"


def test_parse_empty_gives_defaults():
    cfg = parse_config("# nothing but comments\n\n")
    assert cfg == RunConfig()
    assert cfg.scenario == "lshape"
    assert cfg.M is None


@pytest.mark.parametrize(
    "text, key",
    [
        ("kappa = ten", "kappa"),
        ("M = 8.5", "M"),
        ("strict_acute = maybe", "strict_acute"),
        ("psi0 = vortex", "psi0"),
        ("snapshots = 1, two", "snapshots"),
        ("snapshots = nan, 5", "snapshots"),
        ("snapshots = 1, inf", "snapshots"),
        ("series_cadence = often", "series_cadence"),
    ],
)
def test_parse_bad_values(text, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.key == key


def test_a_field_carries_its_own_parser(monkeypatch):
    # parse_config reads the keys and their parsers off RunConfig's fields,
    # so a field added there can be set from a file with nothing else to update
    assert all(callable(f.metadata["parse"]) for f in fields(RunConfig))

    @dataclass
    class Extended(RunConfig):
        extra: int | None = field(default=None, metadata={"parse": lambda raw, key: 2 * int(raw)})

    monkeypatch.setattr(tdglfem.config, "RunConfig", Extended)
    assert parse_config("M = 4\nextra = 3\n") == Extended(M=4, extra=6)


def test_parse_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3.*unknown key 'kapa'") as exc:
        parse_config("scenario = lshape\n\nkapa = 10\n")
    assert exc.value.key == "kapa"


@pytest.mark.parametrize("key", ["energy_check", "mbp_check"])
def test_parse_retired_check_keys(key):
    # one ``checks`` key replaced these; a retired key must not run unchecked
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"scenario = lshape\n{key} = abort\n")


def test_readme_documents_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    missing = [f.name for f in fields(RunConfig)
               if not re.search(rf"\b{re.escape(f.name)}\b", section)]
    assert not missing, f"README's config format section does not name {missing}"


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'T'"):
        parse_config("T = 1\nT = 2\n")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_parse_malformed_section():
    with pytest.raises(ConfigError, match="section"):
        parse_config("[run\n")


FULL_CONFIG = """\
[run]
scenario = lshape
M = 8
kappa = 10      # inline comment
mu = auto
tau = adaptive
tau_max = 0.25
psi0 = 0.6+0.8i
snapshots = 0, 5, 20
series_cadence = 10
strict_acute = true
"""


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated(FULL_CONFIG))
def test_parse_config_returns_config_or_config_error(text):
    try:
        assert isinstance(parse_config(text), RunConfig)
    except ConfigError:
        pass


def test_parse_psi0_forms():
    assert parse_config("psi0 = 1").psi0 == 1 + 0j
    assert parse_config("psi0 = -0.5i").psi0 == -0.5j
    assert parse_config("psi0 = 0.6 + 0.8i").psi0 == 0.6 + 0.8j


def test_parse_tau_numeric():
    assert parse_config("tau = 0.05").tau == 0.05


def test_parse_mu_numeric():
    assert parse_config("mu = 3.5").mu == 3.5


# -- materialize ------------------------------------------------------------------


def test_materialize_lshape_defaults():
    run = materialize(parse_config("scenario = lshape\nM = 4\n"))
    assert run.mesh.cell_areas.sum() == pytest.approx(0.75)
    assert run.params.kappa == 10.0
    assert run.params.T == 20.0
    assert run.params.psi0 == 0.6 + 0.8j
    assert isinstance(run.params.tau, AdaptiveTau)
    assert run.exact is None


def test_materialize_manufactured():
    run = materialize(parse_config("scenario = manufactured\nM = 4\n"))
    assert run.params.tau == pytest.approx(0.25)  # follows the mesh size
    assert callable(run.params.psi0)
    assert run.params.forcing_psi is not None
    assert run.exact is not None
    assert run.exact.psi(0.0, 0.0, 0.0) == pytest.approx(1.0 + 1.0j)


@pytest.mark.parametrize("line", ["H = 3", "psi0 = 1", "mesh_file = m.msh"])
def test_materialize_manufactured_rejects_overrides(line):
    with pytest.raises(ConfigError, match="manufactured"):
        materialize(parse_config(f"scenario = manufactured\n{line}\n"))


def test_materialize_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        materialize(RunConfig(scenario="pipe_flow"))


def test_materialize_m_and_mesh_file_conflict():
    with pytest.raises(ConfigError, match="not both"):
        materialize(RunConfig(scenario="lshape", M=4, mesh_file="m.msh"))


def test_materialize_missing_mesh_file():
    with pytest.raises(ConfigError, match="cannot read mesh_file"):
        materialize(RunConfig(scenario="custom", mesh_file="/no/such/file.msh",
                              kappa=1.0, T=1.0))


def test_materialize_mesh_file(tmp_path, square2):
    path = tmp_path / "square.mesh"
    path.write_text(format_native(square2))
    run = materialize(RunConfig(scenario="custom", mesh_file=str(path),
                                kappa=1.0, T=1.0, tau=0.1))
    assert run.mesh.num_cells == square2.num_cells
    assert run.params.H == 0.0


def test_materialize_custom_requires_constants():
    with pytest.raises(ConfigError, match="kappa"):
        materialize(RunConfig(scenario="custom", M=2, T=1.0))
    with pytest.raises(ConfigError, match="needs M or mesh_file"):
        materialize(RunConfig(scenario="custom", kappa=1.0, T=1.0))


def test_materialize_adaptive_overrides():
    run = materialize(parse_config(
        "scenario = lshape\nM = 4\ntau = adaptive\ntau_max = 0.5\nalpha = 1e4\n"
    ))
    assert run.params.tau == AdaptiveTau(alpha=1e4, tau_min=0.02, tau_max=0.5)


def test_materialize_adaptive_keys_need_adaptive_tau():
    with pytest.raises(ConfigError, match="alpha only applies") as exc:
        materialize(parse_config("scenario = lshape\nM = 4\ntau = 0.1\nalpha = 1e4\n"))
    assert exc.value.key == "alpha"


def test_materialize_refuses_a_non_integral_m():
    # the mesh and the step 1/M read the same M, so M = 8.5 is refused, not run as M = 8
    with pytest.raises(ConfigError, match="M must be a positive integer, got 8.5") as exc:
        materialize(RunConfig(scenario="manufactured", M=8.5))
    assert exc.value.key == "M"
    for M in (8.0, np.int64(8)):
        prepared = materialize(RunConfig(scenario="manufactured", M=M))
        assert prepared.mesh.num_cells == 128
        assert prepared.params.tau == 0.125


def test_materialize_odd_lshape_m():
    with pytest.raises(ConfigError) as exc:
        materialize(RunConfig(scenario="lshape", M=3))
    assert exc.value.key == "M"


def test_materialize_rejects_bad_params():
    with pytest.raises(ConfigError, match="kappa"):
        materialize(RunConfig(scenario="lshape", M=4, kappa=-1.0))
    with pytest.raises(ConfigError, match="checks must be one of warn, abort, off"):
        materialize(parse_config("scenario = lshape\nM = 4\nchecks = bogus\n"))
    for line, field in [("T = inf", "T"), ("H = nan", "H"), ("psi0 = nan+0i", "psi0"),
                        ("tau_max = inf", "tau_max"), ("kappa = inf", "kappa")]:
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            materialize(parse_config(f"scenario = lshape\nM = 4\n{line}\n"))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_manufactured_params_single_source():
    # the config path and the refinement study build the same manufactured run
    prepared = materialize(parse_config("scenario = manufactured\nM = 8\n"))
    state = run(prepared.mesh, prepared.params)
    report = error_norms(prepared.mesh, state.A, state.psi, prepared.exact, state.t,
                         h=1 / 8, tau=1 / 8)
    assert report == run_manufactured_convergence((8, 16))[0][0]


def test_materialize_rejects_snapshot_after_T():
    with pytest.raises(ConfigError, match=r"snapshot time 5\.0 is after T = 0\.1") as exc:
        materialize(parse_config("scenario = lshape\nM = 4\nT = 0.1\nsnapshots = 0, 5\n"))
    assert exc.value.key == "snapshots"
    materialize(parse_config("scenario = lshape\nM = 4\nT = 0.1\nsnapshots = 0, 0.1\n"))
