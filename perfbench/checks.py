"""Checks on the files a user of ``tdglfem`` gets, against the method's properties.

Nothing here compares with a stored copy of earlier output: every check is
a property the scheme guarantees (energy decay, the unit modulus bound,
first-order convergence against the exact solution) or a count that
follows from the workload's definition. Files are read line by line so the
checks add little to the process's peak memory.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

#: nodal moduli may exceed 1 by this much (the stepper's own MBP_SLACK)
MODULUS_SLACK = 1e-10

#: relative slack on the step-to-step energy decrease (the stepper's ENERGY_SLACK)
ENERGY_SLACK = 1e-9

SERIES_HEADER = ["t", "tau", "G_total", "G_cov", "G_mag", "G_pot", "max_psi"]

#: observed-order windows of the first-order error estimate, per field
RATE_WINDOWS = {
    "A": (0.85, 1.25),
    "curl_A": (0.85, 1.25),
    "psi": (1.0, math.inf),
    "grad_psi": (0.9, 1.3),
}


class CheckFailed(Exception):
    """An output file breaks a property the method guarantees."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(text: str, where: str) -> float:
    value = float(text)
    require(math.isfinite(value), f"{where}: non-finite value {text!r}")
    return value


def check_series(path, T: float) -> int:
    """Check ``series.csv`` of a relaxation run; returns its number of steps.

    The stepper stops once ``t >= T - 1e-9 max(1, T)``, so the last time is
    checked against that same threshold.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        require(next(reader, None) == SERIES_HEADER, f"{path}: unexpected header")
        rows = [[_finite(v, f"{path} row {k + 1}") for v in row]
                for k, row in enumerate(reader)]
    require(len(rows) >= 2, f"{path}: fewer than two rows")
    require(all(len(row) == len(SERIES_HEADER) for row in rows), f"{path}: ragged rows")
    t_last = rows[-1][0]
    require(t_last >= T - 1e-9 * max(1.0, T), f"{path}: last t {t_last!r} is short of T={T!r}")
    energies = [row[2] for row in rows]
    budget = ENERGY_SLACK * max(1.0, abs(energies[0]))
    for k in range(1, len(energies)):
        require(energies[k] <= energies[k - 1] + budget,
                f"{path}: G_total rose from {energies[k - 1]!r} to {energies[k]!r} at t={rows[k][0]!r}")
    require(energies[-1] < energies[0], f"{path}: final energy is not below the initial one")
    worst = max(row[6] for row in rows)
    require(worst <= 1.0 + MODULUS_SLACK, f"{path}: max_psi reached {worst!r}")
    return len(rows) - 1


def check_vtk(path, vertices: int, cells: int) -> None:
    """Check a legacy VTK snapshot's mesh counts and its ``psi_abs`` field."""
    seen = {}
    with open(path) as fh:
        lines = iter(fh)
        for line in lines:
            key, _, rest = line.partition(" ")
            if key in ("POINTS", "CELLS", "POINT_DATA", "CELL_DATA", "CELL_TYPES"):
                seen[key] = int(rest.split()[0])
            elif line.startswith("SCALARS psi_abs "):
                next(lines)  # LOOKUP_TABLE default
                values = [_finite(next(lines), f"{path} psi_abs") for _ in range(vertices)]
                worst = max(values)
                require(min(values) >= 0.0 and worst <= 1.0 + MODULUS_SLACK,
                        f"{path}: psi_abs reached {worst!r}")
                seen["psi_abs"] = len(values)
    expected = {"POINTS": vertices, "POINT_DATA": vertices, "psi_abs": vertices,
                "CELLS": cells, "CELL_TYPES": cells, "CELL_DATA": cells}
    require(seen == expected, f"{path}: counts {seen} differ from the mesh's {expected}")


def check_snapshots(out_dir, count: int, vertices: int, cells: int) -> None:
    """Exactly ``count`` snapshots plus ``final.vtk``, each checked."""
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".vtk"))
    expected = sorted([f"snapshot_{k:03d}.vtk" for k in range(count)] + ["final.vtk"])
    require(names == expected, f"{out_dir}: VTK files {names} differ from {expected}")
    for name in names:
        check_vtk(os.path.join(out_dir, name), vertices, cells)


def check_convergence(path, resolutions) -> None:
    """Errors fall at each refinement and the observed orders are first order.

    Orders are recomputed from the errors and ``h`` and must match the
    file's own rate columns.
    """
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require([int(r["one_over_h"]) for r in rows] == list(resolutions),
            f"{path}: resolutions {[r['one_over_h'] for r in rows]} differ from {resolutions}")
    hs = [_finite(r["h"], path) for r in rows]
    for name, (low, high) in RATE_WINDOWS.items():
        errs = [_finite(r["err_" + name], path) for r in rows]
        require(all(e > 0 for e in errs), f"{path}: err_{name} is not positive")
        for k in range(1, len(rows)):
            require(errs[k] < errs[k - 1], f"{path}: err_{name} did not fall at 1/h={resolutions[k]}")
            rate = math.log(errs[k - 1] / errs[k]) / math.log(hs[k - 1] / hs[k])
            written = _finite(rows[k]["rate_" + name], path)
            require(abs(rate - written) <= 1e-9, f"{path}: rate_{name} {written!r} != {rate!r}")
            require(low <= rate <= high,
                    f"{path}: order of {name} {rate:.3f} at 1/h={resolutions[k]} outside [{low}, {high}]")
