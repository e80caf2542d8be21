"""Bundled synthetic study cases for the CLI and the acceptance suite.

Vendor impedance models are not distributable, so the bundled cases are
small passive networks tuned to exercise the three exit codes:

* ``compliant-A``      -- healthy stability margin, new plant inside the limit.
* ``tableII-like``     -- same networks, new plant rescaled so its
                          magnitude is exactly twice the limit at the
                          first new gain crossover (one violation row).
* ``invalid-header``   -- impedance file with an unrecognized header,
                          exercising the input-error exit path.

The cases are data: no stage of the gate runs to build them. The
``tableII-like`` scale is a stored constant, which
``test_cli.py::TestFixtures::test_tableii_targets_twice_the_limit`` checks
against the limit it is meant to break. Nothing is cached: each
``bundled_case`` call evaluates the three trees it returns, and no other.
All generation is deterministic; repeated writes are byte-identical.
"""
from __future__ import annotations

from pathlib import Path

from .freqresp import FrequencyGrid, FrequencyResponse, log_grid, write_response
from .netsynth import (
    CASE_LABELS,
    ROLES,
    Capacitor,
    Inductor,
    NetworkElement,
    Parallel,
    Resistor,
    Series,
    Thevenin,
    eval_network,
    scale_network,
)

__all__ = ["BUNDLED_CASES", "bundled_grid", "bundled_case", "write_bundled_case"]

BUNDLED_CASES = ("compliant-A", "tableII-like", "invalid-header")

_GRID_SPAN = (10.0, 5000.0)
_GRID_POINTS = 10000
# k with k*|Z_new(f1)| = 2*Z_limit(f1), f1 the first gain crossover of L_new with k*Z_new
_TABLEII_SCALE = 6.717362224385426
_BROKEN_HEADER = b"frequency,real,imag\n50,1,0\n100,1,0\n"


def bundled_grid() -> FrequencyGrid:
    return log_grid(*_GRID_SPAN, _GRID_POINTS)


def _base_networks() -> tuple[NetworkElement, NetworkElement, NetworkElement]:
    # existing plant: inductive transformer branch; |L_old| falls through
    # unity exactly once, at a healthy angle
    z_ppm = Series((Resistor(6.0), Inductor(9.0e-3)))
    # offshore network: damped Thevenin grid branch in parallel with a
    # damped cable-capacitance branch
    z_net_old = Parallel(
        (
            Series((Thevenin(66e3, 8e8, 4.0), Resistor(12.0))),
            Series((Resistor(5.0), Capacitor(40e-6))),
        )
    )
    # candidate new plant: filter-capacitor dominated, sized so the new
    # gain crossover lands near 150 Hz inside the limit with margin
    z_new = Series((Resistor(1.855), Capacitor(89.5e-6)))
    return z_ppm, z_net_old, z_new


def bundled_case(name: str) -> tuple[FrequencyResponse, FrequencyResponse, FrequencyResponse]:
    """Impedance curves (existing PPM, old network, new PPM) for a case."""
    if name not in ("compliant-A", "tableII-like"):
        raise ValueError(f"no impedance curves for case {name!r}")
    descs = list(_base_networks())
    if name == "tableII-like":
        descs[2] = scale_network(descs[2], _TABLEII_SCALE)
    grid = bundled_grid()
    return tuple(eval_network(d, grid, label=label) for d, label in zip(descs, CASE_LABELS))


def _case_name(name: str) -> str:
    """``name`` if it names a bundled case, else ``ValueError``."""
    if name not in BUNDLED_CASES:
        raise ValueError(f"unknown bundled case {name!r}; choose from {BUNDLED_CASES}")
    return name


def write_bundled_case(name: str, out_dir) -> dict[str, Path]:
    """Write a bundled case's input files, each ``<role>.csv``; returns role -> path."""
    _case_name(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves = bundled_case("compliant-A" if name == "invalid-header" else name)
    paths: dict[str, Path] = {}
    for role, curve in zip(ROLES, curves):
        broken = name == "invalid-header" and role == ROLES[0]
        paths[role] = out / f"{role}.csv"
        paths[role].write_bytes(_BROKEN_HEADER if broken else write_response(curve))
    return paths
