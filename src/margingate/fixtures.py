"""Bundled synthetic study cases for the CLI and the acceptance suite.

Vendor impedance models are not distributable, so the bundled cases are
small passive networks tuned to exercise the three exit codes:

* ``compliant-A``      -- healthy margins, new plant inside the limit.
* ``tableII-like``     -- same networks, new plant rescaled so its
                          magnitude is exactly twice the limit at the
                          first new gain crossover (one violation row).
* ``invalid-header``   -- impedance file with an unrecognized header,
                          exercising the input-error exit path.

All generation is deterministic; repeated writes are byte-identical.
"""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .freqresp import (
    FrequencyGrid,
    FrequencyResponse,
    log_grid,
    value_at,
    write_response,
)
from .loopgain import loop_gain, rho, update_loop_gain
from .margins import MarginPolicy, find_crossovers
from .netsynth import (
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
from .speclimit import limit_curve

__all__ = ["BUNDLED_CASES", "bundled_grid", "bundled_case", "write_bundled_case"]

BUNDLED_CASES = ("compliant-A", "tableII-like", "invalid-header")

_GRID_SPAN = (10.0, 5000.0)
_GRID_POINTS = 10000

_FILE_NAMES = {
    "z_ppm_existing": "z_ppm_existing.csv",
    "z_net_old": "z_net_old.csv",
    "z_ppm_new": "z_ppm_new.csv",
}


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


@lru_cache(maxsize=1)
def _base_curves() -> tuple[FrequencyResponse, FrequencyResponse, FrequencyResponse]:
    """The three ``compliant-A`` curves, evaluated once per process."""
    grid = bundled_grid()
    return tuple(
        eval_network(desc, grid, label=label)
        for desc, label in zip(_base_networks(), ("Z_ppm_existing", "Z_net_old", "Z_ppm_new"))
    )


@lru_cache(maxsize=1)
def _tableii_scale() -> float:
    """Scale on the new plant putting |Z_new| at 2x the limit.

    Fixed-point iteration: with a large scale the new plant barely moves
    the loop gain, so the first new gain crossover converges quickly.
    """
    z_ppm, z_net, z_new_base = _base_curves()
    l_old = loop_gain(z_net, z_ppm, label="L_old").response
    policy = MarginPolicy()

    k = 1000.0
    for _ in range(30):
        z_new = z_new_base.with_samples(k * z_new_base.samples)
        ratio = rho(z_net, z_new)
        l_new = update_loop_gain(l_old, ratio).response
        gains = find_crossovers(l_new, "gain")
        if not gains:
            raise RuntimeError("tableII-like fixture lost its gain crossover")
        f1 = gains[0].f_hz
        limits = limit_curve(l_old, z_net, [f1], policy, ratio)
        z_lim = limits.z_limit_ohm[0]
        if z_lim is None:
            raise RuntimeError("tableII-like fixture hit exhausted headroom")
        k_next = 2.0 * z_lim / abs(value_at(z_new_base, f1))
        if abs(k_next - k) <= 1e-12 * k:
            return k_next
        k = k_next
    return k


def bundled_case(
    name: str,
) -> tuple[FrequencyResponse, FrequencyResponse, FrequencyResponse]:
    """Impedance curves (existing PPM, old network, new PPM) for a case."""
    if name not in ("compliant-A", "tableII-like"):
        raise ValueError(f"no impedance curves for case {name!r}")
    z_ppm, z_net, z_new = _base_curves()
    if name == "tableII-like":
        z_new_d = scale_network(_base_networks()[2], _tableii_scale())
        z_new = eval_network(z_new_d, z_new.grid, label="Z_ppm_new")
    return z_ppm, z_net, z_new


def write_bundled_case(name: str, out_dir) -> dict[str, Path]:
    """Write a bundled case's input files; returns role -> path."""
    if name not in BUNDLED_CASES:
        raise ValueError(f"unknown bundled case {name!r}; choose from {BUNDLED_CASES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    if name == "invalid-header":
        _, good_net, good_new = bundled_case("compliant-A")
        broken = b"frequency,real,imag\n50,1,0\n100,1,0\n"
        (out / _FILE_NAMES["z_ppm_existing"]).write_bytes(broken)
        (out / _FILE_NAMES["z_net_old"]).write_bytes(write_response(good_net))
        (out / _FILE_NAMES["z_ppm_new"]).write_bytes(write_response(good_new))
    else:
        z_ppm, z_net, z_new = bundled_case(name)
        (out / _FILE_NAMES["z_ppm_existing"]).write_bytes(write_response(z_ppm))
        (out / _FILE_NAMES["z_net_old"]).write_bytes(write_response(z_net))
        (out / _FILE_NAMES["z_ppm_new"]).write_bytes(write_response(z_new))

    for role, fname in _FILE_NAMES.items():
        paths[role] = out / fname
    return paths
