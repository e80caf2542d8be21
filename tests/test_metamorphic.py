"""Metamorphic relations: the file-mode assessment of a case against the
assessment of a transformed copy, whose effect on the report is known.

* R1, impedance scale: Re and Im of all three inputs times 2**m, exact in
  binary floating point. L_old, rho and the direct loop gain are ratios
  of scaled values, so every crossover, margin, region, winding, verdict
  and exit code must be identical; the three impedance magnitudes of the
  limit and compliance records scale by 2**m up to the rounding of
  log|Z| + m log 2, which ``values_at`` interpolates.
* R2, frequency scale: every frequency times 2. The interpolant lives in
  log f, where doubling adds the rounded log 2, so the crossover
  frequencies double within a few ulps, and every verdict, region,
  winding, flag and exit code must be identical.
* R3, interpolant refinement: each input gains a sample at the geometric
  mean frequency of every interval, taken from ``values_at``. That is the
  midpoint in log f, where the interpolant is linear in log|Z| and phase,
  so the inputs' interpolants do not change, nor does that of
  L_old = Z_net_old / Z_ppm_existing. L_old's crossover kinds, regions
  and verdict and the exit code must be identical, and its crossover
  frequencies and phase margins move by rounding only. L_new's values are
  not compared: 1 + rho is not linear in log f between samples.

The bounds were measured on the cases below, never set to make a
relation pass: over ``_SCALE_EXPONENTS`` the R1 magnitudes came within
26.7 eps relative (golden seed 0 at m = -60), rounded up to 30 eps, and
the R2 crossover frequencies within 14 ulps (golden seed 1; the other
cases within 5). Under R3, L_old's crossover frequencies came within 11
ulps (golden seed 6) and its phase margins within 1.75e-15 relative
(golden seed 1), rounded up to 8 eps; none of these L_old curves has a
phase crossover.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from margingate.cli import RunConfig, run_assessment
from margingate.freqresp import FrequencyGrid, values_at, write_response
from margingate.report import render

from test_golden import case_curves

EPS = 2.0**-52
_CASES = ["compliant-A", "tableII-like"] + [f"seed-{s}" for s in range(10)]
_SCALE_EXPONENTS = (-60, -20, -1, 1, 3, 44, 60)
_SCALED_KEYS = {"z_limit_ohm", "z_net_old_mag_ohm", "z_new_mag_ohm"}
_FREQ_KEYS = {"f_hz", "freqs_hz"}
R1_RTOL = 30 * EPS
R2_ULPS = 14
R3_ULPS = 11
R3_PM_RTOL = 8 * EPS


def leaves(obj, path=()):
    """(path, value) for every leaf of a parsed report."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, path + (i,))
    else:
        yield path, obj


def assess(curves, tmp_path) -> tuple[dict, int]:
    """Write the curves, run a file-mode assessment on them; the report's
    leaves and the exit code."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = []
    for role, curve in zip(("z_ppm_existing", "z_net_old", "z_ppm_new"), curves):
        paths.append(tmp_path / f"{role}.csv")
        paths[-1].write_bytes(write_response(curve))
    report, code = run_assessment(RunConfig(*paths))
    return dict(leaves(json.loads(render(report, "json")))), code


def keyed(path, keys) -> bool:
    return any(isinstance(k, str) and k in keys for k in path)


@pytest.mark.parametrize("name", _CASES)
def test_r1_impedance_scale(name, tmp_path):
    base, code = assess(case_curves(name), tmp_path / "base")
    assert any(keyed(p, _SCALED_KEYS) and v is not None for p, v in base.items())
    for m in _SCALE_EXPONENTS:
        k = 2.0**m
        scaled = [c.with_samples(c.samples * k) for c in case_curves(name)]
        got, got_code = assess(scaled, tmp_path / f"m{m}")
        assert got_code == code and got.keys() == base.keys()
        for path, v in base.items():
            if keyed(path, _SCALED_KEYS) and v is not None:
                assert abs(got[path] / k - v) <= R1_RTOL * abs(v), (m, path, got[path], v)
            else:
                assert got[path] == v, (m, path, got[path], v)


@pytest.mark.parametrize("name", _CASES)
def test_r2_frequency_scale(name, tmp_path):
    base, code = assess(case_curves(name), tmp_path / "base")
    doubled = [
        dataclasses.replace(c, grid=FrequencyGrid(2.0 * c.grid.points)) for c in case_curves(name)
    ]
    got, got_code = assess(doubled, tmp_path / "doubled")
    assert got_code == code and got.keys() == base.keys()
    for path, v in base.items():
        if keyed(path, _FREQ_KEYS):
            assert abs(got[path] - 2.0 * v) <= R2_ULPS * math.ulp(2.0 * v), (path, got[path], v)
        elif not isinstance(v, float):  # verdicts, regions, kinds, windings, flags
            assert got[path] == v, (path, got[path], v)


def refined(curve):
    """The curve with a sample added at the geometric mean of every interval."""
    f = curve.grid.points
    mid = np.sqrt(f[:-1] * f[1:])
    points = np.empty(2 * f.size - 1)
    points[0::2], points[1::2] = f, mid
    samples = np.empty(points.size, dtype=complex)
    samples[0::2], samples[1::2] = curve.samples, values_at(curve, mid)
    return dataclasses.replace(curve, grid=FrequencyGrid(points), samples=samples)


@pytest.mark.parametrize("name", _CASES)
def test_r3_interpolant_refinement(name, tmp_path):
    base, code = assess(case_curves(name), tmp_path / "base")
    got, got_code = assess([refined(c) for c in case_curves(name)], tmp_path / "refined")
    assert got_code == code
    l_old = [p for p in base if p[0] == "l_old"]
    assert l_old == [p for p in got if p[0] == "l_old"]
    assert any(p[-1] == "f_hz" for p in l_old)
    for path in l_old:
        v = base[path]
        if path[-1] == "f_hz":
            assert abs(got[path] - v) <= R3_ULPS * math.ulp(v), (path, got[path], v)
        elif path[-1] == "pm_deg":
            assert abs(got[path] - v) <= R3_PM_RTOL * abs(v), (path, got[path], v)
        elif not isinstance(v, float):  # kinds, regions, the verdict
            assert got[path] == v, (path, got[path], v)
