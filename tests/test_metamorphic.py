"""Metamorphic relations: the file-mode assessment of a case against the
assessment of a transformed copy, whose effect on the report is known.

* R1, impedance scale: Re and Im of all three inputs times 2**m, exact in
  binary floating point. L_old, rho and the direct loop gain are ratios
  of scaled values, so every crossover, margin, region, winding, verdict
  and exit code must be identical; the three impedance magnitudes of the
  limit and compliance records scale by 2**m up to the rounding of
  log|Z| + m log 2, which ``value_at`` interpolates.
* R2, frequency scale: every frequency times 2. The interpolant lives in
  log f, where doubling adds the rounded log 2, so the crossover
  frequencies double within a few ulps, and every verdict, region,
  winding, flag and exit code must be identical.
* R3, interpolant refinement: each input gains a sample at the geometric
  mean frequency of every interval, taken from ``value_at``. That is the
  midpoint in log f, where the interpolant is linear in log|Z| and phase,
  so the inputs' interpolants do not change, nor does that of
  L_old = Z_net_old / Z_ppm_existing. L_old's crossover kinds, regions
  and verdict and the exit code must be identical, and its crossover
  frequencies and phase margins move by rounding only. L_new's values are
  not compared: 1 + rho is not linear in log f between samples.

Four more relations change no number, so the bytes of every output must
stay the same:

* the route: ``check --synth case.json``, a file-mode ``check`` on the
  files that ``synth --case case.json`` writes, and one on the tables of
  the same networks that ``synth --bundled`` and ``synth --seed`` write.
  The report depends on the three impedances, not on how they reached it.
* CRLF line endings in the input tables instead of LF.
* the ``#`` metadata lines of each table in reverse order.
* the order of ``--format``.

One more changes only the inputs' labels: every ``# label=`` line of the
three tables rewritten, with ``|``, ``=`` and ``,`` in the new labels.
The exit code, stdout, stderr and both charts must stay the same, and so
must ``report.json`` without ``inputs.labels`` and ``report.md`` without
its ``- labels:`` line.

The bounds were measured on the cases below, never set to make a
relation pass: over ``_SCALE_EXPONENTS`` the R1 magnitudes came within
26.7 eps relative (golden seed 0 at m = -60), rounded up to 30 eps, and
the R2 crossover frequencies within 14 ulps (golden seed 1; the other
cases within 5). Under R3, L_old's crossover frequencies came within 11
ulps (golden seed 6) and its phase margins within 1.75e-15 relative
(golden seed 1), rounded up to 8 eps; none of these L_old curves has a
phase crossover.
"""
import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from margingate.cli import RunConfig, main, run_assessment
from margingate.fixtures import _TABLEII_SCALE
from margingate.freqresp import FrequencyGrid, value_at, write_response
from margingate.netsynth import ROLES, network_to_obj, scale_network
from margingate.report import render

from test_golden import case_curves, case_networks

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
        scaled = [dataclasses.replace(c, samples=c.samples * k) for c in case_curves(name)]
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
    samples[0::2], samples[1::2] = curve.samples, value_at(curve, mid)
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


ALL_FORMATS = "json,markdown,nyquist_svg,bode_svg"


def cli(*args) -> tuple:
    """``margin-gate ARGS`` in process: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def check(out_dir, inputs, formats=ALL_FORMATS) -> tuple:
    """A ``check`` of the input flags: what it printed and returned, and the
    bytes of each file it wrote."""
    printed = cli("check", *inputs, "--out-dir", out_dir, "--format", formats)
    return printed, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def write_tables(d, curves, edit=lambda data: data) -> list:
    """Write the curves as the tables of a case, each through ``edit``; the
    file flags of ``check``."""
    d.mkdir(parents=True)
    for role, curve in zip(ROLES, curves):
        (d / f"{role}.csv").write_bytes(edit(write_response(curve)))
    return files_flags(d)


def files_flags(d) -> list:
    return ["--z-ppm", d / "z_ppm_existing.csv", "--z-net-old", d / "z_net_old.csv",
            "--z-ppm-new", d / "z_ppm_new.csv"]


def case_file(name, path):
    """The case's three networks and grid as a ``--synth`` case file."""
    nets = case_networks(name)
    if name == "tableII-like":
        nets = (*nets[:2], scale_network(nets[2], _TABLEII_SCALE))
    grid = case_curves(name)[0].grid
    lo, hi = grid.span
    obj = {"grid": {"start_hz": lo, "stop_hz": hi, "points": len(grid)}}
    path.write_text(json.dumps({**obj, **dict(zip(ROLES, map(network_to_obj, nets)))}))
    return path


@pytest.mark.parametrize("name", _CASES)
def test_route_synth_case_or_its_files(name, tmp_path):
    case = case_file(name, tmp_path / "case.json")
    assert cli("synth", "--case", case, "--out-dir", tmp_path / "in")[0] == 0
    got = check(tmp_path / "synth", ["--synth", case])
    assert len(got[1]) == 4
    assert got == check(tmp_path / "files", files_flags(tmp_path / "in"))
    # and the tables that synth --bundled and --seed write for the same networks
    assert got == check(tmp_path / "tables", write_tables(tmp_path / "curves", case_curves(name)))


@pytest.mark.parametrize("name", _CASES)
def test_crlf_line_endings(name, tmp_path):
    lf = write_tables(tmp_path / "lf", case_curves(name))
    crlf = write_tables(tmp_path / "crlf", case_curves(name), lambda b: b.replace(b"\n", b"\r\n"))
    assert check(tmp_path / "a", crlf) == check(tmp_path / "b", lf)


def reversed_metadata(data: bytes) -> bytes:
    """The table with its leading ``#`` lines in reverse order."""
    lines = data.split(b"\n")
    k = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
    assert k == 3  # every metadata key is written
    return b"\n".join(lines[:k][::-1] + lines[k:])


@pytest.mark.parametrize("name", _CASES)
def test_reordered_metadata(name, tmp_path):
    curves = [
        dataclasses.replace(c, sequence="positive", operating_point=f"P=1 pu, {c.label}")
        for c in case_curves(name)
    ]
    got = check(tmp_path / "a", write_tables(tmp_path / "reordered", curves, reversed_metadata))
    assert got == check(tmp_path / "b", write_tables(tmp_path / "written", curves))
    assert b"P=1 pu" in got[1]["report.json"]


@pytest.mark.parametrize("name", _CASES)
def test_format_order(name, tmp_path):
    flags = write_tables(tmp_path / "in", case_curves(name))
    got = check(tmp_path / "a", flags, ",".join(reversed(ALL_FORMATS.split(","))))
    assert got == check(tmp_path / "b", flags)


def relabelled(data: bytes) -> bytes:
    """The table with its ``# label=`` line rewritten to a label holding ``|``, ``=`` and ``,``."""
    assert data.count(b"# label=") == 1
    return data.replace(b"# label=", b"# label=vendor | rev=2, ")


def without_labels(files) -> tuple:
    """The report files apart from their record of the input labels, and that record."""
    report = json.loads(files["report.json"])
    labels = report["inputs"].pop("labels")
    md = files["report.md"].split(b"\n")
    assert sum(line.startswith(b"- labels: ") for line in md) == 1
    md = [line for line in md if not line.startswith(b"- labels: ")]
    return report, md, files["nyquist.svg"], files["bode.svg"], labels


@pytest.mark.parametrize("name", _CASES)
def test_relabelled_inputs(name, tmp_path):
    got_printed, got = check(tmp_path / "a", write_tables(tmp_path / "new", case_curves(name),
                                                         relabelled))
    printed, files = check(tmp_path / "b", write_tables(tmp_path / "written", case_curves(name)))
    assert got_printed == printed and got.keys() == files.keys()
    *got, got_labels = without_labels(got)
    *base, labels = without_labels(files)
    assert got == base
    assert got_labels == {role: f"vendor | rev=2, {label}" for role, label in labels.items()}
