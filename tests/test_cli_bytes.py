"""Byte guard for the ``margin-gate`` command: every subcommand form, as a process.

This module is the one statement of the command's contract. Each run in
``RUNS`` is a child process of this interpreter, started in a fresh
directory of its own and under this process's ``-X dev`` and ``-W``
flags, so a warning fails a row when the suite runs with ``-W error``.
The child runs the code that the installed ``margin-gate`` console script
runs, ``main`` of ``margingate.cli``, from the package this process
imported. Its inputs are under ``../in``: the bundled cases ``compliant-A``,
``tableII-like`` and ``invalid-header``, the random case that
``synth --seed 0`` writes (``seed-0``), a ``--synth`` case file for each
of those with curves, L_old and L_new loop-gain files, and one network
file. Five more cases hold ``compliant-A``'s inputs in other forms:
``regrid`` (each network on a grid of its own, so ``check`` resamples),
``polar`` (the existing plant as a ``freq_hz,mag_ohm,phase_deg`` table),
``bom`` (that file behind a UTF-8 byte-order mark), ``tagged`` (the
existing plant and ``compliant-A``'s L_old tagged ``positive``, the
network ``negative``) and ``zero-sample`` (the existing plant with one
sample of 0 ohm).
``golden_cli.json`` pins, for each run, the exit code, stdout, stderr and
the SHA-256 digest of every file the run writes. A change that alters any
of them must say why and edit that run's row; a new behaviour of the
command is one new row. A case gives the same bytes by every route, so
each ``check-synth-X`` row equals its ``check-files-X`` twin, and
``synth-case`` equals ``synth-seed``.

The digests, like those of ``test_golden.py``, hold only where numpy picks
the same SIMD kernels; so do the floats printed on stdout. To rewrite the
pins from the current code, through the same runner:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import margingate
from margingate.cli import RunConfig, run_assessment
from margingate.fixtures import (
    _TABLEII_SCALE,
    BUNDLED_CASES,
    _base_networks,
    write_bundled_case,
)
from margingate.freqresp import log_grid, parse_response, write_response
from margingate.loopgain import loop_gain
from margingate.netsynth import (
    CASE_LABELS,
    ROLES,
    eval_network,
    network_to_json,
    network_to_obj,
    random_case,
    scale_network,
)

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# what the console script that setuptools generates for margin-gate runs
MAIN = "import sys; from margingate.cli import main; sys.exit(main())"
FORMATS = "json,markdown,nyquist_svg,bode_svg"
CURVE_CASES = ("compliant-A", "tableII-like", "seed-0")
FILE_CASES = (*BUNDLED_CASES, "seed-0", "regrid", "polar", "bom")


def _files(case):
    return [f"../in/{case}/{role}.csv" for role in ROLES]


def _check(case, *extra):
    ppm, net, new = _files(case)
    return ["check", "--z-ppm", ppm, "--z-net-old", net, "--z-ppm-new", new,
            "--out-dir", "report", "--format", FORMATS, *extra]


def _limit(case, *extra):
    return ["limit", "--l-old", f"../in/{case}/l_old.csv",
            "--z-net-old", f"../in/{case}/z_net_old.csv", *extra]


def _z_new(case):
    return ("--z-new", f"../in/{case}/z_ppm_new.csv")


RUNS = {
    **{f"check-files-{c}": _check(c) for c in FILE_CASES},
    **{f"check-synth-{c}": ["check", "--synth", f"../in/{c}.json", "--out-dir", "report",
                            "--format", FORMATS] for c in CURVE_CASES},
    "check-synth-missing-role": ["check", "--synth", "../in/missing-role.json"],
    "check-critical-freqs": _check("compliant-A", "--critical-freqs", "150,500"),
    "check-margins-violation": _check("compliant-A", "--pm-min-deg", "70", "--pm-cau-deg", "80",
                                      "--critical-freqs", "3000"),
    "check-empty-critical-freqs": _check("tableII-like", "--critical-freqs", ","),
    "check-empty-format": _check("tableII-like", "--format", ","),
    "check-gm-min-db-inf": _check("compliant-A", "--gm-min-db", "inf"),
    **{f"check-critical-freqs-{f}": _check("compliant-A", "--critical-freqs", f)
       for f in ("0", "inf")},
    # refused at the config stage, before the missing file is read
    "check-critical-freqs-nan-missing-z-ppm": ["check", "--z-ppm", "missing.csv",
                                               *_check("compliant-A")[3:],
                                               "--critical-freqs", "nan"],
    "check-gm-min-db-inf-missing-z-ppm": ["check", "--z-ppm", "missing.csv",
                                          *_check("compliant-A")[3:], "--gm-min-db", "inf"],
    "check-z-ppm-is-a-loop-gain": ["check", "--z-ppm", "../in/compliant-A/l_old.csv",
                                   *_check("compliant-A")[3:]],
    "check-sequence-tags-disagree": _check("tagged"),
    "check-z-ppm-zero-sample": _check("zero-sample"),
    "loopgain-sequence-tags-disagree": ["loopgain", "--z-net", _files("tagged")[1],
                                        "--z-ppm", _files("tagged")[0], "--out", "l.csv"],
    **{f"loopgain-{c}": ["loopgain", "--z-net", _files(c)[1], "--z-ppm", _files(c)[0],
                         "--out", "l.csv"] for c in (*BUNDLED_CASES, "seed-0")},
    "loopgain-out-new-dir": ["loopgain", "--z-net", _files("compliant-A")[1],
                             "--z-ppm", _files("compliant-A")[0], "--out", "new/dir/l.csv"],
    **{f"margins-{c}": ["margins", "--loop-gain", f"../in/{c}/l_old.csv"] for c in CURVE_CASES},
    "margins-violation": ["margins", "--loop-gain", "../in/compliant-A/l_old.csv",
                          "--pm-min-deg", "70", "--pm-cau-deg", "80"],
    "margins-invalid-header": ["margins", "--loop-gain", _files("invalid-header")[0]],
    "margins-loop-gain-is-an-impedance": ["margins", "--loop-gain", _files("compliant-A")[0]],
    **{f"limit-freqs-{c}": _limit(c, "--critical-freqs", "150,500") for c in CURVE_CASES},
    **{f"limit-freqs-z-new-{c}": _limit(c, "--critical-freqs", "150,500", *_z_new(c))
       for c in CURVE_CASES},
    "limit-freqs-out": _limit("tableII-like", "--critical-freqs", "3000,150,500,150",
                              "--out", "limit.csv"),
    "limit-freqs-z-new-out": _limit("tableII-like", "--critical-freqs", "150,500",
                                    *_z_new("tableII-like"), "--out", "limit.csv"),
    "limit-no-headroom": _limit("compliant-A", "--critical-freqs", "150,500",
                                *_z_new("compliant-A"),
                                "--pm-min-deg", "60", "--pm-cau-deg", "70"),
    **{f"limit-detect-z-new-{c}": _limit(c, "--detect-from", f"../in/{c}/l_new.csv", *_z_new(c))
       for c in CURVE_CASES},
    "limit-detect-out": _limit("compliant-A", "--detect-from", "../in/compliant-A/l_new.csv",
                               "--out", "limit.csv"),
    "limit-out-new-dir": _limit("compliant-A", "--critical-freqs", "150,500",
                                "--out", "new/dir/limit.csv"),
    "limit-critical-freqs-comma": _limit("compliant-A", "--critical-freqs", ","),
    "limit-critical-freqs-abc": _limit("compliant-A", "--critical-freqs", "abc"),
    "limit-critical-freqs-nan": _limit("compliant-A", "--critical-freqs", "nan"),
    "limit-sequence-tags-disagree": _limit("tagged", "--critical-freqs", "150",
                                           *_z_new("tagged")),
    "limit-units-swapped": ["limit", "--l-old", _files("compliant-A")[1],
                            "--z-net-old", "../in/compliant-A/l_old.csv", "--critical-freqs", "150"],
    "limit-critical-freqs-comma-missing-l-old": [
        "limit", "--l-old", "missing.csv", "--z-net-old", _files("compliant-A")[1],
        "--critical-freqs", ","],
    "limit-detect-from-missing": _limit("compliant-A", "--detect-from", "missing.csv"),
    "limit-z-new-missing": _limit("compliant-A", "--critical-freqs", "150", "--z-new",
                                  "missing.csv"),
    "nyquist-one": ["nyquist", "--loop-gain", "../in/compliant-A/l_old.csv", "--out", "ny.svg"],
    "nyquist-two": ["nyquist", "--loop-gain", "../in/tableII-like/l_old.csv",
                    "--loop-gain", "../in/tableII-like/l_new.csv", "--out", "ny.svg"],
    "nyquist-out-new-dir": ["nyquist", "--loop-gain", "../in/compliant-A/l_old.csv",
                            "--out", "new/dir/ny.svg"],
    # two loop gains that are both labelled L
    "nyquist-same-label": ["nyquist", "--loop-gain", "../in/compliant-A/l_old.csv",
                           "--loop-gain", "../in/seed-0/l_old.csv", "--out", "ny.svg"],
    **{f"synth-bundled-{c}": ["synth", "--bundled", c, "--out-dir", "out"] for c in BUNDLED_CASES},
    "synth-bundled-unknown": ["synth", "--bundled", "nope", "--out-dir", "out"],
    "synth-seed": ["synth", "--seed", "0", "--out-dir", "out"],
    "synth-case": ["synth", "--case", "../in/seed-0.json", "--out-dir", "out"],
    "synth-case-missing-role": ["synth", "--case", "../in/missing-role.json", "--out-dir", "out"],
    "synth-network": ["synth", "--network", "../in/network.json", "--span", "10:1000",
                      "--points", "50", "--out", "z.csv"],
    "synth-network-out-new-dir": ["synth", "--network", "../in/network.json", "--span",
                                  "10:1000", "--points", "50", "--out", "new/dir/z.csv"],
    "synth-network-default-out": ["synth", "--network", "../in/network.json"],
    "synth-network-points-0": ["synth", "--network", "../in/network.json", "--points", "0",
                               "--out", "z.csv"],
    "synth-network-span-reversed": ["synth", "--network", "../in/network.json",
                                    "--span", "5000:10", "--out", "z.csv"],
    "synth-seed-n-strings-0": ["synth", "--seed", "0", "--n-strings", "0", "--out-dir", "out"],
    "synth-seed-span-reversed": ["synth", "--seed", "0", "--span", "5000:10", "--out-dir", "out"],
    "synth-seed-negative": ["synth", "--seed", "-1", "--out-dir", "out"],
    "synth-seed-out-dir-is-a-file": ["synth", "--seed", "0", "--out-dir", "../in/network.json"],
    "synth-seed-out": ["synth", "--seed", "0", "--out", "foo.csv"],
    "synth-network-out-dir": ["synth", "--network", "../in/network.json", "--out-dir", "zz"],
    "synth-bundled-span": ["synth", "--bundled", "compliant-A", "--span", "1:10"],
}


def write_inputs(d: Path) -> None:
    """The inputs every run reads, under ``d``."""
    for name in BUNDLED_CASES:
        write_bundled_case(name, d / name)
    seed = random_case(0, 3, (10.0, 5000.0))
    (d / "seed-0").mkdir()
    for role, curve in zip(ROLES, seed.responses()):
        (d / "seed-0" / f"{role}.csv").write_bytes(write_response(curve))
    base = _base_networks()
    bundled_grid = {"start_hz": 10.0, "stop_hz": 5000.0, "points": 10000}
    cases = {
        "compliant-A": (bundled_grid, base),
        "tableII-like": (bundled_grid, (*base[:2], scale_network(base[2], _TABLEII_SCALE))),
        "seed-0": ({"start_hz": 10.0, "stop_hz": 5000.0, "points": 2000},
                   (seed.z_ppm_existing, seed.z_net_old, seed.z_ppm_new)),
    }
    for name, (grid, trees) in cases.items():
        obj = {"grid": grid, **dict(zip(ROLES, map(network_to_obj, trees)))}
        (d / f"{name}.json").write_text(json.dumps(obj))
    obj = json.loads((d / "compliant-A.json").read_text())
    del obj["z_net_old"]
    (d / "missing-role.json").write_text(json.dumps(obj))
    (d / "network.json").write_bytes(network_to_json(base[1]))
    (d / "regrid").mkdir()
    grids = (log_grid(10.0, 5000.0, 1500), log_grid(12.0, 4000.0, 1200),
             log_grid(10.0, 5000.0, 1000))
    for role, tree, label, grid in zip(ROLES, base, CASE_LABELS, grids):
        (d / "regrid" / f"{role}.csv").write_bytes(write_response(eval_network(tree, grid, label)))
    for name in ("polar", "bom", "tagged", "zero-sample"):
        shutil.copytree(d / "compliant-A", d / name)
    for role, tag in zip(ROLES, ("positive", "negative")):
        path = d / "tagged" / f"{role}.csv"
        path.write_bytes(f"# sequence={tag}\n".encode() + path.read_bytes())
    z_ppm_csv = (d / "compliant-A" / f"{ROLES[0]}.csv").read_bytes()
    (d / "bom" / f"{ROLES[0]}.csv").write_bytes(b"\xef\xbb\xbf" + z_ppm_csv)
    rows = z_ppm_csv.decode().split("\n")  # a label line and the header, then data rows
    rows[100] = rows[100].split(",")[0] + ",0,0"
    (d / "zero-sample" / f"{ROLES[0]}.csv").write_text("\n".join(rows))
    z = parse_response(z_ppm_csv)
    rows = zip(z.grid.points, np.abs(z.samples), np.degrees(np.angle(z.samples)))
    table = [f"# label={z.label}", "freq_hz,mag_ohm,phase_deg",
             *("%.17g,%.17g,%.17g" % row for row in rows)]
    (d / "polar" / f"{ROLES[0]}.csv").write_text("\n".join(table) + "\n")
    for name in CURVE_CASES:
        paths = {role: d / name / f"{role}.csv" for role in ROLES}
        z_ppm, z_net = (parse_response(paths[role].read_bytes()) for role in ROLES[:2])
        l_old = loop_gain(z_net, z_ppm, label="L").response
        (d / name / "l_old.csv").write_bytes(write_response(l_old))
        report, _ = run_assessment(RunConfig(**paths))
        (d / name / "l_new.csv").write_bytes(write_response(report.curves[1][1]))
    l_old_csv = (d / "compliant-A" / "l_old.csv").read_bytes()
    (d / "tagged" / "l_old.csv").write_bytes(b"# sequence=positive\n" + l_old_csv)


def interpreter(dev_mode=sys.flags.dev_mode, warnoptions=tuple(sys.warnoptions)):
    """This Python under the given warning flags, by default this process's own."""
    return [sys.executable, *(["-X", "dev"] if dev_mode else []),
            *(f"-W{w}" for w in warnoptions)]


def run(base: Path, run_id: str) -> dict:
    """Run ``RUNS[run_id]`` in ``base/run_id``; what it printed, returned and wrote."""
    d = base / run_id
    d.mkdir()
    # a relative PYTHONPATH such as src would not hold in the run's directory
    src = str(Path(margingate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([*interpreter(), "-c", MAIN, *RUNS[run_id]], cwd=d, timeout=60,
                          capture_output=True, env={**os.environ, "PYTHONPATH": path})
    files = {
        p.relative_to(d).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.rglob("*")) if p.is_file()
    }
    return {"code": proc.returncode, "stdout": proc.stdout.decode("utf-8"),
            "stderr": proc.stderr.decode("utf-8"), "files": files}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-bytes")
    write_inputs(base / "in")
    return base


def test_every_run_is_pinned():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


def test_each_route_of_a_case_is_pinned_to_the_same_bytes():
    # the report depends on the three impedances, not on how they reached it
    rows = json.loads(GOLDEN.read_text())
    for case in CURVE_CASES:
        assert rows[f"check-synth-{case}"] == rows[f"check-files-{case}"], case
    assert rows["synth-case"] == rows["synth-seed"]


def test_the_child_runs_what_the_console_script_runs():
    # read as text: Python 3.10 has no tomllib
    scripts = PYPROJECT.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.search(r'^margin-gate = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert (module, name) == ("margingate.cli", "main")
    assert MAIN == f"import sys; from {module} import {name}; sys.exit({name}())"


@pytest.mark.parametrize("flags", [(), (True, ("default", "error", "ignore::UserWarning"))],
                         ids=["own", "given"])
def test_children_inherit_the_warning_flags(flags):
    # by default this process's own flags; the given set, one a plain run lacks, is
    # what -X dev -W error -W ignore::UserWarning sets (dev mode adds "default")
    dev_mode, warnoptions = flags or (sys.flags.dev_mode, sys.warnoptions)
    probe = "import sys; print(sys.flags.dev_mode, sys.warnoptions)"
    out = subprocess.run([*interpreter(*flags), "-c", probe], capture_output=True, check=True,
                         timeout=60)
    assert out.stdout.decode() == f"{dev_mode} {list(warnoptions)}\n"


@pytest.mark.parametrize("run_id", list(RUNS))
def test_run_bytes(workspace, run_id):
    assert run(workspace, run_id) == json.loads(GOLDEN.read_text())[run_id]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp) / "in")
        rows = {run_id: run(Path(tmp), run_id) for run_id in RUNS}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
