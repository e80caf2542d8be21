"""Benchmark workloads: seeded inputs, the timed op, and output checks.

Each workload is a closed loop with one client. ``prepare(i)`` builds the
input of op ``i`` from the workload seed (untimed), ``run`` is the timed
op, and ``check`` verifies its outputs (untimed). Op ``-1`` is the warm-up
op of ``setup``; the in-process workloads never give two ops one input.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from margingate import cli, report
from margingate.cli import RunConfig
from margingate.errors import MarginGateError
from margingate.freqresp import log_grid, normalize_deg
from margingate.loopgain import loop_gain, rho, update_loop_gain
from margingate.margins import find_crossovers
from margingate.netsynth import (
    Capacitor,
    Inductor,
    Parallel,
    Rational,
    Resistor,
    Series,
    Thevenin,
    eval_network,
    network_to_obj,
    random_case,
    scale_network,
)

HERE = Path(__file__).resolve().parent

EXIT_BY_VERDICT = {"compliant": 0, "caution": 1, "violation": 1}
CONSISTENCY_TOL = 1e-10  # README acceptance: factored vs direct loop gain
PM_TOL_DEG = 1e-9  # README acceptance: decomposed vs direct phase margin
CHILD_TIMEOUT_S = 60.0  # a hung CLI child fails its op instead of the run


class CheckFailed(Exception):
    """An op's outputs are wrong."""


@dataclass
class Outcome:
    """What one op produced: the exit code and the canonical JSON report."""

    code: int
    report_json: bytes
    child_traces: tuple[Path, ...] = ()
    notes: dict = field(default_factory=dict)


def check_report(report_json: bytes, code: int) -> str:
    """Apply the README acceptance checks to one report; returns its verdict."""
    verdict = json.loads(report_json)["overall_verdict"]
    if code != EXIT_BY_VERDICT[verdict]:
        raise CheckFailed(f"exit code {code} but verdict {verdict!r}")
    parsed = report.parse_report(report_json)
    if report.render(parsed, "json") != report_json:
        raise CheckFailed("parse_report -> render('json') is not byte-identical")
    if not parsed.consistency_error <= CONSISTENCY_TOL:
        raise CheckFailed(f"consistency error {parsed.consistency_error!r}")
    crossovers = parsed.l_new_summary.crossovers
    if len(parsed.decompositions) != len(crossovers):
        raise CheckFailed("one decomposition per L_new crossover expected")
    for cp, dec in zip(crossovers, parsed.decompositions):
        if dec.f_hz != cp.f_hz:
            raise CheckFailed(f"decomposition at {dec.f_hz} Hz, crossover at {cp.f_hz} Hz")
        if cp.kind == "gain" and abs(normalize_deg(dec.pm_new_deg - cp.pm_deg)) > PM_TOL_DEG:
            raise CheckFailed(
                f"decomposed PM {dec.pm_new_deg!r} vs direct {cp.pm_deg!r} at {cp.f_hz} Hz"
            )
    return verdict


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_case(path: Path, grid: dict, z_ppm, z_net, z_new) -> None:
    obj = {
        "grid": grid,
        "z_ppm_existing": network_to_obj(z_ppm),
        "z_net_old": network_to_obj(z_net),
        "z_ppm_new": network_to_obj(z_new),
    }
    path.write_text(json.dumps(obj))


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Run one untimed warm-up op."""
        inp = self.prepare(-1)
        self.check(inp, self.run(inp, None))
        self.cleanup(inp)

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, inp, trace_op: int | None) -> Outcome:
        raise NotImplementedError

    def check(self, inp, out: Outcome) -> str:
        return check_report(out.report_json, out.code)

    def cleanup(self, inp) -> None:
        pass


class InProcess(Workload):
    """One op: ``run_assessment`` on a synth-case file, then ``render``."""

    formats: tuple[str, ...] = ("json",)

    def run(self, inp, trace_op: int | None) -> Outcome:
        rep, code = cli.run_assessment(inp["cfg"])
        rendered = [report.render(rep, fmt) for fmt in self.formats]
        winding = rep.encirclements["l_new"].winding
        return Outcome(code, rendered[0], notes={**inp["notes"], "l_new_winding": winding})


class ScreenBatch(InProcess):
    """A planner screening many random candidate connections in one process."""

    name = "screen-batch"

    def prepare(self, i: int):
        s = self.seed * 1_000_000 + i + 1
        case = random_case(s, 1 + s % 4, (1.0, 10000.0))
        path = self.work / "case.json"
        grid = {"start_hz": 1.0, "stop_hz": 10000.0, "points": len(case.grid)}
        _write_case(path, grid, case.z_ppm_existing, case.z_net_old, case.z_ppm_new)
        return {"cfg": RunConfig(synth_case=path), "notes": {"fixture_seed": s}}


class CrossoverRich(InProcess):
    """One large case with many resonances: both N and K are large."""

    name = "crossover-rich"
    formats = ("json", "markdown")
    points = 100_000
    span_hz = (10.0, 5000.0)
    n_strings = 24
    min_gain, min_phase = 10, 1
    max_subseeds = 64

    def prepare(self, i: int):
        grid = log_grid(self.span_hz[0], self.span_hz[1], self.points)
        path = self.work / "case.json"
        for sub in range(self.max_subseeds):
            rng = np.random.default_rng([self.seed, i + 1, sub])
            try:
                nets, counts = _offshore_draw(rng, grid, self.n_strings)
            except MarginGateError:
                continue
            if counts[0] >= self.min_gain and counts[1] >= self.min_phase:
                spec = {"start_hz": self.span_hz[0], "stop_hz": self.span_hz[1],
                        "points": self.points}
                _write_case(path, spec, *nets)
                notes = {"sub_seed": sub, "gain_crossovers": counts[0],
                         "phase_crossovers": counts[1]}
                return {"cfg": RunConfig(synth_case=path), "notes": notes}
        raise RuntimeError(f"no accepted draw for op {i} in {self.max_subseeds} sub-seeds")


def _offshore_draw(rng, grid, n_strings: int):
    """Multi-string offshore network facing a converter-like existing plant.

    The network is a grid Thevenin branch in parallel with lightly damped
    series R-L-C strings (Q 8-30, resonances 60-3000 Hz). The existing
    plant is R-L in series with a ``Rational`` negative-resistance band
    (stable poles), which puts the phase of L through -180 deg. Returns the
    three networks and the (gain, phase) crossover counts of L_new.
    """
    strings = []
    for _ in range(n_strings):
        f0 = math.exp(rng.uniform(math.log(60.0), math.log(3000.0)))
        l_h = rng.uniform(1.0, 8.0) * 1e-3
        q = rng.uniform(8.0, 30.0)
        strings.append(Series((
            Resistor(2.0 * math.pi * f0 * l_h / q),
            Inductor(l_h),
            Capacitor(1.0 / ((2.0 * math.pi * f0) ** 2 * l_h)),
        )))
    grid_branch = Thevenin(66e3, rng.uniform(4e8, 2e9), rng.uniform(3.0, 12.0))
    z_net_d = Parallel((grid_branch,) + tuple(strings))

    wc = 2.0 * math.pi * math.exp(rng.uniform(math.log(150.0), math.log(1500.0)))
    zeta = rng.uniform(0.3, 0.7)
    l_p = rng.uniform(1.0, 5.0) * 1e-3
    r_neg = wc * l_p * rng.uniform(1.5, 4.0)
    pole = complex(-zeta * wc, wc * math.sqrt(1.0 - zeta**2))
    converter = Rational(-r_neg * 2.0 * zeta * wc, (0j,), (pole, pole.conjugate()))
    ppm_d = Series((Resistor(rng.uniform(0.3, 1.0)), Inductor(l_p), converter))
    new_d = Series((Resistor(rng.uniform(0.3, 2.0)), Inductor(rng.uniform(1.0, 6.0) * 1e-3)))

    z_net = eval_network(z_net_d, grid)
    log_l = np.log(np.abs(z_net.samples) / np.abs(eval_network(ppm_d, grid).samples))
    ppm_d = scale_network(ppm_d, math.exp(float(np.median(log_l))) * rng.uniform(0.7, 1.4))
    log_rho = np.log(np.abs(z_net.samples) / np.abs(eval_network(new_d, grid).samples))
    new_d = scale_network(new_d, 1.0 / (math.exp(float(np.mean(log_rho))) * rng.uniform(0.3, 3.0)))

    l_old = loop_gain(z_net, eval_network(ppm_d, grid)).response
    l_new = update_loop_gain(l_old, rho(z_net, eval_network(new_d, grid))).response
    counts = (len(find_crossovers(l_new, "gain")), len(find_crossovers(l_new, "phase")))
    return (ppm_d, z_net_d, new_d), counts


class Quickstart(Workload):
    """The README quick start as two CLI processes: ``synth``, then ``check``."""

    name = "quickstart"
    in_process = False
    cases = (("compliant-A", 0), ("tableII-like", 1))
    formats = "json,markdown,nyquist_svg,bode_svg"
    report_files = ("report.json", "report.md", "nyquist.svg", "bode.svg")

    def prepare(self, i: int):
        case, expected = self.cases[(self.seed + i) % 2]
        out = self.work / f"op{i + 1}"
        return {"case": case, "expected": expected, "dir": out}

    def _cli(self, args: list[str], trace: Path | None, op: int | None):
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        if trace is not None:
            cmd += ["--trace-out", str(trace), str(op)]
        return subprocess.run(cmd + args, capture_output=True, check=False,
                              timeout=CHILD_TIMEOUT_S)

    def run(self, inp, trace_op: int | None) -> Outcome:
        d = inp["dir"]
        traces = (d.parent / f"{d.name}-synth.trace", d.parent / f"{d.name}-check.trace")
        if trace_op is None:
            traces = (None, None)
        synth = self._cli(["synth", "--bundled", inp["case"], "--out-dir", str(d)],
                          traces[0], trace_op)
        if synth.returncode != 0:
            raise CheckFailed(f"synth exit {synth.returncode}: {synth.stderr[-300:]!r}")
        check = self._cli([
            "check",
            "--z-ppm", str(d / "z_ppm_existing.csv"),
            "--z-net-old", str(d / "z_net_old.csv"),
            "--z-ppm-new", str(d / "z_ppm_new.csv"),
            "--out-dir", str(d / "report"),
            "--format", self.formats,
        ], traces[1], trace_op)
        report_path = d / "report" / "report.json"
        if check.returncode not in (0, 1) or not report_path.is_file():
            raise CheckFailed(f"check exit {check.returncode}: {check.stderr[-300:]!r}")
        return Outcome(
            check.returncode,
            report_path.read_bytes(),
            child_traces=tuple(t for t in traces if t is not None),
            notes={"case": inp["case"]},
        )

    def check(self, inp, out: Outcome) -> str:
        if out.code != inp["expected"]:
            raise CheckFailed(f"{inp['case']}: exit {out.code}, expected {inp['expected']}")
        for name in self.report_files:
            path = inp["dir"] / "report" / name
            if not path.is_file() or path.stat().st_size == 0:
                raise CheckFailed(f"missing or empty {name}")
        return check_report(out.report_json, out.code)

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp["dir"], ignore_errors=True)
        for t in inp["dir"].parent.glob(f"{inp['dir'].name}-*.trace"):
            t.unlink()


WORKLOADS = {w.name: w for w in (Quickstart, ScreenBatch, CrossoverRich)}
