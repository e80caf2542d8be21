"""Command-line margin gate.

Wires the assessment pipeline over impedance files: parse -> align ->
loop gains (direct and factored, cross-checked) -> crossovers and margins
-> decompositions -> impedance limit -> compliance -> Nyquist regions ->
report. Exit codes are CI-friendly: 0 compliant, 1 caution or violation,
2 input/processing error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fixtures as _fixtures
from .errors import MarginGateError
from .freqresp import (
    FrequencyResponse,
    align,
    log_grid,
    parse_response,
    write_response,
)
from .loopgain import consistency_error, loop_gain, rho, update_loop_gain
from .margins import MarginPolicy, decompose_margins, summarize_margins, worst_verdict
from .netsynth import (
    _check_positive,
    eval_network,
    network_from_json,
    network_from_obj,
    random_case,
)
from .regions import winding_number
from .report import (
    FORMATS,
    AssessmentReport,
    _margin_text,
    build_report,
    limit_checks,
    nyquist_svg_chart,
    render,
)
from .speclimit import check_compliance, limit_curve

__all__ = ["RunConfig", "run_assessment", "main"]

_EXIT_BY_VERDICT = {"compliant": 0, "caution": 1, "violation": 1}
_COLOR_BY_VERDICT = {"compliant": "32", "caution": "33", "violation": "31"}

_ASSERTED_PRECONDITIONS = (
    "subsystems are individually stable (no right-half-plane poles); "
    "asserted, not verifiable from impedance data",
)


@dataclass(frozen=True)
class RunConfig:
    """Inputs and options for one assessment run.

    Exactly one input mode: three impedance file paths, or a synthetic
    case description file.
    """

    z_ppm_existing: Path | None = None
    z_net_old: Path | None = None
    z_ppm_new: Path | None = None
    synth_case: Path | None = None
    policy: MarginPolicy = MarginPolicy()
    critical_freqs: tuple[float, ...] | None = None
    out_dir: Path = Path(".")
    formats: tuple[str, ...] = ("json",)

    def __post_init__(self):
        file_mode = all(
            p is not None for p in (self.z_ppm_existing, self.z_net_old, self.z_ppm_new)
        )
        synth_mode = self.synth_case is not None
        if file_mode == synth_mode:
            raise ValueError(
                "exactly one input mode: three impedance files or --synth case"
            )
        if self.critical_freqs is not None and not self.critical_freqs:
            raise ValueError("critical_freqs needs a frequency; None detects them")
        unknown = set(self.formats) - set(FORMATS)
        if unknown:
            raise ValueError(f"unknown formats {sorted(unknown)}; choose from {FORMATS}")


class StageFailure(Exception):
    """Pipeline failure; its message names the stage that raised it."""


@contextlib.contextmanager
def _stage(name: str):
    # out of memory or a float fault is an error of the run (exit 2), not a verdict
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (MarginGateError, OSError, ValueError, KeyError, MemoryError, ArithmeticError) as exc:
        raise StageFailure(f"[stage={name}] {exc}") from exc


def _read_response(path: Path) -> FrequencyResponse:
    return parse_response(Path(path).read_bytes())


def _load_synth_case(path: Path):
    obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    gspec = obj.get("grid") if isinstance(obj, dict) else None
    if not isinstance(gspec, dict) or not {"start_hz", "stop_hz", "points"} <= gspec.keys():
        raise ValueError(
            "case must be an object whose 'grid' has start_hz, stop_hz and points"
        )
    for key in ("start_hz", "stop_hz"):
        _check_positive(f"grid {key!r}", gspec[key])
    points = gspec["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ValueError(f"grid 'points' must be a JSON integer >= 2, got {points!r}")
    grid = log_grid(float(gspec["start_hz"]), float(gspec["stop_hz"]), points)
    out = []
    for role in _fixtures.ROLES:
        out.append(eval_network(network_from_obj(obj[role]), grid, label=role))
    return tuple(out)


def _inputs_meta(curves, mode: str) -> dict:
    """The report's record of its three input curves, without their samples."""
    by_role = dict(zip(_fixtures.ROLES, curves))
    return {
        "labels": {role: c.label or role for role, c in by_role.items()},
        "sequence": {role: c.sequence for role, c in by_role.items()},
        "operating_point": {role: c.operating_point for role, c in by_role.items()},
        "critical_frequency_mode": mode,
        "asserted_preconditions": list(_ASSERTED_PRECONDITIONS),
    }


def run_assessment(cfg: RunConfig) -> tuple[AssessmentReport, int]:
    """Execute the pipeline; returns the report and the process exit code.

    Failures raise ``StageFailure`` naming the failing stage (exit 2 in
    ``main``).
    """
    with _stage("parse"):
        if cfg.synth_case is not None:
            z_ppm, z_net, z_new = _load_synth_case(cfg.synth_case)
        else:
            paths = (cfg.z_ppm_existing, cfg.z_net_old, cfg.z_ppm_new)
            z_ppm, z_net, z_new = map(_read_response, paths)

    with _stage("align"):
        z_ppm, z_net, z_new = align([z_ppm, z_net, z_new])

    # the report keeps the inputs' metadata, not their samples: each curve
    # below is dropped after the last stage that reads it
    inputs = _inputs_meta(
        (z_ppm, z_net, z_new),
        "detected-crossovers" if cfg.critical_freqs is None else "operator-specified",
    )

    with _stage("loopgain"):
        l_old = loop_gain(z_net, z_ppm, label="L_old").response
        ratio = rho(z_net, z_new)
        l_new = update_loop_gain(l_old, ratio).response
        cons_err = consistency_error(z_net, z_ppm, z_new, l_new)
    del z_ppm

    with _stage("margins"):
        s_old = summarize_margins(l_old, cfg.policy)
        s_new = summarize_margins(l_new, cfg.policy)

    with _stage("decompose"):
        decomps = tuple(
            decompose_margins(l_old, ratio, cp.f_hz, cp.kind)
            for cp in s_new.crossovers
        )

    with _stage("limit"):
        if cfg.critical_freqs is not None:
            freqs = cfg.critical_freqs
        else:
            freqs = tuple(cp.f_hz for cp in s_new.crossovers if cp.kind == "gain")
        limits = limit_curve(l_old, z_net, freqs, cfg.policy, ratio)
    del z_net, ratio

    with _stage("compliance"):
        compliance = check_compliance(z_new, limits)
    del z_new

    with _stage("regions"):
        encirclements = {
            "l_old": winding_number(l_old),
            "l_new": winding_number(l_new),
        }

    with _stage("report"):
        report = build_report(
            inputs=inputs,
            l_old_summary=s_old,
            l_new_summary=s_new,
            decompositions=decomps,
            limit_curve=limits,
            compliance=compliance,
            encirclements=encirclements,
            consistency_error=cons_err,
            curves=(("L_old", l_old), ("L_new", l_new)),
        )

    return report, _EXIT_BY_VERDICT[report.overall_verdict]


# ---------------------------------------------------------------------------
# terminal output
# ---------------------------------------------------------------------------

def _print_styled(text: str, code: str, stream) -> None:
    """Print a line, in colour on a terminal unless MARGIN_GATE_NO_COLOR is set."""
    if not os.environ.get("MARGIN_GATE_NO_COLOR") and hasattr(stream, "isatty") and stream.isatty():
        text = f"\x1b[{code}m{text}\x1b[0m"
    print(text, file=stream)


def _gate(checks) -> int:
    """One stderr line per violating check; returns the exit code of the worst check."""
    for c in checks:
        if c.verdict == "violation":
            _print_styled(f"violation {c.detail} [check={c.name}]", "31", sys.stderr)
    return _EXIT_BY_VERDICT[worst_verdict(c.verdict for c in checks)]


_REPORT_FILES = dict(zip(FORMATS, ("report.json", "report.md", "nyquist.svg", "bode.svg")))


def _write_outputs(report: AssessmentReport, cfg: RunConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for fmt in cfg.formats:
        data = render(report, fmt)
        (cfg.out_dir / _REPORT_FILES[fmt]).write_bytes(data)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pm-min-deg", type=float, default=15.0,
                   help="minimum phase margin (default 15)")
    p.add_argument("--pm-cau-deg", type=float, default=30.0,
                   help="caution phase-margin threshold (default 30)")
    p.add_argument("--gm-min-db", type=float, default=15.0,
                   help="minimum gain margin in dB (default 15)")


def _parse_freq_list(text: str) -> tuple[float, ...]:
    freqs = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not freqs:
        raise ValueError(f"no frequency in critical-frequency list {text!r}")
    return freqs


def _parse_span(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="margin-gate",
        description="Impedance-based stability margin gate for paralleled power park modules.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    check = sub.add_parser("check", help="run the full assessment pipeline")
    check.add_argument("--z-ppm", help="existing PPM impedance file")
    check.add_argument("--z-net-old", help="pre-connection network impedance file")
    check.add_argument("--z-ppm-new", help="new PPM impedance file")
    check.add_argument("--synth", help="synthetic case JSON (networks + grid)")
    _add_policy_flags(check)
    check.add_argument(
        "--critical-freqs",
        help="comma-separated operator critical frequencies in Hz "
        "(default: detected new gain crossovers)",
    )
    check.add_argument("--out-dir", default=".", help="report output directory")
    check.add_argument(
        "--format",
        default="json",
        help="comma-separated outputs: json,markdown,nyquist_svg,bode_svg",
    )

    lg = sub.add_parser("loopgain", help="compute a minor-loop gain file")
    lg.add_argument("--z-net", required=True)
    lg.add_argument("--z-ppm", required=True)
    lg.add_argument("--out", required=True)

    mg = sub.add_parser("margins", help="crossovers and margins of a loop-gain file")
    mg.add_argument("--loop-gain", required=True)
    _add_policy_flags(mg)

    lim = sub.add_parser("limit", help="maximum allowable new-plant impedance")
    lim.add_argument("--l-old", required=True, help="pre-connection loop-gain file")
    lim.add_argument("--z-net-old", required=True)
    lim_freqs = lim.add_mutually_exclusive_group(required=True)
    lim_freqs.add_argument("--critical-freqs", help="comma-separated frequencies in Hz")
    lim_freqs.add_argument(
        "--detect-from", help="loop-gain file whose gain crossovers set the frequencies"
    )
    lim.add_argument("--z-new", help="optional new-plant impedance file to check")
    lim.add_argument("--out", help="write the table here instead of stdout")
    _add_policy_flags(lim)

    sy = sub.add_parser("synth", help="evaluate network descriptions to impedance files")
    mode = sy.add_mutually_exclusive_group(required=True)
    mode.add_argument("--network", help="single NetworkDescription JSON file")
    mode.add_argument("--case", help="case JSON with three networks and a grid")
    mode.add_argument("--bundled", help=f"bundled case name {_fixtures.BUNDLED_CASES}")
    mode.add_argument("--seed", type=int, help="random CaseFixture seed")
    sy.add_argument("--n-strings", type=int, default=3, help="strings in a random case")
    sy.add_argument("--span", default="10:5000", help="frequency span lo:hi in Hz")
    sy.add_argument("--points", type=int, default=2000, help="grid points for --network")
    sy.add_argument("--out", help="output file for --network")
    sy.add_argument("--out-dir", default=".", help="output directory for case modes")

    ny = sub.add_parser("nyquist", help="render a Nyquist chart from loop-gain files")
    ny.add_argument("--loop-gain", action="append", required=True,
                    help="loop-gain file (repeatable)")
    ny.add_argument("--out", required=True)
    _add_policy_flags(ny)

    return p


def _cmd_check(args) -> int:
    with _stage("config"):
        cfg = RunConfig(
            z_ppm_existing=Path(args.z_ppm) if args.z_ppm else None,
            z_net_old=Path(args.z_net_old) if args.z_net_old else None,
            z_ppm_new=Path(args.z_ppm_new) if args.z_ppm_new else None,
            synth_case=Path(args.synth) if args.synth else None,
            policy=args.policy,
            critical_freqs=(
                None if args.critical_freqs is None else _parse_freq_list(args.critical_freqs)
            ),
            out_dir=Path(args.out_dir),
            formats=tuple(f.strip() for f in args.format.split(",") if f.strip()),
        )
    report, _ = run_assessment(cfg)
    with _stage("io"):
        _write_outputs(report, cfg)
    verdict = report.overall_verdict
    _print_styled(f"overall verdict: {verdict}", _COLOR_BY_VERDICT[verdict], sys.stdout)
    return _gate(report.checks)


def _cmd_loopgain(args) -> int:
    with _stage("parse"):
        z_net = _read_response(Path(args.z_net))
        z_ppm = _read_response(Path(args.z_ppm))
    with _stage("loopgain"):
        z_net, z_ppm = align([z_net, z_ppm])
        lg = loop_gain(z_net, z_ppm, label="L")
    with _stage("io"):
        Path(args.out).write_bytes(write_response(lg.response))
    print(f"wrote {args.out} (direct construction)")
    return 0


def _cmd_margins(args) -> int:
    with _stage("parse"):
        l = _read_response(Path(args.loop_gain))
    with _stage("margins"):
        summary = summarize_margins(l, args.policy)
    print("| f (Hz) | kind | margin |")
    print("| --- | --- | --- |")
    for cp in summary.crossovers:
        print(f"| {cp.f_hz} | {cp.kind} | {_margin_text(cp)} |")
    print(f"verdict: {summary.verdict}")
    return _EXIT_BY_VERDICT[summary.verdict]


def _cmd_limit(args) -> int:
    with _stage("parse"):
        l_old = _read_response(Path(args.l_old))
        z_net = _read_response(Path(args.z_net_old))
    with _stage("limit"):
        if args.critical_freqs is not None:
            freqs = _parse_freq_list(args.critical_freqs)
        else:
            l_probe = _read_response(Path(args.detect_from))
            freqs = tuple(
                cp.f_hz for cp in summarize_margins(l_probe, args.policy).crossovers
                if cp.kind == "gain"
            )
        limits = limit_curve(l_old, z_net, freqs, args.policy)

    lines, rows = [], ()
    if args.z_new:
        with _stage("compliance"):
            z_new = _read_response(Path(args.z_new))
            records = check_compliance(z_new, limits)
        rows = limit_checks(records)
        lines.append("freq_hz,z_new_ohm,z_limit_ohm,verdict")
        for rec in records:
            z_lim = "" if rec.z_limit_ohm is None else repr(rec.z_limit_ohm)
            lines.append(f"{rec.f_hz!r},{rec.z_new_mag_ohm!r},{z_lim},{rec.verdict}")
    else:
        lines.append("freq_hz,z_limit_ohm,delta_pm_deg,flags")
        for f, z_lim, dpm, flags in zip(
            limits.freqs, limits.z_limit_ohm, limits.delta_pm_deg, limits.flags
        ):
            z_txt = "" if z_lim is None else repr(z_lim)
            lines.append(f"{f!r},{z_txt},{dpm!r},{'|'.join(sorted(flags))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _stage("io"):
            Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return _gate(rows)


def _cmd_synth(args) -> int:
    with _stage("config"):
        span = _parse_span(args.span)
    if args.network:
        with _stage("parse"):
            desc = network_from_json(Path(args.network).read_bytes())
        with _stage("io"):
            grid = log_grid(span[0], span[1], args.points)
            resp = eval_network(desc, grid)
            out = Path(args.out or "network.csv")
            out.write_bytes(write_response(resp))
        print(f"wrote {out}")
        return 0
    if args.bundled:
        with _stage("io"):
            paths = _fixtures.write_bundled_case(args.bundled, Path(args.out_dir))
        for role, path in paths.items():
            print(f"wrote {path} ({role})")
        return 0
    if args.case:
        with _stage("parse"):
            curves = _load_synth_case(Path(args.case))
        write_stage = "io"
    else:  # --seed: random fixture
        with _stage("synth"):
            curves = random_case(args.seed, args.n_strings, span).responses()
        write_stage = "synth"
    with _stage(write_stage):
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for role, resp in zip(_fixtures.ROLES, curves):
            path = out_dir / f"{role}.csv"
            path.write_bytes(write_response(resp))
            print(f"wrote {path}")
    return 0


def _cmd_nyquist(args) -> int:
    with _stage("parse"):
        curves = []
        for path in args.loop_gain:
            resp = _read_response(Path(path))
            curves.append((resp.label or Path(path).stem, resp))
    with _stage("margins"):
        summaries = [summarize_margins(resp, args.policy) for _, resp in curves]
    with _stage("io"):
        Path(args.out).write_text(
            nyquist_svg_chart(args.policy, curves, summaries), encoding="utf-8"
        )
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "loopgain": _cmd_loopgain,
    "margins": _cmd_margins,
    "limit": _cmd_limit,
    "synth": _cmd_synth,
    "nyquist": _cmd_nyquist,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "pm_min_deg" in args:  # a bad policy fails as config, before any stage
            with _stage("config"):
                args.policy = MarginPolicy(args.pm_min_deg, args.pm_cau_deg, args.gm_min_db)
        return _COMMANDS[args.cmd](args)
    except StageFailure as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
