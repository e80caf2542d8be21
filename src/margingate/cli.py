"""Command-line margin gate.

Every subcommand runs the same steps: config (flags become values) ->
parse (one reader) -> align -> loop gains (direct and factored,
cross-checked) -> crossovers and margins -> decompositions -> impedance
limit -> compliance -> Nyquist regions -> report, each step only when its
inputs are given, and then renders what they produced. Exit codes are
CI-friendly: 0 compliant, 1 caution or violation, 2 input/processing error.
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
from .errors import InconsistentInputs, MarginGateError, UnknownHeader
from .freqresp import align, log_grid, parse_response, write_response
from .loopgain import consistency_error, loop_gain, rho, update_loop_gain
from .margins import MarginPolicy, decompose_margins, summarize_margins, worst_verdict
from .netsynth import (
    CASE_LABELS, ROLES, _check_positive, eval_network, network_from_json, network_from_obj,
    random_case,
)
from .regions import winding_number
from .report import (
    FORMATS, AssessmentReport, _margin_text, _md_table, build_report, limit_checks,
    margin_check, nyquist_svg_chart, render,
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

    def __post_init__(self):
        file_mode = all(
            p is not None for p in (self.z_ppm_existing, self.z_net_old, self.z_ppm_new)
        )
        synth_mode = self.synth_case is not None
        if file_mode == synth_mode:
            raise ValueError(
                "exactly one input mode: three impedance files or --synth case"
            )
        if self.critical_freqs is not None:
            _check_freqs(self.critical_freqs, "critical_freqs needs a frequency; None detects them")


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


def _load_synth_case(path: Path):
    obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    gspec = obj.get("grid") if isinstance(obj, dict) else None
    if not isinstance(gspec, dict) or not {"start_hz", "stop_hz", "points"} <= gspec.keys():
        raise ValueError("case must be an object whose 'grid' has start_hz, stop_hz and points")
    for key in ("start_hz", "stop_hz"):
        _check_positive(f"grid {key!r}", gspec[key])
    points = gspec["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ValueError(f"grid 'points' must be a JSON integer >= 2, got {points!r}")
    missing = [role for role in ROLES if role not in obj]
    if missing:
        raise ValueError(f"case file {str(path)!r} has no {' or '.join(missing)} network")
    grid = log_grid(float(gspec["start_hz"]), float(gspec["stop_hz"]), points)
    return tuple(
        eval_network(network_from_obj(obj[role]), grid, label=label)
        for role, label in zip(ROLES, CASE_LABELS)
    )


def _read(paths: dict) -> dict:
    """The one reader: each input file by role, in the order given, under the parse stage.

    A file is an impedance or loop-gain table, except a ``synth_case`` (read
    as its three impedances), a ``network`` description, and ``loop_gains``,
    several tables read as (name, curve) pairs named by label or file stem,
    each name unique (``_unique``).
    """
    v = {}
    with _stage("parse"):
        for role, path in paths.items():
            if role == "synth_case":
                v.update(zip(ROLES, _load_synth_case(path)))
            elif role == "network":
                v[role] = network_from_json(Path(path).read_bytes())
            elif role == "loop_gains":
                curves = [_parse_table(role, Path(p)) for p in path]
                names = [c.label or Path(p).stem for c, p in zip(curves, path)]
                v[role] = list(zip(_unique(names), curves))
            else:
                v[role] = _parse_table(role, Path(path))
    return v


def _unique(names: list) -> list:
    """``names`` with each repeat suffixed -2, -3, ... up to a name not in use; the
    first use of a name, and so every name used once, is kept as it is."""
    out = []
    for name in names:
        new, k = name, 1
        while new in out or (k > 1 and new in names):
            k += 1
            new = f"{name}-{k}"
        out.append(new)
    return out


def _parse_table(role: str, path: Path):
    """The table at ``path``, refused unless its header's unit fits its role: ohm for
    an impedance, dimensionless for a loop gain."""
    curve = parse_response(path.read_bytes())
    want = "ohm" if role in ROLES else "dimensionless"
    if curve.unit != want:
        raise UnknownHeader(f"{role} table {str(path)!r} has unit {curve.unit}, expected {want}")
    return curve


def _write(files: dict) -> None:
    """The one writer: each path's bytes, its directory made first, under the io stage."""
    with _stage("io"):
        for path, data in files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_bytes(data)


def _inputs_meta(curves, mode: str) -> dict:
    """The report's record of its three input curves, without their samples."""
    by_role = dict(zip(ROLES, curves))
    return {
        "labels": {role: c.label or role for role, c in by_role.items()},
        "sequence": {role: c.sequence for role, c in by_role.items()},
        "operating_point": {role: c.operating_point for role, c in by_role.items()},
        "critical_frequency_mode": mode,
        "asserted_preconditions": list(_ASSERTED_PRECONDITIONS),
    }


def _run(paths: dict, policy: MarginPolicy = MarginPolicy(), critical_freqs=None) -> dict:
    """Run each step that the inputs (see ``_read``) allow; returns what the steps made.

    All three impedances give the assessment and its report; those of the
    existing plant and the network alone give their loop gain ``L``; an
    ``l_old`` file with ``z_net_old`` gives the limit, checked against
    ``z_ppm_new`` if given; each of ``loop_gains`` gets its margins. The
    limit is taken at ``critical_freqs``, else at the gain crossovers of
    the last loop gain. Each curve is dropped after the last step that reads it.
    """
    v = _read(paths)
    full = "z_ppm_existing" in v and "z_ppm_new" in v
    # the curves combined point by point: the impedances, and the L_old of a limit run
    combined = [role for role in ("l_old", *ROLES) if role in v]
    with _stage("align"):
        tags = ", ".join(f"{role}={v[role].sequence}" for role in combined)
        if len({v[role].sequence for role in combined} - {"untagged"}) > 1:  # untagged mixes
            raise InconsistentInputs(f"curves carry different sequence tags: {tags}")
        if "z_ppm_existing" in v:  # then L_old is built below, and no L_old file is read
            v.update(zip(combined, align([v[role] for role in combined])))
    if full:
        mode = "detected-crossovers" if critical_freqs is None else "operator-specified"
        v["inputs"] = _inputs_meta([v[role] for role in ROLES], mode)
    if "z_ppm_existing" in v:
        with _stage("loopgain"):
            label = "L_old" if full else "L"
            v["l_old"] = loop_gain(v["z_net_old"], v["z_ppm_existing"], label=label).response
            if full:
                v["ratio"] = rho(v["z_net_old"], v["z_ppm_new"])
                l_new = update_loop_gain(v["l_old"], v["ratio"]).response
                v["consistency_error"] = consistency_error(
                    v["z_net_old"], v["z_ppm_existing"], v["z_ppm_new"], l_new
                )
                v["loop_gains"] = [("L_old", v["l_old"]), ("L_new", l_new)]
        del v["z_ppm_existing"]

    with _stage("margins"):
        v["summaries"] = [summarize_margins(c, policy) for _, c in v.get("loop_gains", ())]

    if full:
        with _stage("decompose"):
            points = [(cp.f_hz, cp.kind) for cp in v["summaries"][-1].crossovers]
            v["decompositions"] = decompose_margins(v["l_old"], v["ratio"], points)

    if "l_old" in v and (critical_freqs or v["summaries"]):
        with _stage("limit"):
            freqs = critical_freqs or tuple(
                cp.f_hz for cp in v["summaries"][-1].crossovers if cp.kind == "gain"
            )
            v["limits"] = limit_curve(v["l_old"], v["z_net_old"], freqs, policy, v.get("ratio"))
    for role in ("z_net_old", "ratio"):
        v.pop(role, None)

    if "limits" in v and "z_ppm_new" in v:
        with _stage("compliance"):
            v["compliance"] = check_compliance(v.pop("z_ppm_new"), v["limits"])

    if full:
        (_, l_old), (_, l_new) = v["loop_gains"]
        with _stage("regions"):
            encirclements = {"l_old": winding_number(l_old), "l_new": winding_number(l_new)}
        with _stage("report"):
            v["report"] = build_report(
                inputs=v["inputs"], l_old_summary=v["summaries"][0],
                l_new_summary=v["summaries"][1], decompositions=v["decompositions"],
                limit_curve=v["limits"], compliance=v["compliance"], encirclements=encirclements,
                consistency_error=v["consistency_error"], curves=tuple(v["loop_gains"]),
            )
    return v


def run_assessment(cfg: RunConfig) -> tuple[AssessmentReport, int]:
    """Run the whole assessment; returns the report and the process exit code.

    Failures raise ``StageFailure`` naming the failing stage (exit 2 in ``main``).
    """
    roles = ("synth_case",) if cfg.synth_case is not None else ROLES
    report = _run({r: getattr(cfg, r) for r in roles}, cfg.policy, cfg.critical_freqs)["report"]
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


def _write_outputs(report: AssessmentReport, out_dir: Path, formats: tuple[str, ...]) -> None:
    for fmt in formats:  # one file at a time, so one rendering is held at a time
        _write({out_dir / _REPORT_FILES[fmt]: render(report, fmt)})


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


def _check_freqs(freqs, empty: str) -> None:
    """The one critical-frequency rule of the CLI and ``RunConfig``: at least one
    frequency (else ``ValueError(empty)``), each positive and finite."""
    if not freqs:
        raise ValueError(empty)
    for f in freqs:
        if not 0 < f < float("inf"):
            raise ValueError(f"critical frequency {f} Hz is not positive and finite")


def _parse_freq_list(text: str) -> tuple[float, ...]:
    freqs = tuple(float(tok) for tok in text.split(",") if tok.strip())
    _check_freqs(freqs, f"no frequency in critical-frequency list {text!r}")
    return freqs


def _parse_format_list(text: str) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    if not formats:
        raise ValueError(f"no format in format list {text!r}")
    unknown = set(formats) - set(FORMATS)
    if unknown:
        raise ValueError(f"unknown formats {sorted(unknown)}; choose from {FORMATS}")
    return formats


def _parse_span(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    lo, hi = float(lo), float(hi)
    if not 0 < lo < hi < float("inf"):
        raise ValueError(f"span must be lo:hi with 0 < lo < hi Hz, got {text!r}")
    return lo, hi


def _at_least(flag: str, least: int):
    def value(n: int) -> int:
        if n < least:
            raise ValueError(f"{flag} must be >= {least}, got {n}")
        return n
    return value


# flag -> its value, for each flag whose value can be wrong; main turns
# each one into its value under the config stage, before any file is read
_VALUES = {
    "critical_freqs": _parse_freq_list,
    "format": _parse_format_list,
    "span": _parse_span,
    "points": _at_least("--points", 2),
    "n_strings": _at_least("--n-strings", 1),
    "seed": _at_least("--seed", 0),
    "bundled": _fixtures._case_name,
}


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
    sy.add_argument("--n-strings", type=int, help="strings in a --seed case (default 3)")
    sy.add_argument("--span", help="span lo:hi in Hz for --network, --seed (default 10:5000)")
    sy.add_argument("--points", type=int, help="grid points for --network (default 2000)")
    sy.add_argument("--out", help="output file for --network (default network.csv)")
    sy.add_argument("--out-dir", help="output directory for --case, --bundled, --seed (default .)")

    ny = sub.add_parser("nyquist", help="render a Nyquist chart from loop-gain files")
    ny.add_argument("--loop-gain", action="append", required=True,
                    help="loop-gain file (repeatable)")
    ny.add_argument("--out", required=True)
    _add_policy_flags(ny)

    return p


def _cmd_check(args) -> int:
    with _stage("config"):
        files = (args.z_ppm, args.z_net_old, args.z_ppm_new, args.synth)
        roles = (*ROLES, "synth_case")
        cfg = RunConfig(**{role: Path(f) for role, f in zip(roles, files) if f},
                        policy=args.policy, critical_freqs=args.critical_freqs)
    report, _ = run_assessment(cfg)
    with _stage("io"):
        _write_outputs(report, Path(args.out_dir), args.format)
    verdict = report.overall_verdict
    _print_styled(f"overall verdict: {verdict}", _COLOR_BY_VERDICT[verdict], sys.stdout)
    return _gate(report.checks)


def _cmd_loopgain(args) -> int:
    l_old = _run({"z_net_old": args.z_net, "z_ppm_existing": args.z_ppm})["l_old"]
    _write({args.out: write_response(l_old)})
    print(f"wrote {args.out} (direct construction)")
    return 0


def _cmd_margins(args) -> int:
    summary = _run({"loop_gains": [args.loop_gain]}, args.policy)["summaries"][0]
    rows = ((cp.f_hz, cp.kind, _margin_text(cp)) for cp in summary.crossovers)
    print("\n".join(_md_table(("f (Hz)", "kind", "margin"), rows)))
    print(f"verdict: {summary.verdict}")
    return _gate((margin_check("margins", summary),))


def _limit_table(limits, records) -> str:
    """The ``limit`` table: the limit curve, or with a new plant its compliance records."""
    if records is None:
        flags = ("|".join(sorted(f)) for f in limits.flags)
        rows = [("freq_hz", "z_limit_ohm", "delta_pm_deg", "flags"),
                *zip(limits.freqs, limits.z_limit_ohm, limits.delta_pm_deg, flags)]
    else:
        rows = [("freq_hz", "z_new_ohm", "z_limit_ohm", "verdict"),
                *((r.f_hz, r.z_new_mag_ohm, r.z_limit_ohm, r.verdict) for r in records)]

    def cell(x) -> str:
        return "" if x is None else x if isinstance(x, str) else repr(x)
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def _cmd_limit(args) -> int:
    paths = {"l_old": args.l_old, "z_net_old": args.z_net_old}
    if args.detect_from is not None:
        paths["loop_gains"] = [args.detect_from]
    if args.z_new:
        paths["z_ppm_new"] = args.z_new
    v = _run(paths, args.policy, args.critical_freqs)
    text = _limit_table(v["limits"], v.get("compliance"))
    if args.out:
        _write({args.out: text.encode("utf-8")})
    else:
        sys.stdout.write(text)
    return _gate(limit_checks(v.get("compliance", ())))


# the flags each synth mode reads, with their defaults; a mode refuses any other
_SYNTH_FLAGS = {
    "network": {"span": (10.0, 5000.0), "points": 2000, "out": "network.csv"},
    "case": {"out_dir": "."},
    "bundled": {"out_dir": "."},
    "seed": {"n_strings": 3, "span": (10.0, 5000.0), "out_dir": "."},
}


def _cmd_synth(args) -> int:
    mode = next(m for m in _SYNTH_FLAGS if getattr(args, m) is not None)
    with _stage("config"):
        for dest in ("n_strings", "span", "points", "out", "out_dir"):
            if getattr(args, dest) is None:
                setattr(args, dest, _SYNTH_FLAGS[mode].get(dest))
            elif dest not in _SYNTH_FLAGS[mode]:
                raise ValueError(f"synth --{mode} does not read --{dest.replace('_', '-')}")
    if mode == "bundled":
        with _stage("io"):
            paths = _fixtures.write_bundled_case(args.bundled, Path(args.out_dir))
        for role, path in paths.items():
            print(f"wrote {path} ({role})")
        return 0
    if mode == "network":
        desc = _read({"network": args.network})["network"]
        with _stage("synth"):
            grid = log_grid(*args.span, args.points)
            files = {Path(args.out): eval_network(desc, grid)}
    else:
        if mode == "seed":
            with _stage("synth"):
                curves = random_case(args.seed, args.n_strings, args.span).responses()
        else:
            v = _read({"synth_case": args.case})
            curves = [v[role] for role in ROLES]
        out_dir = Path(args.out_dir)
        files = {out_dir / f"{role}.csv": c for role, c in zip(ROLES, curves)}
    _write({path: write_response(curve) for path, curve in files.items()})
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_nyquist(args) -> int:
    v = _run({"loop_gains": args.loop_gain}, args.policy)
    with _stage("io"):  # the chart is drawn under the float checks of a stage
        chart = nyquist_svg_chart(args.policy, v["loop_gains"], v["summaries"])
    _write({args.out: chart.encode("utf-8")})
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
        with _stage("config"):  # every flag value is checked before any file is read
            if "pm_min_deg" in args:
                args.policy = MarginPolicy(args.pm_min_deg, args.pm_cau_deg, args.gm_min_db)
            for dest, value in _VALUES.items():
                if getattr(args, dest, None) is not None:
                    setattr(args, dest, value(getattr(args, dest)))
        return _COMMANDS[args.cmd](args)
    except StageFailure as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
