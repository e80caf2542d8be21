"""Assessment report assembly and rendering.

Reports aggregate the whole assessment pipeline: margins before and after
the new connection, decompositions through the old loop gain, the
impedance limit curve, compliance records, encirclement results and the
direct-vs-factored consistency error. Renderers produce canonical JSON
(schema ``margin-gate/1``, lossless round-trip), a markdown summary and
self-contained Nyquist / Bode SVG charts.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InconsistentInputs, UnsupportedFormat
from .freqresp import FrequencyResponse, unwrap_phase
from .margins import CrossoverPoint, MarginDecomposition, MarginPolicy, MarginSummary, worst_verdict
from .regions import EncirclementResult
from .speclimit import FLAG_PREEXISTING, ComplianceRecord, LimitCurve

__all__ = [
    "AssessmentReport",
    "Check",
    "build_report",
    "limit_checks",
    "margin_check",
    "render",
    "parse_report",
    "nyquist_svg_chart",
    "bode_svg_chart",
    "SCHEMA",
    "FORMATS",
]

SCHEMA = "margin-gate/1"
FORMATS = ("json", "markdown", "nyquist_svg", "bode_svg")

_STORED_AS = (("inputs", dict), ("decompositions", tuple), ("compliance", tuple),
              ("encirclements", dict), ("consistency_error", float), ("curves", tuple))


# one row of the verdict table: a check's name, its verdict and a one-line detail
Check = namedtuple("Check", ("name", "verdict", "detail"))


def _margin_text(cp: CrossoverPoint) -> str:
    return f"PM {cp.pm_deg} deg" if cp.kind == "gain" else f"GM {cp.gm_db} dB"


def margin_check(name: str, summary: MarginSummary) -> Check:
    """A margins row of the verdict table: the summary's verdict at its deciding crossover."""
    cp = summary.deciding
    return Check(name, summary.verdict,
                 "no crossover" if cp is None else f"at {cp.f_hz} Hz: {_margin_text(cp)}")


def limit_checks(records) -> tuple[Check, ...]:
    """The ``impedance_limit`` rows of the verdict table, one per compliance record."""
    rows = []
    for rec in records:
        lim = rec.z_limit_ohm
        why = (f", no headroom ({FLAG_PREEXISTING})" if lim is None
               else f" {'exceeds' if rec.verdict == 'violation' else 'within'} limit {lim} ohm")
        at = f"at {rec.f_hz} Hz: |Z_new| = {rec.z_new_mag_ohm} ohm{why}"
        rows.append(Check("impedance_limit", rec.verdict, at))
    return tuple(rows)


@dataclass(frozen=True)
class AssessmentReport:
    """Deterministic aggregate of one assessment run.

    ``curves`` carries the loop-gain curves that the SVG charts draw; it is
    not part of the JSON schema and is dropped on parse, so a parsed report
    renders JSON and markdown only. Construction, and
    so ``parse_report`` too, first stores each field as the type in
    ``_STORED_AS`` and then checks that the parts agree: one margin
    policy, one decomposition per L_new crossover in order, with its
    frequency and kind, and one compliance record per limit frequency in
    order, with that frequency's limit.
    """

    inputs: dict
    l_old_summary: MarginSummary
    l_new_summary: MarginSummary
    decompositions: tuple[MarginDecomposition, ...]
    limit_curve: LimitCurve
    compliance: tuple[ComplianceRecord, ...]
    encirclements: dict[str, EncirclementResult]
    consistency_error: float
    curves: tuple[tuple[str, FrequencyResponse], ...] = ()

    def __post_init__(self):
        for name, kind in _STORED_AS:
            object.__setattr__(self, name, kind(getattr(self, name)))
        if self.l_old_summary.policy != self.l_new_summary.policy:
            raise InconsistentInputs("old/new margin summaries use different policies")
        if [(d.f_hz, d.kind) for d in self.decompositions] != [
            (cp.f_hz, cp.kind) for cp in self.l_new_summary.crossovers
        ]:
            raise InconsistentInputs("decompositions do not sit on the L_new crossovers")
        lc = self.limit_curve
        if len(self.compliance) != len(lc):
            raise InconsistentInputs("compliance records do not match limit frequencies")
        for rec, f, z_lim in zip(self.compliance, lc.freqs, lc.z_limit_ohm):
            if (rec.f_hz, rec.z_limit_ohm) != (f, z_lim):
                raise InconsistentInputs(
                    f"compliance record at {rec.f_hz} Hz ({rec.z_limit_ohm} ohm) "
                    f"does not match limit {f} Hz ({z_lim} ohm)"
                )

    @cached_property
    def checks(self) -> tuple[Check, ...]:
        """The verdict table, built once, every row gating: the L_new margins at their
        deciding crossover, each compliance record and each winding (0 or a violation)."""
        windings = (
            Check(f"winding_{name}", "violation" if res.winding else "compliant",
                  f"winding {res.winding} about -1")
            for name, res in self.encirclements.items()
        )
        return (margin_check("l_new_margins", self.l_new_summary),
                *limit_checks(self.compliance), *windings)

    @property
    def overall_verdict(self) -> str:
        """The worst verdict of ``checks``."""
        return worst_verdict(c.verdict for c in self.checks)


# the one constructor; the name is kept for callers that import it
build_report = AssessmentReport


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _num_out(x):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _num_in(v):
    return None if v is None else float(v)


# the margins each crossover kind writes, and every decomposition key in order
_MARGIN_KEYS = {"gain": ("pm_deg",), "phase": ("gm_lin", "gm_db")}
_DECOMPOSITION_KEYS = (
    "f_hz", "kind", "pm_old_newgc_deg", "angle_one_plus_rho_deg",
    "pm_new_deg", "gm_new_lin", "abs_one_plus_rho", "l_old_mag",
)


def _crossover_obj(cp: CrossoverPoint, policy: MarginPolicy) -> dict:
    obj = {"f_hz": cp.f_hz, "kind": cp.kind, "l_value": [cp.l_value.real, cp.l_value.imag]}
    obj.update((key, getattr(cp, key)) for key in _MARGIN_KEYS[cp.kind])
    obj["region"] = policy.region(cp)
    return obj


def _summary_obj(s: MarginSummary) -> dict:
    return {
        "policy": asdict(s.policy),
        "crossovers": [_crossover_obj(c, s.policy) for c in s.crossovers],
        "worst_pm": None if s.worst_pm is None else _crossover_obj(s.worst_pm, s.policy),
        "worst_gm": None if s.worst_gm is None else _crossover_obj(s.worst_gm, s.policy),
        "verdict": s.verdict,
    }


def _summary_from_obj(obj: dict) -> MarginSummary:
    return MarginSummary(
        crossovers=tuple(
            CrossoverPoint(c["kind"], c["f_hz"], complex(*c["l_value"]))
            for c in obj["crossovers"]
        ),
        policy=MarginPolicy(**obj["policy"]),
    )


def _report_to_obj(report: AssessmentReport) -> dict:
    lc = report.limit_curve
    return {
        "schema": SCHEMA,
        "inputs": report.inputs,
        "l_old": _summary_obj(report.l_old_summary),
        "l_new": _summary_obj(report.l_new_summary),
        "decompositions": [
            {key: getattr(d, key) for key in _DECOMPOSITION_KEYS} for d in report.decompositions
        ],
        "limit_curve": {
            "freqs_hz": list(lc.freqs),
            "z_limit_ohm": [_num_out(z) for z in lc.z_limit_ohm],
            "delta_pm_deg": list(lc.delta_pm_deg),
            "z_net_old_mag_ohm": list(lc.z_net_old_mag_ohm),
            "r_diag": [_num_out(r) for r in lc.r_diag],
            "flags": [sorted(f) for f in lc.flags],
        },
        "compliance": [
            {
                "f_hz": rec.f_hz,
                "z_new_mag_ohm": rec.z_new_mag_ohm,
                "z_limit_ohm": _num_out(rec.z_limit_ohm),
                "verdict": rec.verdict,
            }
            for rec in report.compliance
        ],
        "encirclements": {
            name: {
                "winding": res.winding,
                "min_distance_to_critical_point": res.min_distance_to_critical_point,
                "resolution_warnings": [
                    [_num_out(a), _num_out(b)] for a, b in res.resolution_warnings
                ],
            }
            for name, res in report.encirclements.items()
        },
        "consistency_error": report.consistency_error,
        "overall_verdict": report.overall_verdict,
    }


def _refuse_constant(literal: str):
    """``render`` never writes NaN or an infinity as a JSON literal."""
    raise ValueError(f"JSON literal {literal} is not a report value")


def parse_report(data: bytes) -> AssessmentReport:
    """Reconstruct a report from its JSON rendering.

    Only the measured values are read; every limit, flag, margin, region,
    worst case and verdict is derived again, and a report whose copies
    disagree with the derived ones as JSON text, that has an unknown key,
    or that cannot be read as a report is refused.
    """
    try:
        obj = json.loads(data.decode("utf-8"), parse_constant=_refuse_constant)
        if obj.get("schema") != SCHEMA:
            raise UnsupportedFormat(f"unsupported report schema {obj.get('schema')!r}")
        lc = obj["limit_curve"]
        report = AssessmentReport(
            inputs=obj["inputs"],
            l_old_summary=_summary_from_obj(obj["l_old"]),
            l_new_summary=_summary_from_obj(obj["l_new"]),
            decompositions=(
                MarginDecomposition(*(d[f.name] for f in fields(MarginDecomposition)))
                for d in obj["decompositions"]
            ),
            limit_curve=LimitCurve(
                freqs=tuple(lc["freqs_hz"]),
                delta_pm_deg=tuple(lc["delta_pm_deg"]),
                z_net_old_mag_ohm=tuple(lc["z_net_old_mag_ohm"]),
                r_diag=tuple(_num_in(r) for r in lc["r_diag"]),
            ),
            compliance=(
                ComplianceRecord(rec["f_hz"], rec["z_new_mag_ohm"], _num_in(rec["z_limit_ohm"]))
                for rec in obj["compliance"]
            ),
            encirclements={
                name: EncirclementResult(
                    winding=int(res["winding"]),
                    min_distance_to_critical_point=res["min_distance_to_critical_point"],
                    resolution_warnings=tuple(
                        (_num_in(a), _num_in(b)) for a, b in res["resolution_warnings"]
                    ),
                )
                for name, res in obj["encirclements"].items()
            },
            consistency_error=obj["consistency_error"],
        )
        derived = _report_to_obj(report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InconsistentInputs(f"malformed report: {exc!r}") from exc
    # compared as JSON text, since in Python true == 1 == 1.0
    obj_text = {key: json.dumps(value) for key, value in obj.items()}
    for key in dict.fromkeys([*derived, *obj]):
        if key not in derived or json.dumps(derived[key]) != obj_text.get(key):
            raise InconsistentInputs(
                f"report key {key!r} is unknown or disagrees with the measured values"
            )
    return report


# ---------------------------------------------------------------------------
# markdown
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "n/a" if x is None else str(x)  # str(inf) is already "inf"


def _md_table(header, rows) -> list[str]:
    """A markdown table: the header line, the ``| --- |`` rule and one line per row.

    Every cell is written with ``_fmt``, and any ``|`` in it as ``\\|``, so
    no cell splits its row.
    """
    def line(cells) -> str:
        return "| " + " | ".join([_fmt(c).replace("|", "\\|") for c in cells]) + " |"
    return [line(header), line("---" for _ in header), *map(line, rows)]


def _markdown(report: AssessmentReport) -> str:
    # (heading, body lines); each section is its heading, a blank line, its body and a blank line
    sections = [("# Stability margin assessment", [
        f"- overall verdict: **{report.overall_verdict}**",
        f"- loop-gain consistency error (direct vs factored): {_fmt(report.consistency_error)}",
        *(f"- {key}: {_fmt_inputs(value)}" for key, value in report.inputs.items()),
    ])]
    for title, summary in (
        ("Margins before connection (L_old)", report.l_old_summary),
        ("Margins after connection (L_new)", report.l_new_summary),
    ):
        body = [f"- verdict: {summary.verdict}"]
        if summary.crossovers:
            body += ["", *_md_table(("f (Hz)", "kind", "margin", "region"), (
                (cp.f_hz, cp.kind, _margin_text(cp), summary.policy.region(cp))
                for cp in summary.crossovers
            ))]
        sections.append((f"## {title}", body))

    if report.decompositions:
        sections.append(("## Margin decomposition through L_old", _md_table(
            ("f (Hz)", "PM_old (deg)", "angle(1+rho) (deg)", "PM_new (deg)", "GM_new"),
            ((d.f_hz, d.pm_old_newgc_deg, d.angle_one_plus_rho_deg, d.pm_new_deg, d.gm_new_lin)
             for d in report.decompositions),
        )))

    compliance = _md_table(
        ("f (Hz)", "|Z_new| (ohm)", "Z_limit (ohm)", "verdict"),
        ((rec.f_hz, rec.z_new_mag_ohm, rec.z_limit_ohm, rec.verdict) for rec in report.compliance),
    )
    sections.append(("## Impedance limit compliance",
                     compliance if report.compliance else ["No limit frequencies were evaluated."]))

    caveats = [
        f"- {_fmt(f)} Hz: {', '.join(sorted(fl))}"
        for f, fl in zip(report.limit_curve.freqs, report.limit_curve.flags) if fl
    ]
    if caveats:
        sections.append(("## Limit caveats", caveats))

    encirclements = []
    for name, res in report.encirclements.items():
        warn = (
            "; ".join(f"[{_fmt(a)}, {_fmt(b)}] Hz" for a, b in res.resolution_warnings)
            or "none"
        )
        encirclements.append(
            f"- {name}: winding {res.winding}, min distance to -1 "
            f"{_fmt(res.min_distance_to_critical_point)}, warnings: {warn}"
        )
    sections.append(("## Nyquist encirclements of -1", encirclements))
    return "\n".join(line for heading, body in sections for line in (heading, "", *body, ""))


def _fmt_inputs(value) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SVG_STYLE = """\
    .axis { stroke: #888; stroke-width: 0.01; }
    .unit { fill: none; stroke: #333; stroke-width: 0.012; }
    .gm-circle { fill: none; stroke: #7a5c00; stroke-width: 0.012; stroke-dasharray: 0.05 0.03; }
    .wedge-critical { fill: #d62728; fill-opacity: 0.25; stroke: #d62728; stroke-width: 0.008; }
    .wedge-caution { fill: #ff9900; fill-opacity: 0.20; stroke: #ff9900; stroke-width: 0.008; }
    .locus-0 { fill: none; stroke: #1f77b4; stroke-width: 0.02; }
    .locus-1 { fill: none; stroke: #2ca02c; stroke-width: 0.02; }
    .locus-2 { fill: none; stroke: #9467bd; stroke-width: 0.02; }
    .marker-gain { fill: #1f77b4; stroke: #fff; stroke-width: 0.006; }
    .marker-phase { fill: #d62728; stroke: #fff; stroke-width: 0.006; }
    .critical-point { stroke: #d62728; stroke-width: 0.02; }
    text { font-family: sans-serif; }
"""
_BODE_STYLE = """\
    .frame { fill: none; stroke: #444; stroke-width: 1; }
    .grid { stroke: #ddd; stroke-width: 1; }
    .zero { stroke: #999; stroke-width: 1; stroke-dasharray: 5 3; }
    .locus-0 { fill: none; stroke: #1f77b4; stroke-width: 1.6; }
    .locus-1 { fill: none; stroke: #2ca02c; stroke-width: 1.6; }
    .locus-2 { fill: none; stroke: #9467bd; stroke-width: 1.6; }
    .marker-gain { fill: #1f77b4; stroke: #fff; }
    .marker-phase { fill: #d62728; stroke: #fff; }
    text { font-family: sans-serif; font-size: 11px; fill: #333; }
"""


def _f6(x: float) -> str:
    return f"{x:.6g}"


def _xml(s: str) -> str:
    return (
        s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _el(tag: str, text: str | None = None, **attrs) -> str:
    """One SVG element, with attributes in the order given.

    ``class_`` is written as ``class`` and any other ``_`` in a name as
    ``-``. Numbers are written with ``_f6``; strings, and the element
    text, are escaped with ``_xml``.
    """
    body = "".join(
        f' {"class" if name == "class_" else name.replace("_", "-")}="'
        f'{_xml(value) if isinstance(value, str) else _f6(value)}"'
        for name, value in attrs.items()
    )
    if text is None:
        return f"<{tag}{body}/>"
    return f"<{tag}{body}>{_xml(text)}</{tag}>"


def _svg(width: int, height: int, view_box: str, style: str, body) -> str:
    """An SVG document: the root element, its style sheet, then the body lines."""
    root = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="{view_box}">')
    return "\n".join([root, f"<style>\n{style}</style>", *body, "</svg>"]) + "\n"


def _sector_path(theta_lo_deg: float, theta_hi_deg: float, radius: float) -> str:
    """Origin-anchored sector, math angles, y emitted flipped for SVG."""
    t0, t1 = math.radians(theta_lo_deg), math.radians(theta_hi_deg)
    x0, y0 = radius * math.cos(t0), -radius * math.sin(t0)
    x1, y1 = radius * math.cos(t1), -radius * math.sin(t1)
    large = 1 if (theta_hi_deg - theta_lo_deg) > 180.0 else 0
    # math-CCW becomes SVG sweep 0 once y is flipped
    return (
        f"M 0 0 L {_f6(x0)} {_f6(y0)} "
        f"A {_f6(radius)} {_f6(radius)} 0 {large} 0 {_f6(x1)} {_f6(y1)} Z"
    )


def _path_d(x: np.ndarray, y: np.ndarray, quantum: float) -> str:
    """Polyline path data at display resolution.

    A vertex in the same ``quantum``-sized (half-pixel) cell as the vertex
    before it is dropped; the first and last vertices are always kept.
    """
    cx, cy = np.floor(x / quantum), np.floor(y / quantum)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
    keep[-1] = True
    xy = np.column_stack((x[keep], y[keep]))
    return ("M %.6g %.6g" + " L %.6g %.6g" * (len(xy) - 1)) % tuple(xy.ravel().tolist())


def nyquist_svg_chart(
    policy: MarginPolicy, curves, summaries=()
) -> str:
    """Nyquist chart with the critical/caution wedges and GM circle.

    ``curves`` is a sequence of (name, FrequencyResponse) loci;
    ``summaries`` supply crossover markers.
    """
    extent = 2.6
    wedge_r = 2.45
    parts = [_el("line", class_="axis", x1=-extent, y1=0, x2=extent, y2=0)]
    parts.append(_el("line", class_="axis", x1=0, y1=-extent, x2=0, y2=extent))
    # angle wedges about the negative real axis, evaluated at |L| = 1
    critical_d = _sector_path(180.0 - policy.pm_min_deg, 180.0 + policy.pm_min_deg, wedge_r)
    parts.append(_el("path", class_="wedge-critical", d=critical_d))
    caution_d = (
        _sector_path(180.0 - policy.pm_cau_deg, 180.0 - policy.pm_min_deg, wedge_r)
        + " "
        + _sector_path(180.0 + policy.pm_min_deg, 180.0 + policy.pm_cau_deg, wedge_r)
    )
    parts.append(_el("path", class_="wedge-caution", d=caution_d))
    parts.append(_el("circle", class_="unit", cx=0, cy=0, r=1))
    # the GM circle keeps every digit of its radius (repr), not six
    parts.append(_el("circle", class_="gm-circle", cx=0, cy=0, r=repr(policy.gm_circle_radius)))
    # critical point -1 + 0j
    parts.append(_el("line", class_="critical-point", x1=-1.04, y1=-0.04, x2=-0.96, y2=0.04))
    parts.append(_el("line", class_="critical-point", x1=-1.04, y1=0.04, x2=-0.96, y2=-0.04))

    quantum = extent / 600  # half a pixel: 600 px span 2 * extent units
    for i, (name, curve) in enumerate(curves):
        x, y = curve.samples.real, curve.samples.imag
        d = _path_d(x, -y, quantum) + " " + _path_d(x[::-1], y[::-1], quantum)
        parts.append(_el("path", class_=f"locus locus-{i % 3}", id=f"locus-{name}", d=d))
        parts.append(_el(
            "text", name, x=extent - 0.1, y=-extent + 0.18 + 0.14 * i, text_anchor="end",
            font_size=0.12, class_=f"locus-{i % 3}", style="fill: currentColor; stroke: none;",
        ))

    for summary in summaries:
        for cp in summary.crossovers:
            z = cp.l_value
            parts.append(_el("circle", class_=f"marker-{cp.kind}", cx=z.real, cy=-z.imag, r=0.035))
    return _svg(600, 600, f"{-extent} {-extent} {2*extent} {2*extent}", _SVG_STYLE, parts)


def _ticks_db(lo: float, hi: float) -> list[float]:
    step = 20.0
    while (hi - lo) / step > 8:
        step *= 2
    start = math.floor(lo / step) * step
    return [start + k * step for k in range(int((hi - start) / step) + 2)]


_BODE_QUANTUM = 0.5  # half a pixel; the Bode viewBox is in pixels


def bode_svg_chart(curves, summaries=()) -> str:
    """Two-panel Bode chart (dB magnitude, unwrapped phase) with markers.

    The axes span the curves, so at least one curve is needed. Summaries
    pair with curves by position: a phase-crossover marker sits on the
    -180 + k*360 deg level its curve crosses.
    """
    width, height = 720, 560
    margin_l, margin_r, margin_t, gap = 64, 16, 24, 44
    panel_h = (height - margin_t - gap - 48) / 2
    panel_w = width - margin_l - margin_r

    curves = list(curves)
    if not curves:
        raise ValueError("a Bode chart needs at least one curve to set its axes")
    f_lo = min(float(c.grid.points[0]) for _, c in curves)
    f_hi = max(float(c.grid.points[-1]) for _, c in curves)
    lx_lo, lx_hi = math.log10(f_lo), math.log10(f_hi)

    mags = [20.0 * np.log10(np.abs(c.samples)) for _, c in curves]
    phases = [unwrap_phase(c) for _, c in curves]
    m_lo = min(min(float(m.min()) for m in mags) - 5.0, -5.0)
    m_hi = max(max(float(m.max()) for m in mags) + 5.0, 5.0)
    p_lo = min(min(float(p.min()) for p in phases) - 15.0, -190.0)
    p_hi = max(max(float(p.max()) for p in phases) + 15.0, 10.0)

    # the maps below take scalars or arrays
    def x_of(f):
        return margin_l + (np.log10(f) - lx_lo) / (lx_hi - lx_lo) * panel_w

    def y_mag(v):
        return margin_t + (m_hi - v) / (m_hi - m_lo) * panel_h

    def y_ph(v):
        return margin_t + panel_h + gap + (p_hi - v) / (p_hi - p_lo) * panel_h

    def hline(cls, y, label=None):
        """A line across the panel at height y, with a tick label if given."""
        parts.append(_el("line", class_=cls, x1=margin_l, y1=y, x2=margin_l + panel_w, y2=y))
        if label is not None:
            parts.append(_el("text", _f6(label), x=margin_l - 6, y=y + 4, text_anchor="end"))

    parts: list[str] = []
    for y0, label in ((margin_t, "magnitude (dB)"), (margin_t + panel_h + gap, "phase (deg)")):
        parts.append(_el("rect", class_="frame", x=margin_l, y=y0, width=panel_w, height=panel_h))
        parts.append(_el("text", label, x=margin_l, y=y0 - 6))

    for dec in range(math.ceil(lx_lo), math.floor(lx_hi) + 1):
        x = x_of(10.0**dec)
        for y0 in (margin_t, margin_t + panel_h + gap):
            parts.append(_el("line", class_="grid", x1=x, y1=y0, x2=x, y2=y0 + panel_h))
        parts.append(_el("text", f"1e{dec}", x=x, y=height - 28, text_anchor="middle"))
    parts.append(_el(
        "text", "frequency (Hz)", x=margin_l + panel_w / 2, y=height - 8, text_anchor="middle"
    ))

    for v in _ticks_db(m_lo, m_hi):
        if m_lo <= v <= m_hi:
            hline("grid", y_mag(v), v)
    if m_lo <= 0.0 <= m_hi:
        hline("zero", y_mag(0.0))
    k = math.ceil(p_lo / 90.0)
    while 90.0 * k <= p_hi:
        v = 90.0 * k
        hline("zero" if v % 360.0 == -180.0 % 360.0 else "grid", y_ph(v), v)
        k += 1

    for i, ((name, curve), mag, ph) in enumerate(zip(curves, mags, phases)):
        xs = x_of(curve.grid.points)
        cls = f"locus-{i % 3}"
        for kind, ys in (("mag", y_mag(mag)), ("phase", y_ph(ph))):
            d = _path_d(xs, ys, _BODE_QUANTUM)
            parts.append(
                _el("path", class_=f"locus locus-{kind} {cls}", id=f"bode-{kind}-{name}", d=d)
            )
        parts.append(_el(
            "text", name, x=margin_l + panel_w - 8, y=margin_t + 16 + 14 * i,
            text_anchor="end", style="fill: currentColor;", class_=cls,
        ))

    for (_, curve), phase, summary in zip(curves, phases, summaries):
        logf = np.log(curve.grid.points)
        for cp in summary.crossovers:
            if cp.kind == "gain":
                cy = y_mag(0.0)
            else:
                p = np.interp(math.log(cp.f_hz), logf, phase)
                level = -180.0 + 360.0 * round((float(p) + 180.0) / 360.0)
                cy = y_ph(max(p_lo, min(p_hi, level)))
            parts.append(_el("circle", class_=f"marker-{cp.kind}", cx=x_of(cp.f_hz), cy=cy, r=4))
    return _svg(width, height, f"0 0 {width} {height}", _BODE_STYLE, parts)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def render(report: AssessmentReport, format: str) -> bytes:
    """Render the report as json, markdown, nyquist_svg or bode_svg.

    The two charts need the report's ``curves``. JSON output is canonical:
    fixed key order and repr floats, so render -> parse -> render is
    byte-identical.
    """
    summaries = (report.l_old_summary, report.l_new_summary)
    if format in ("nyquist_svg", "bode_svg") and not report.curves:
        raise UnsupportedFormat(f"{format} needs the loop-gain curves; a parsed report has none")
    if format == "json":
        text = json.dumps(_report_to_obj(report), indent=2, allow_nan=False) + "\n"
    elif format == "markdown":
        text = _markdown(report)
    elif format == "nyquist_svg":
        text = nyquist_svg_chart(report.l_new_summary.policy, report.curves, summaries)
    elif format == "bode_svg":
        text = bode_svg_chart(report.curves, summaries)
    else:
        raise UnsupportedFormat(f"unknown format {format!r}; expected one of {FORMATS}")
    return text.encode("utf-8")
