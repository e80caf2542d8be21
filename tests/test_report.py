import cmath
import dataclasses
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from margingate import report as report_mod
from margingate.cli import RunConfig, run_assessment
from margingate.errors import InconsistentInputs, UnsupportedFormat
from margingate.fixtures import write_bundled_case
from margingate.freqresp import FrequencyResponse, log_grid
from margingate.margins import (
    VERDICTS,
    CrossoverPoint,
    MarginDecomposition,
    MarginSummary,
    decompose_margins,
    summarize_margins,
    worst_verdict,
)
from margingate.regions import EncirclementResult
from margingate.report import (
    SCHEMA,
    bode_svg_chart,
    build_report,
    nyquist_svg_chart,
    parse_report,
    render,
)
from margingate.speclimit import (
    FLAG_PREEXISTING,
    ComplianceRecord,
    LimitCurve,
    MarginPolicy,
)

from conftest import first_order, three_pole
from test_golden import table_cell_counts
from test_speclimit import ROWS_WITHIN_LIMIT, ROWS_EXCEEDING_LIMIT, table_limit_curve, table_z_new
from margingate.speclimit import check_compliance

POLICY = MarginPolicy(15.0, 30.0, 15.0)


def unit_angle(deg):
    return cmath.exp(1j * math.radians(deg))


def empty_summary():
    return MarginSummary(crossovers=(), policy=POLICY)


def summary_with_crossover(pm_deg=60.0):
    cp = CrossoverPoint("gain", 120.0, unit_angle(pm_deg - 180.0))
    return MarginSummary(crossovers=(cp,), policy=POLICY)


def empty_limits():
    return LimitCurve((), (), (), ())


def no_encirclement():
    return EncirclementResult(0, 2.0, ())


def basic_report(compliance_rows=ROWS_WITHIN_LIMIT, limit=None, windings=(0, 0), curves=()):
    limit = limit if limit is not None else table_limit_curve(compliance_rows)
    compliance = check_compliance(table_z_new(compliance_rows), limit)
    return build_report(
        inputs={"labels": {"z_ppm_existing": "A", "z_net_old": "B", "z_ppm_new": "C"}},
        l_old_summary=summary_with_crossover(70.0),
        l_new_summary=summary_with_crossover(60.0),
        decompositions=(
            MarginDecomposition(120.0, "gain", 70.0, 10.0, 1.4, 1.1666),
        ),
        limit_curve=limit,
        compliance=compliance,
        encirclements={
            "l_old": EncirclementResult(windings[0], 1.5, ()),
            "l_new": EncirclementResult(windings[1], 1.2, ((0.0, 10.0),)),
        },
        consistency_error=3.2e-15,
        curves=curves,
    )


class TestBuild:
    def test_all_compliant(self):
        rep = basic_report()
        assert rep.overall_verdict == "compliant"

    def test_compliance_violation_dominates(self):
        rep = basic_report(compliance_rows=[r[:3] for r in ROWS_EXCEEDING_LIMIT])
        assert rep.overall_verdict == "violation"

    def test_winding_forces_violation(self):
        rep = basic_report(windings=(0, 2))
        assert rep.overall_verdict == "violation"

    def test_caution_propagates(self):
        limit = empty_limits()
        rep = build_report(
            inputs={},
            l_old_summary=empty_summary(),
            l_new_summary=summary_with_crossover(20.0),
            decompositions=(MarginDecomposition(120.0, "gain", 30.0, 10.0, 1.4, 1.1666),),
            limit_curve=limit,
            compliance=(),
            encirclements={"l_new": no_encirclement()},
            consistency_error=0.0,
        )
        assert rep.overall_verdict == "caution"

    def test_policy_mismatch_rejected(self):
        other = MarginSummary((), MarginPolicy(10.0, 20.0, 10.0))
        with pytest.raises(InconsistentInputs):
            build_report(
                inputs={},
                l_old_summary=empty_summary(),
                l_new_summary=other,
                decompositions=(),
                limit_curve=empty_limits(),
                compliance=(),
                encirclements={},
                consistency_error=0.0,
            )

    def test_adding_violation_never_improves_verdict(self):
        severity = {"compliant": 0, "caution": 1, "violation": 2}
        base = basic_report(ROWS_WITHIN_LIMIT)
        rows_with_violation = ROWS_WITHIN_LIMIT + [(3000.0, 50.0, 10.0)]
        worse = basic_report(rows_with_violation)
        assert severity[worse.overall_verdict] >= severity[base.overall_verdict]
        assert worse.overall_verdict == "violation"

    def test_compliance_limit_mismatch_rejected(self):
        with pytest.raises(InconsistentInputs):
            build_report(
                inputs={},
                l_old_summary=empty_summary(),
                l_new_summary=empty_summary(),
                decompositions=(),
                limit_curve=empty_limits(),
                compliance=(ComplianceRecord(10.0, 1.0, 2.0),),
                encirclements={},
                consistency_error=0.0,
            )


def with_l_new(report, crossovers):
    """``report`` with these L_new crossovers, each with a decomposition."""
    return dataclasses.replace(
        report,
        l_new_summary=MarginSummary(tuple(crossovers), POLICY),
        decompositions=[MarginDecomposition(c.f_hz, c.kind, 0.0, 0.0, 1.0, 1.0) for c in crossovers],
    )


def gain_at(f_hz, pm):
    return CrossoverPoint("gain", f_hz, unit_angle(pm - 180.0))


def phase_at(f_hz, gm_lin):
    return CrossoverPoint("phase", f_hz, complex(-1.0 / gm_lin, 0.0))


class TestChecks:
    @pytest.mark.parametrize("pm", [60.0, 20.0, 10.0])  # compliant, caution, critical
    @pytest.mark.parametrize("rows", [ROWS_WITHIN_LIMIT, [r[:3] for r in ROWS_EXCEEDING_LIMIT]])
    @pytest.mark.parametrize("windings", [(0, 0), (1, 0), (0, -2)])
    def test_overall_verdict_is_the_worst_row(self, pm, rows, windings):
        rep = with_l_new(basic_report(rows, windings=windings), [gain_at(120.0, pm)])
        checks = rep.checks
        assert [c.name for c in checks] == [
            "l_new_margins", *["impedance_limit"] * len(rows), "winding_l_old", "winding_l_new"
        ]
        assert [c.verdict for c in checks] == [
            rep.l_new_summary.verdict,
            *(rec.verdict for rec in rep.compliance),
            *("compliant" if w == 0 else "violation" for w in windings),
        ]
        verdicts = {c.verdict for c in checks}
        assert rep.overall_verdict == next(
            v for v in ("violation", "caution", "compliant") if v in verdicts
        )

    def test_one_severity_order(self):
        assert VERDICTS == ("compliant", "caution", "violation")
        assert worst_verdict([]) == "compliant"
        assert worst_verdict(["caution", "compliant"]) == "caution"
        assert worst_verdict(["compliant", "violation", "caution"]) == "violation"

    def test_limit_row_details(self):
        # a 60 deg headroom makes each limit |Z_net,old| itself: 10 ohm
        limit = LimitCurve((100.0, 200.0, 300.0), (60.0, 60.0, -5.0), (10.0,) * 3, (None,) * 3)
        compliance = (ComplianceRecord(100.0, 12.5, 10.0), ComplianceRecord(200.0, 8.0, 10.0),
                      ComplianceRecord(300.0, 8.0, None))
        rep = dataclasses.replace(basic_report(), limit_curve=limit, compliance=compliance)
        assert [c[1:] for c in rep.checks if c.name == "impedance_limit"] == [
            ("violation", "at 100.0 Hz: |Z_new| = 12.5 ohm exceeds limit 10.0 ohm"),
            ("compliant", "at 200.0 Hz: |Z_new| = 8.0 ohm within limit 10.0 ohm"),
            ("violation", f"at 300.0 Hz: |Z_new| = 8.0 ohm, no headroom ({FLAG_PREEXISTING})"),
        ]

    def test_winding_row_details(self):
        rep = basic_report(windings=(0, -2))
        assert [tuple(c) for c in rep.checks[-2:]] == [
            ("winding_l_old", "compliant", "winding 0 about -1"),
            ("winding_l_new", "violation", "winding -2 about -1"),
        ]

    @pytest.mark.parametrize("crossovers, detail", [
        ([], "no crossover"),
        # the first crossover of the most severe region decides, not the smallest margin
        ([gain_at(50.0, 20.0), gain_at(100.0, 10.0), phase_at(150.0, 1.5), gain_at(200.0, 5.0)],
         f"at 100.0 Hz: PM {gain_at(100.0, 10.0).pm_deg} deg"),
        ([gain_at(50.0, 20.0), phase_at(150.0, 1.5), gain_at(200.0, 5.0)],
         f"at 150.0 Hz: GM {phase_at(150.0, 1.5).gm_db} dB"),
        ([gain_at(50.0, 40.0), gain_at(80.0, 20.0), gain_at(90.0, 25.0)],
         f"at 80.0 Hz: PM {gain_at(80.0, 20.0).pm_deg} deg"),
    ])
    def test_margins_row_reads_the_deciding_crossover(self, crossovers, detail):
        rep = with_l_new(basic_report(), crossovers)
        row = rep.checks[0]
        assert row == ("l_new_margins", rep.l_new_summary.verdict, detail)
        deciding = rep.l_new_summary.deciding
        assert (deciding is None) == (not crossovers)


_FLIPPED = {"compliant": "violation", "violation": "compliant"}


def _l_new_gain(obj):
    return next(c for c in obj["l_new"]["crossovers"] if c["kind"] == "gain")


def _rewrite_limit(obj, z_limit, rows=("limit_curve", "compliance")):
    """Rewrite the one limit in the given rows, with verdicts to match."""
    if "limit_curve" in rows:
        obj["limit_curve"]["z_limit_ohm"] = [z_limit]
    if "compliance" in rows:
        obj["compliance"][0]["z_limit_ohm"] = z_limit
        obj["compliance"][0]["verdict"] = "compliant"
        obj["overall_verdict"] = "compliant"


class TestJson:
    def test_round_trip_byte_identical(self):
        rep = basic_report()
        blob = render(rep, "json")
        assert render(parse_report(blob), "json") == blob

    def test_top_level_key_order(self):
        import json

        obj = json.loads(render(basic_report(), "json"))
        assert list(obj.keys()) == [
            "schema",
            "inputs",
            "l_old",
            "l_new",
            "decompositions",
            "limit_curve",
            "compliance",
            "encirclements",
            "consistency_error",
            "overall_verdict",
        ]
        assert obj["schema"] == SCHEMA

    def test_margin_entries_carry_required_keys(self):
        import json

        obj = json.loads(render(basic_report(), "json"))
        entry = obj["l_new"]["crossovers"][0]
        assert {"f_hz", "kind", "pm_deg", "region"} <= set(entry)

    def test_infinity_and_none_round_trip(self):
        limit = LimitCurve(
            freqs=(50.0, 100.0),
            delta_pm_deg=(1e-14, -3.0),
            z_net_old_mag_ohm=(5.0, 5.0),
            r_diag=(math.inf, None),
        )
        z_new = table_z_new([(50.0, 1.0, None), (100.0, 1.0, None)])
        compliance = check_compliance(z_new, limit)
        rep = build_report(
            inputs={},
            l_old_summary=empty_summary(),
            l_new_summary=empty_summary(),
            decompositions=(),
            limit_curve=limit,
            compliance=compliance,
            encirclements={"l_new": EncirclementResult(0, 0.5, ((1000.0, math.inf),))},
            consistency_error=0.0,
        )
        blob = render(rep, "json")
        back = parse_report(blob)
        assert back.limit_curve.r_diag == (math.inf, None)
        assert back.limit_curve.z_limit_ohm[1] is None
        assert back.limit_curve.flags[1] == frozenset({FLAG_PREEXISTING})
        assert back.encirclements["l_new"].resolution_warnings[0][1] == math.inf
        assert render(back, "json") == blob

    def test_schema_guard(self):
        with pytest.raises(UnsupportedFormat):
            parse_report(b'{"schema": "other/9"}')

    @pytest.mark.parametrize("data", [
        b'{"schema": "margin-gate/1"}',
        b'{"schema": "margin-gate/1", "limit_curve": []}',
        b"[1]",
        b'"margin-gate/1"',
        b"{",
        b"\xff",
    ], ids=["truncated", "limit_curve_list", "list", "string", "bad_json", "bad_utf8"])
    def test_malformed_reports_refused(self, data):
        with pytest.raises(InconsistentInputs, match="malformed report"):
            parse_report(data)

    def test_tampered_verdict_rejected(self):
        import json

        obj = json.loads(render(basic_report(), "json"))
        for bogus in ("violation", "error"):
            obj["overall_verdict"] = bogus
            with pytest.raises(InconsistentInputs):
                parse_report(json.dumps(obj).encode())

    @staticmethod
    def _bundled_obj(name, tmp_path_factory):
        import json

        paths = write_bundled_case(name, tmp_path_factory.mktemp(name))
        rep, _ = run_assessment(RunConfig(**paths))
        assert rep.compliance
        return json.loads(render(rep, "json"))

    @pytest.fixture(scope="class")
    def bundled_obj(self, tmp_path_factory):
        return self._bundled_obj("compliant-A", tmp_path_factory)

    @pytest.fixture(scope="class")
    def violation_obj(self, tmp_path_factory):
        obj = self._bundled_obj("tableII-like", tmp_path_factory)
        assert obj["overall_verdict"] == "violation"
        assert len(obj["compliance"]) == 1
        return obj

    @pytest.mark.parametrize("tamper,message", [
        (lambda o: o["compliance"][0].update(f_hz=123.0), "compliance record at 123.0 Hz"),
        (lambda o: o["compliance"].clear(), "compliance records do not match limit"),
        (lambda o: o["l_old"]["policy"].update(pm_min_deg=20), "different policies"),
        (lambda o: _l_new_gain(o).update(pm_deg=5.0), "key 'l_new'"),
        (lambda o: _l_new_gain(o).update(region="critical"), "key 'l_new'"),
        (lambda o: o["l_new"].update(worst_pm=None), "key 'l_new'"),
        (lambda o: o["l_new"].update(verdict="violation"), "key 'l_new'"),
        (lambda o: o["compliance"][0].update(verdict=_FLIPPED[o["compliance"][0]["verdict"]]),
         "key 'compliance'"),
        (lambda o: o["compliance"][0].update(z_limit_ohm=1e9),
         r"compliance record at \S+ Hz \(1000000000.0 ohm\)"),
        (lambda o: o["decompositions"][0].update(pm_new_deg=-99.0), "key 'decompositions'"),
        (lambda o: o.update(note="unchecked"), "key 'note' is unknown"),
        (lambda o: o["decompositions"].clear(), "decompositions do not sit"),
        (lambda o: o["decompositions"][0].update(f_hz=123.0), "decompositions do not sit"),
        (lambda o: o["decompositions"][0].update(kind="phase"), "decompositions do not sit"),
        (lambda o: o["limit_curve"]["delta_pm_deg"].clear(), "delta_pm_deg length"),
        (lambda o: o.pop("encirclements"), r"KeyError\('encirclements'\)"),
    ], ids=[
        "f_hz", "emptied", "policy", "pm_deg", "region", "worst_pm", "summary_verdict",
        "compliance_verdict", "z_limit", "pm_new_deg", "unknown_key", "no_decomposition",
        "decomposition_f_hz", "decomposition_kind", "short_delta_pm", "missing_key",
    ])
    def test_reports_build_report_refuses_do_not_parse(self, bundled_obj, tamper, message):
        import copy
        import json

        obj = copy.deepcopy(bundled_obj)
        tamper(obj)
        with pytest.raises(InconsistentInputs, match=message):
            parse_report(json.dumps(obj).encode())


    @pytest.mark.parametrize("tamper,message", [
        (lambda o, z: _rewrite_limit(o, "inf"), r"\(inf ohm\) does not match limit"),
        (lambda o, z: _rewrite_limit(o, 2.0 * z), "does not match limit"),
        (lambda o, z: _rewrite_limit(o, 2.0 * z, ("limit_curve",)), "key 'limit_curve'"),
        (lambda o, z: o["limit_curve"].update(flags=[["unconstrained"]]), "key 'limit_curve'"),
    ], ids=["inf", "doubled", "doubled_limit_row", "flags"])
    def test_rewritten_limits_do_not_parse(self, violation_obj, tamper, message):
        import copy
        import json

        obj = copy.deepcopy(violation_obj)
        tamper(obj, obj["limit_curve"]["z_limit_ohm"][0])
        with pytest.raises(InconsistentInputs, match=message):
            parse_report(json.dumps(obj).encode())


    @pytest.mark.parametrize("tamper", [
        lambda o: o["limit_curve"].update(r_diag=[math.nan]),
        lambda o: o["encirclements"]["l_new"].update(min_distance_to_critical_point=math.nan),
        lambda o: o["encirclements"]["l_new"].update(min_distance_to_critical_point=math.inf),
        lambda o: o.update(consistency_error=-math.inf),
    ], ids=["r_diag_nan", "min_distance_nan", "min_distance_infinity", "consistency_minus_inf"])
    def test_non_finite_literals_do_not_parse(self, violation_obj, tamper):
        # render writes infinities as "inf" strings and never writes NaN
        import copy
        import json

        obj = copy.deepcopy(violation_obj)
        tamper(obj)
        with pytest.raises(InconsistentInputs, match="malformed report.*is not a report value"):
            parse_report(json.dumps(obj).encode())

    @pytest.mark.parametrize("tamper,message", [
        (lambda o: o["encirclements"]["l_old"].update(winding=False), "key 'encirclements'"),
        (lambda o: o.update(consistency_error=True), "key 'consistency_error'"),
        (lambda o: [o[s]["policy"].update(gm_min_db=True) for s in ("l_old", "l_new")],
         "malformed report.*not booleans"),
        (lambda o: o.update(consistency_error="x"), "malformed report: ValueError"),
        (lambda o: o.update(inputs=list(o["inputs"].items())), "key 'inputs'"),
    ], ids=["winding_false", "consistency_true", "gm_min_true", "consistency_string",
            "inputs_list"])
    def test_values_of_another_json_type_do_not_parse(self, violation_obj, tamper, message):
        # in Python false == 0 and true == 1 == 1.0, so only the JSON text
        # or the stored type tells these from the values render writes
        import copy
        import json

        obj = copy.deepcopy(violation_obj)
        tamper(obj)
        with pytest.raises(InconsistentInputs, match=message):
            parse_report(json.dumps(obj).encode())


class TestMarkdown:
    def test_table_one_row_rendering(self):
        text = render(basic_report(), "markdown").decode()
        assert "354.07 | 11.22 | 201.27 | compliant" in text

    def test_violation_row_rendering(self):
        text = render(basic_report([r[:3] for r in ROWS_EXCEEDING_LIMIT]), "markdown").decode()
        assert "794.76 | 70.03 | 7.15 | violation" in text
        assert "1628.8 | 194.24 | 156.76 | violation" in text

    def test_byte_stable(self):
        rep = basic_report()
        assert render(rep, "markdown") == render(rep, "markdown")

    def test_md_table_lines(self):
        assert report_mod._md_table(("f (Hz)", "verdict"), [(150.0, "compliant"), (2e3, "x")]) == [
            "| f (Hz) | verdict |",
            "| --- | --- |",
            "| 150.0 | compliant |",
            "| 2000.0 | x |",
        ]

    def test_md_table_escapes_pipes_in_every_cell(self):
        lines = report_mod._md_table(("|Z_new| (ohm)", "detail"), [(1.0, "|Z_new| = 1.0 ohm")])
        assert lines[0] == "| \\|Z_new\\| (ohm) | detail |"
        assert lines[2] == "| 1.0 | \\|Z_new\\| = 1.0 ohm |"
        assert table_cell_counts("\n".join(lines)) == [[2, 2, 2]]

    def test_md_table_writes_none_as_n_a(self):
        assert report_mod._md_table(("a", "b"), [(None, float("inf"))])[2] == "| n/a | inf |"

    def test_readme_tables_have_one_cell_count(self):
        # GFM splits a row at every unescaped pipe and drops cells past the
        # header's count, so a pipe inside a cell must be written \|
        readme = Path(__file__).resolve().parent.parent / "README.md"
        tables = table_cell_counts(readme.read_text(encoding="utf-8"))
        assert tables
        for counts in tables:
            assert set(counts) == {counts[0]}, counts


class TestTicks:
    def test_db_step_doubles_above_160_db(self):
        # 20 dB steps give at most eight intervals; 220 dB needs 40 dB steps
        assert report_mod._ticks_db(-100.0, 60.0) == [-100.0 + 20.0 * k for k in range(10)]
        assert report_mod._ticks_db(-200.0, 20.0) == [-200.0 + 40.0 * k for k in range(7)]


class TestSvg:
    def make_with_curves(self):
        g = log_grid(1, 10000, 400)
        return basic_report(
            curves=(
                ("L_old", first_order(2.0, 100.0, g)),
                ("L_new", first_order(1.6, 140.0, g)),
            )
        )

    def test_nyquist_structure(self):
        rep = self.make_with_curves()
        data = render(rep, "nyquist_svg")
        root = ET.fromstring(data)
        assert root.tag.endswith("svg")
        text = data.decode()
        assert text.count('<path class="wedge-critical"') == 1
        assert text.count('<path class="wedge-caution"') == 1
        loci = re.findall(r'<path class="locus locus-\d"', text)
        assert len(loci) == 2  # one locus path per input curve
        m = re.search(r'class="gm-circle"[^/]*\br="([0-9.eE+-]+)"', text)
        assert abs(float(m.group(1)) - 10.0 ** (-15.0 / 20.0)) < 1e-12

    def test_bode_structure(self):
        rep = self.make_with_curves()
        data = render(rep, "bode_svg")
        root = ET.fromstring(data)
        assert root.tag.endswith("svg")
        text = data.decode()
        assert len(re.findall(r'class="locus locus-mag', text)) == 2
        assert len(re.findall(r'class="locus locus-phase', text)) == 2

    def test_deterministic(self):
        rep = self.make_with_curves()
        assert render(rep, "nyquist_svg") == render(rep, "nyquist_svg")
        assert render(rep, "bode_svg") == render(rep, "bode_svg")


class TestDecompositionKind:
    def test_phase_crossover_serialised_as_phase(self, grid_2k):
        # L_old = 2/(1+jf/100)^3: gain crossover near 76.6 Hz, phase
        # crossover at 100*sqrt(3) = 173.2 Hz; rho = 0 keeps L_new = L_old
        l_old = three_pole(2.0, 100.0, grid_2k)
        zero = FrequencyResponse(
            grid_2k, np.zeros(len(grid_2k), complex), unit="dimensionless"
        )
        summary = summarize_margins(l_old, POLICY)
        rep = build_report(
            inputs={},
            l_old_summary=summary,
            l_new_summary=summary,
            decompositions=decompose_margins(
                l_old, zero, [(cp.f_hz, cp.kind) for cp in summary.crossovers]
            ),
            limit_curve=empty_limits(),
            compliance=(),
            encirclements={"l_new": no_encirclement()},
            consistency_error=0.0,
        )
        blob = render(rep, "json")
        import json

        entries = json.loads(blob)["decompositions"]
        assert [e["kind"] for e in entries] == ["gain", "phase"]
        assert entries[1]["f_hz"] == pytest.approx(100.0 * math.sqrt(3.0), rel=1e-5)
        back = parse_report(blob)
        assert [d.kind for d in back.decompositions] == ["gain", "phase"]
        assert render(back, "json") == blob


def _full_path_d(x, y, quantum):
    """Undecimated path data: every vertex, same number format."""
    return "M " + " L ".join(f"{a:.6g} {b:.6g}" for a, b in zip(x, y))


def _strip_locus_data(svg: str) -> str:
    return re.sub(r'(<path class="locus[^"]*"[^>]*?) d="[^"]*"', r"\1", svg)


class TestSvgDecimation:
    """Loci are drawn at half-pixel resolution; nothing else changes."""

    N = 10_000

    def charts(self):
        g = log_grid(1, 10000, self.N)
        curves = (("L_old", three_pole(2.0, 100.0, g)), ("L_new", three_pole(1.6, 140.0, g)))
        summaries = tuple(summarize_margins(c, POLICY) for _, c in curves)
        return {
            "nyquist": lambda: nyquist_svg_chart(POLICY, curves, summaries),
            "bode": lambda: bode_svg_chart(curves, summaries),
        }, summaries

    def record_paths(self, monkeypatch, render_chart):
        calls = []
        real = report_mod._path_d

        def spy(x, y, quantum):
            d = real(x, y, quantum)
            calls.append((np.array(x), np.array(y), quantum, d))
            return d

        monkeypatch.setattr(report_mod, "_path_d", spy)
        render_chart()
        return calls

    @pytest.mark.parametrize("chart", ["nyquist", "bode"])
    def test_same_chart_apart_from_locus_data(self, chart, monkeypatch):
        charts, summaries = self.charts()
        decimated = charts[chart]()
        monkeypatch.setattr(report_mod, "_path_d", _full_path_d)
        full = charts[chart]()
        assert _strip_locus_data(decimated) == _strip_locus_data(full)
        assert len(decimated) * 4 < len(full)

        ET.fromstring(decimated)
        n_markers = sum(len(s.crossovers) for s in summaries)
        kinds = {cp.kind for s in summaries for cp in s.crossovers}
        assert kinds == {"gain", "phase"}
        assert len(re.findall(r'<circle class="marker-', decimated)) == n_markers
        if chart == "nyquist":
            assert len(re.findall(r'<path class="locus locus-\d"', decimated)) == 2
        else:
            assert len(re.findall(r'class="locus locus-mag', decimated)) == 2
            assert len(re.findall(r'class="locus locus-phase', decimated)) == 2

    @pytest.mark.parametrize(
        "chart, quantum", [("nyquist", 2.6 / 600), ("bode", 0.5)]
    )
    def test_kept_vertices_cover_every_half_pixel_cell(self, chart, quantum, monkeypatch):
        charts, _ = self.charts()
        calls = self.record_paths(monkeypatch, charts[chart])
        assert len(calls) == 4  # Nyquist: locus and mirror; Bode: mag and phase
        for x, y, q, d in calls:
            assert q == quantum
            assert x.size == self.N
            cells = [(math.floor(a / q), math.floor(b / q)) for a, b in zip(x, y)]
            kept = [0] + [i for i in range(1, self.N) if cells[i] != cells[i - 1]]
            if kept[-1] != self.N - 1:
                kept.append(self.N - 1)
            assert d == _full_path_d(x[kept], y[kept], q)
            assert d.startswith(f"M {x[0]:.6g} {y[0]:.6g} L ")
            assert d.endswith(f" L {x[-1]:.6g} {y[-1]:.6g}")
            assert set(cells) == {cells[i] for i in kept}
            assert len(kept) < self.N


class TestDispatch:
    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormat):
            render(basic_report(), "pdf")

    @pytest.mark.parametrize("fmt", ["nyquist_svg", "bode_svg"])
    def test_parsed_report_draws_no_chart(self, fmt):
        # the curves a chart draws are not in the JSON, so a parsed report has none
        rep = TestSvg().make_with_curves()
        parsed = parse_report(render(rep, "json"))
        assert parsed.curves == ()
        with pytest.raises(UnsupportedFormat, match=f"{fmt} needs the loop-gain curves"):
            render(parsed, fmt)
        assert render(rep, fmt).startswith(b"<svg")

    def test_bode_chart_needs_a_curve(self):
        with pytest.raises(ValueError, match="needs at least one curve to set its axes"):
            bode_svg_chart(())
