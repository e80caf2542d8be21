import dataclasses
import io
import json
import math
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from margingate import fixtures, netsynth
from margingate.cli import RunConfig, build_parser, main, run_assessment
from margingate.errors import ResonanceSingular
from margingate.fixtures import BUNDLED_CASES, bundled_case, write_bundled_case
from margingate.freqresp import (
    _BLOCK_POINTS,
    FrequencyResponse,
    log_grid,
    parse_response,
    write_response,
)
from margingate.netsynth import (
    Inductor,
    Resistor,
    Series,
    eval_network,
    network_to_json,
    network_to_obj,
)
from margingate.report import parse_report
from margingate.speclimit import FLAG_PREEXISTING, MarginPolicy, limit_curve

from test_golden import case_curves
from test_reference import offshore_case


@pytest.fixture(scope="module")
def compliant_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("compliant")
    return write_bundled_case("compliant-A", d)


def check_args(paths, out_dir, *extra):
    return [
        "check",
        "--z-ppm", str(paths["z_ppm_existing"]),
        "--z-net-old", str(paths["z_net_old"]),
        "--z-ppm-new", str(paths["z_ppm_new"]),
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestExitCodes:
    def test_compliant_exit_0(self, compliant_dir, tmp_path):
        assert main(check_args(compliant_dir, tmp_path)) == 0

    def test_tableii_exit_1(self, tmp_path):
        paths = write_bundled_case("tableII-like", tmp_path / "in")
        assert main(check_args(paths, tmp_path / "out")) == 1

    def test_caution_exit_1(self, compliant_dir, tmp_path):
        # raising the caution threshold above the fixture's ~67 deg PM
        # pushes the verdict into the caution band
        code = main(
            check_args(compliant_dir, tmp_path, "--pm-cau-deg", "80")
        )
        assert code == 1
        obj = json.loads((tmp_path / "report.json").read_bytes())
        assert obj["overall_verdict"] == "caution"

    def test_invalid_header_exit_2(self, tmp_path, capsys):
        paths = write_bundled_case("invalid-header", tmp_path / "in")
        assert main(check_args(paths, tmp_path / "out")) == 2
        assert "stage=parse" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "check",
                "--z-ppm", str(tmp_path / "missing.csv"),
                "--z-net-old", str(tmp_path / "missing2.csv"),
                "--z-ppm-new", str(tmp_path / "missing3.csv"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "stage=parse" in capsys.readouterr().err

    @pytest.mark.parametrize("site, stage, points", [
        ("log_grid", "parse", 10**12), ("consistency_error", "loopgain", 64),
    ])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, site, stage, points):
        # numpy raises a MemoryError for a 10**12-point grid; the allocation
        # site raises it here instead, so nothing that large is allocated
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(f"margingate.cli.{site}", no_memory)
        case = synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": points})
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case))
        assert main(["check", "--synth", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error [stage={stage}] Unable to allocate" in err

    def test_violation_noted_on_stderr(self, tmp_path, capsys):
        paths = write_bundled_case("tableII-like", tmp_path / "in")
        main(check_args(paths, tmp_path / "out"))
        err = capsys.readouterr().err
        assert "violation" in err and "exceeds limit" in err

    def test_margin_violation_without_limit_offender_noted_on_stderr(
        self, compliant_dir, tmp_path, capsys
    ):
        # L_new's 67 deg PM is below a 70 deg minimum, while the one limit
        # row, at 3000 Hz (PM_old 78 deg), is met
        extra = ("--pm-min-deg", "70", "--pm-cau-deg", "80", "--critical-freqs", "3000")
        assert main(check_args(compliant_dir, tmp_path, *extra)) == 1
        obj = json.loads((tmp_path / "report.json").read_bytes())
        assert [rec["verdict"] for rec in obj["compliance"]] == ["compliant"]
        (cp,) = obj["l_new"]["crossovers"]
        assert capsys.readouterr().err == (
            f"violation at {cp['f_hz']} Hz: PM {cp['pm_deg']} deg [check=l_new_margins]\n"
        )

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_float_fault_exits_2_under_any_warning_filter(self, tmp_path, capsys, action):
        # a subnormal PPM sample overflows the loop-gain quotient; the
        # warning filter must not decide between exit 2 and a verdict
        paths = write_bundled_case("compliant-A", tmp_path / "in")
        csv = paths["z_ppm_existing"]
        lines = csv.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line[0].isdigit())
        lines[first] = lines[first].split(",")[0] + ",1e-320,0\n"
        csv.write_text("".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert main(check_args(paths, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == "error [stage=loopgain] overflow encountered in divide\n"

    @pytest.mark.parametrize("exp2, code", [(500, 0), (-510, 0), (540, 2), (-540, 2), (-560, 2)])
    def test_impedances_outside_the_float_range_of_par_exit_2(
        self, compliant_dir, tmp_path, capsys, exp2, code
    ):
        # every curve scaled by one power of two keeps L and rho to the bit;
        # |Z|^2 in the parallel admittance sum needs |Z| within about
        # 1e-154..1e154 ohm (bundled |Z| spans about 1-100 ohm), and past
        # that the run stops in a named stage instead of giving a verdict
        paths = {}
        for role, path in compliant_dir.items():
            curve = parse_response(path.read_bytes())
            paths[role] = tmp_path / path.name
            scaled = dataclasses.replace(curve, samples=curve.samples * 2.0**exp2)
            paths[role].write_bytes(write_response(scaled))
        assert main(check_args(paths, tmp_path / "out")) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error [stage=loopgain] ") and err.count("\n") == 1, err

    def test_preexisting_violation_names_missing_headroom(
        self, compliant_dir, tmp_path, capsys
    ):
        # a 150 deg minimum is above the existing PM: no headroom, so no limit
        extra = ("--pm-min-deg", "150", "--pm-cau-deg", "170")
        assert main(check_args(compliant_dir, tmp_path, *extra)) == 1
        err = capsys.readouterr().err
        assert "no headroom (preexisting_violation)" in err
        assert "None" not in err

    def test_unknown_format_exit_2(self, compliant_dir, tmp_path, capsys):
        code = main(check_args(compliant_dir, tmp_path, "--format", "pdf"))
        assert code == 2
        assert "unknown formats" in capsys.readouterr().err

    def test_nan_critical_frequency_exit_2(self, compliant_dir, tmp_path, capsys):
        code = main(check_args(compliant_dir, tmp_path, "--critical-freqs", "100,nan"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error [stage=config] critical frequency nan Hz is not positive and finite\n"

    @pytest.mark.parametrize("command", ["check", "limit"])
    @pytest.mark.parametrize("freq", ["0", "-5", "inf", "nan", "-inf"])
    def test_critical_frequency_not_positive_and_finite_fails_at_config(
        self, tmp_path, capsys, command, freq
    ):
        # refused before any file is read, so a missing input is not reached
        args = (["check", "--z-ppm", "missing.csv", "--z-net-old", "missing.csv",
                 "--z-ppm-new", "missing.csv", "--out-dir", str(tmp_path)]
                if command == "check" else
                ["limit", "--l-old", "missing.csv", "--z-net-old", "missing.csv"])
        assert main([*args, "--critical-freqs", f"150,{freq}"]) == 2
        assert capsys.readouterr().err == (
            f"error [stage=config] critical frequency {float(freq)} Hz is not positive and finite\n"
        )

    def test_critical_frequency_outside_the_span_fails_at_limit(
        self, compliant_dir, tmp_path, capsys
    ):
        # whether a positive frequency is in the span depends on the data
        assert main(check_args(compliant_dir, tmp_path, "--critical-freqs", "1e9")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [stage=limit] 1000000000.0 Hz outside span")

    @pytest.mark.parametrize("freqs", [",", ""])
    def test_empty_critical_frequency_list_exit_2(self, tmp_path, capsys, freqs):
        # the detected crossovers of tableII-like give exit 1; an empty
        # operator list must not assess nothing and pass
        paths = write_bundled_case("tableII-like", tmp_path / "in")
        assert main(check_args(paths, tmp_path / "out", "--critical-freqs", freqs)) == 2
        assert "[stage=config] no frequency in critical-frequency list" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
        lg_file = tmp_path / "lg.csv"
        assert main(["loopgain", "--z-net", str(paths["z_net_old"]),
                     "--z-ppm", str(paths["z_ppm_existing"]), "--out", str(lg_file)]) == 0
        capsys.readouterr()
        code = main(["limit", "--l-old", str(lg_file), "--z-net-old", str(paths["z_net_old"]),
                     "--critical-freqs", freqs])
        assert code == 2
        assert "no frequency in critical-frequency list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "margins", "limit", "nyquist"])
    def test_bad_policy_fails_at_config_stage(self, compliant_dir, tmp_path, capsys, command):
        lg_file = tmp_path / "lg.csv"
        assert main(["loopgain", "--z-net", str(compliant_dir["z_net_old"]),
                     "--z-ppm", str(compliant_dir["z_ppm_existing"]),
                     "--out", str(lg_file)]) == 0
        args = {
            "check": check_args(compliant_dir, tmp_path),
            "margins": ["margins", "--loop-gain", str(lg_file)],
            "limit": ["limit", "--l-old", str(lg_file),
                      "--z-net-old", str(compliant_dir["z_net_old"]),
                      "--detect-from", str(lg_file)],
            "nyquist": ["nyquist", "--loop-gain", str(lg_file),
                        "--out", str(tmp_path / "ny.svg")],
        }[command]
        capsys.readouterr()
        assert main(args + ["--pm-min-deg", "40", "--pm-cau-deg", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [stage=config] need 0 < pm_min_deg <= pm_cau_deg"), err

    def test_conflicting_modes_exit_2(self, compliant_dir, tmp_path, capsys):
        code = main(
            check_args(compliant_dir, tmp_path, "--synth", str(tmp_path / "case.json"))
        )
        assert code == 2
        assert "exactly one input mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        *[(cmd, "need 0 < pm_min_deg <= pm_cau_deg < 180, got (40.0, 30.0)")
          for cmd in ("check", "margins", "limit", "nyquist")],
        ("check --format pdf", "unknown formats ['pdf']; "
                               "choose from ('json', 'markdown', 'nyquist_svg', 'bode_svg')"),
        ("synth --span 10", "could not convert string to float: ''"),
        # each flag below is checked before the missing input file is read
        ("check --critical-freqs ,", "no frequency in critical-frequency list ','"),
        ("check --format ,", "no format in format list ','"),
        ("limit --critical-freqs ,", "no frequency in critical-frequency list ','"),
        ("limit --critical-freqs abc", "could not convert string to float: 'abc'"),
        ("synth --points 0", "--points must be >= 2, got 0"),
        ("synth --n-strings 0", "--n-strings must be >= 1, got 0"),
        ("synth --span 5000:10", "span must be lo:hi with 0 < lo < hi Hz, got '5000:10'"),
        ("synth --network --span 5000:10",
         "span must be lo:hi with 0 < lo < hi Hz, got '5000:10'"),
        ("synth --seed -1", "--seed must be >= 0, got -1"),
        ("check --gm-min-db inf", "gm_min_db must be >= 0 and finite, got inf"),
    ])
    def test_config_error_is_one_stderr_line(self, compliant_dir, tmp_path, capsys,
                                             command, message):
        bad_policy = ("--pm-min-deg", "40", "--pm-cau-deg", "30")
        missing = {role: tmp_path / "missing" / f"{role}.csv" for role in ROLES}
        limit = ["limit", "--l-old", "lg.csv", "--z-net-old", "z.csv", "--critical-freqs"]
        network = ["synth", "--network", "net.json", "--out", str(tmp_path / "z.csv")]
        seed = ["synth", "--seed", "0", "--out-dir", str(tmp_path)]
        args = {
            "check": check_args(compliant_dir, tmp_path, *bad_policy),
            "margins": ["margins", "--loop-gain", "lg.csv", *bad_policy],
            "limit": [*limit, "150", *bad_policy],
            "nyquist": ["nyquist", "--loop-gain", "lg.csv", "--out", "ny.svg", *bad_policy],
            "check --format pdf": check_args(compliant_dir, tmp_path, "--format", "pdf"),
            "synth --span 10": ["synth", "--seed", "0", "--span", "10",
                                "--out-dir", str(tmp_path)],
            "check --critical-freqs ,": check_args(missing, tmp_path, "--critical-freqs", ","),
            "check --format ,": check_args(missing, tmp_path, "--format", ","),
            "limit --critical-freqs ,": [*limit, ","],
            "limit --critical-freqs abc": [*limit, "abc"],
            "synth --points 0": [*network, "--points", "0"],
            "synth --n-strings 0": [*seed, "--n-strings", "0"],
            "synth --span 5000:10": [*seed, "--span", "5000:10"],
            "synth --network --span 5000:10": [*network, "--span", "5000:10"],
            "synth --seed -1": ["synth", "--seed", "-1", "--out-dir", str(tmp_path)],
            "check --gm-min-db inf": check_args(missing, tmp_path, "--gm-min-db", "inf"),
        }[command]
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error [stage=config] {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mutation", ["duplicated", "swapped"])
    def test_out_of_order_row_named_at_parse_stage(self, compliant_dir, tmp_path, capsys,
                                                  mutation):
        # data points 3 and 4 of the existing PPM file, duplicated or swapped
        lines = compliant_dir["z_ppm_existing"].read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line[0].isdigit())
        third, fourth = lines[first + 2:first + 4]
        lines[first + 2:first + 4] = (
            [third, third, fourth] if mutation == "duplicated" else [fourth, third]
        )
        paths = {**compliant_dir, "z_ppm_existing": tmp_path / "z_ppm_existing.csv"}
        paths["z_ppm_existing"].write_text("".join(lines))
        assert main(check_args(paths, tmp_path / "out")) == 2
        f3, f4 = (float(line.split(",")[0]) for line in (third, fourth))
        above = f3 if mutation == "duplicated" else f4
        assert capsys.readouterr().err == (
            "error [stage=parse] frequencies must be positive and strictly increasing; "
            f"point 4 ({f3!r} Hz) is not above point 3 ({above!r} Hz)\n"
        )


ROLES = ("z_ppm_existing", "z_net_old", "z_ppm_new")


def synth_case(grid, net=None):
    """A synthetic case of three resistors on the given grid."""
    net = net or {"type": "resistor", "r_ohm": 1.0}
    return {"grid": grid, "z_ppm_existing": net, "z_net_old": net, "z_ppm_new": net}


class TestMalformedNetworkJson:
    """Malformed case and network JSON ends in exit 2 at the parse stage,
    with a message naming the offending element or key."""

    RESISTOR = {"type": "resistor", "r_ohm": 1.0}

    def run(self, tmp_path, command, obj):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        if command == "check":
            args = ["check", "--synth", str(path), "--out-dir", str(tmp_path)]
        else:
            args = ["synth", "--network", str(path), "--out", str(tmp_path / "z.csv")]
        return main(args)

    @pytest.mark.parametrize(
        "command, obj, named",
        [
            ("check", [], "'grid'"),
            ("synth", {"type": "series", "children": [RESISTOR, 5]}, "5"),
            ("synth", {"type": "parallel", "children": 7}, "'children'"),
            ("check", {
                "grid": {"start_hz": 10.0, "stop_hz": 1000.0, "points": 16},
                "z_ppm_existing": RESISTOR,
                "z_net_old": {"type": "series", "children": [
                    RESISTOR, {"type": "resistor", "r_ohm": None}]},
                "z_ppm_new": RESISTOR,
            }, "'r_ohm'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": 2.7}),
             "'points'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": 200.9}),
             "'points'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": "200"}),
             "'points'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": True}),
             "'points'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": 1}),
             "'points'"),
            ("check", synth_case({"start_hz": "10", "stop_hz": 1000.0, "points": 16}),
             "'start_hz'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": None, "points": 16}),
             "'stop_hz'"),
            ("check", synth_case({"start_hz": 10.0, "stop_hz": 1000.0}), "'grid'"),
        ],
        ids=[
            "case-not-object", "child-not-object", "children-not-list", "null-value",
            "points-fraction", "points-fraction-above-200", "points-string", "points-bool",
            "points-one", "start-string", "stop-null", "points-missing",
        ],
    )
    def test_exit_2_names_the_element(self, tmp_path, capsys, command, obj, named):
        assert self.run(tmp_path, command, obj) == 2
        err = capsys.readouterr().err
        assert "[stage=parse]" in err
        assert named in err


class TestCaseMissingARole:
    @pytest.mark.parametrize("command, flag", [("check", "--synth"), ("synth", "--case")])
    def test_exit_2_names_the_role_and_the_file(self, tmp_path, capsys, command, flag):
        case = synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": 16})
        del case["z_net_old"]
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case))
        assert main([command, flag, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", f"error [stage=parse] case file {str(path)!r} has no z_net_old network\n"
        )
        assert not (tmp_path / "out").exists()


class TestCancellingPlant:
    def test_new_plant_cancelling_the_network_exits_2(self, tmp_path, capsys):
        # Z_new = -Z_net,old at one row: 1 + rho and Z_net + Z_new both vanish
        z_ppm, z_net, z_new = bundled_case("compliant-A")
        samples = z_new.samples.copy()
        samples[1234] = -z_net.samples[1234]
        paths = {}
        for role, curve in (
            ("z_ppm_existing", z_ppm),
            ("z_net_old", z_net),
            ("z_ppm_new", dataclasses.replace(z_new, samples=samples)),
        ):
            paths[role] = tmp_path / f"{role}.csv"
            paths[role].write_bytes(write_response(curve))
        assert main(check_args(paths, tmp_path / "out")) == 2
        assert "[stage=loopgain]" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reports(self, compliant_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        fmt = ["--format", "json,markdown,nyquist_svg,bode_svg"]
        assert main(check_args(compliant_dir, a, *fmt)) == 0
        assert main(check_args(compliant_dir, b, *fmt)) == 0
        for name in ("report.json", "report.md", "nyquist.svg", "bode.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestRunConfig:
    def test_exactly_one_mode(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig()  # neither mode
        with pytest.raises(ValueError):
            RunConfig(
                z_ppm_existing=Path("a"),
                z_net_old=Path("b"),
                z_ppm_new=Path("c"),
                synth_case=Path("d"),
            )

    def test_empty_critical_freqs_refused(self, compliant_dir):
        with pytest.raises(ValueError, match="critical_freqs needs a frequency"):
            RunConfig(**compliant_dir, critical_freqs=())

    @pytest.mark.parametrize("freq", [0.0, -5.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("mode", ["files", "synth"])
    def test_critical_freq_not_positive_and_finite_refused(self, tmp_path, mode, freq):
        # the CLI's rule and message, given before any input is read: none exists
        missing = tmp_path / "missing.csv"
        inputs = ({role: missing for role in netsynth.ROLES} if mode == "files"
                  else {"synth_case": tmp_path / "missing.json"})
        with pytest.raises(ValueError) as exc:
            RunConfig(**inputs, critical_freqs=(150.0, freq))
        assert str(exc.value) == f"critical frequency {freq} Hz is not positive and finite"

    def test_run_assessment_report(self, compliant_dir):
        cfg = RunConfig(
            z_ppm_existing=compliant_dir["z_ppm_existing"],
            z_net_old=compliant_dir["z_net_old"],
            z_ppm_new=compliant_dir["z_ppm_new"],
        )
        report, code = run_assessment(cfg)
        assert code == 0
        assert report.overall_verdict == "compliant"
        assert report.consistency_error < 1e-10
        assert report.inputs["critical_frequency_mode"] == "detected-crossovers"
        assert any("right-half-plane" in p for p in report.inputs["asserted_preconditions"])

    def test_unlabelled_inputs_report_their_roles(self, tmp_path):
        # a file without a label comment is named by its role; a labelled one keeps its label
        z_ppm, z_net, z_new = bundled_case("compliant-A")
        curves = (dataclasses.replace(z_ppm, samples=z_ppm.samples, label=""), z_net,
                  dataclasses.replace(z_new, samples=z_new.samples, label=""))
        paths = {role: tmp_path / f"{role}.csv" for role in ROLES}
        for path, curve in zip(paths.values(), curves):
            path.write_bytes(write_response(curve))
        report, code = run_assessment(RunConfig(**paths))
        assert code == 0
        assert report.inputs["labels"] == {
            "z_ppm_existing": "z_ppm_existing",
            "z_net_old": "Z_net_old",
            "z_ppm_new": "z_ppm_new",
        }

    def test_critical_freqs_mode(self, compliant_dir):
        cfg = RunConfig(
            z_ppm_existing=compliant_dir["z_ppm_existing"],
            z_net_old=compliant_dir["z_net_old"],
            z_ppm_new=compliant_dir["z_ppm_new"],
            critical_freqs=(100.0, 500.0),
        )
        report, _ = run_assessment(cfg)
        assert report.inputs["critical_frequency_mode"] == "operator-specified"
        assert report.limit_curve.freqs == (100.0, 500.0)
        assert len(report.compliance) == 2


def traced_peak(case: dict, tmp_path) -> tuple:
    """The report of a synthetic case and the traced peak of its run above
    the run's start, in N complex samples (16 bytes each)."""
    n = case["grid"]["points"]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    cfg = RunConfig(synth_case=path)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report, _ = run_assessment(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return report, peak / (n * 16)


class TestWorkingSet:
    def test_traced_peak_of_a_two_block_run(self, tmp_path):
        # 2 blocks + 1 point, so every blocked stage crosses two block edges;
        # the whole-grid pipeline peaked at about 20.8 N complex samples,
        # the blocked one at 9.3 N, and 8.3 N once the loop-gain update
        # streams 1+rho and the evaluator forms w per block
        n = 2 * _BLOCK_POINTS + 1
        case = {"grid": {"start_hz": 1.0, "stop_hz": 10000.0, "points": n}}
        case.update(zip(ROLES, map(network_to_obj, fixtures._base_networks())))
        report, peak = traced_peak(case, tmp_path)
        assert report.overall_verdict == "compliant"
        assert peak <= 8.8, f"traced peak {peak:.2f} N complex samples"

    def test_traced_peak_of_a_100000_point_offshore_run(self, tmp_path):
        # the 24-string offshore case peaked at 8.6 N before the loop-gain
        # update streamed 1+rho and the evaluator formed w per block, 7.5 N after
        report, peak = traced_peak(offshore_case(log_grid(10.0, 5000.0, 100_000)), tmp_path)
        assert report.overall_verdict == "violation"
        assert peak <= 8.0, f"traced peak {peak:.2f} N complex samples"


class TestReportContents:
    def test_json_is_valid_and_complete(self, compliant_dir, tmp_path):
        main(check_args(compliant_dir, tmp_path, "--format", "json,nyquist_svg"))
        obj = json.loads((tmp_path / "report.json").read_bytes())
        assert obj["overall_verdict"] == "compliant"
        assert obj["consistency_error"] < 1e-10
        assert obj["encirclements"]["l_new"]["winding"] == 0
        ET.fromstring((tmp_path / "nyquist.svg").read_bytes())


class TestUnitFitsRole:
    """An impedance role reads only an ohm table, a loop gain only a dimensionless one."""

    @pytest.fixture(scope="class")
    def files(self, compliant_dir, tmp_path_factory):
        l_old = tmp_path_factory.mktemp("units") / "l_old.csv"
        z_net, z_ppm = (compliant_dir[role] for role in ("z_net_old", "z_ppm_existing"))
        assert main(["loopgain", "--z-net", str(z_net), "--z-ppm", str(z_ppm),
                     "--out", str(l_old)]) == 0
        return {**{role: str(p) for role, p in compliant_dir.items()}, "l_old": str(l_old)}

    @pytest.mark.parametrize("args, role, bad", [
        (["check", "--z-ppm", "l_old", "--z-net-old", "z_net_old", "--z-ppm-new", "z_ppm_new"],
         "z_ppm_existing", "l_old"),
        (["check", "--z-ppm", "z_ppm_existing", "--z-net-old", "z_net_old", "--z-ppm-new",
          "l_old"], "z_ppm_new", "l_old"),
        (["loopgain", "--z-net", "l_old", "--z-ppm", "z_ppm_existing", "--out", "l.csv"],
         "z_net_old", "l_old"),
        (["margins", "--loop-gain", "z_ppm_existing"], "loop_gains", "z_ppm_existing"),
        (["nyquist", "--loop-gain", "l_old", "--loop-gain", "z_net_old", "--out", "n.svg"],
         "loop_gains", "z_net_old"),
        (["limit", "--l-old", "z_net_old", "--z-net-old", "l_old", "--critical-freqs", "150"],
         "l_old", "z_net_old"),
        (["limit", "--l-old", "l_old", "--z-net-old", "z_net_old", "--critical-freqs", "150",
          "--z-new", "l_old"], "z_ppm_new", "l_old"),
        (["limit", "--l-old", "l_old", "--z-net-old", "z_net_old", "--detect-from",
          "z_ppm_new"], "loop_gains", "z_ppm_new"),
    ])
    def test_table_of_the_other_unit_exits_2_at_parse(
        self, files, tmp_path, capsys, monkeypatch, args, role, bad
    ):
        monkeypatch.chdir(tmp_path)
        assert main([files.get(a, a) for a in args]) == 2
        want, got = ("ohm", "dimensionless") if bad == "l_old" else ("dimensionless", "ohm")
        assert capsys.readouterr() == ("", (
            f"error [stage=parse] {role} table {files[bad]!r} has unit {got}, expected {want}\n"
        ))
        assert list(tmp_path.iterdir()) == []


class TestSequenceTags:
    """Curves combined point by point and tagged with two different sequences are refused
    at align: the impedances, and a limit run's L_old; ``untagged`` goes with any one tag."""

    @staticmethod
    def tagged(compliant_dir, d, tags) -> dict:
        """compliant-A's tables with ``# sequence=TAG`` put first, by role; None leaves a
        table untagged."""
        d.mkdir()
        paths = {}
        for (role, src), tag in zip(compliant_dir.items(), tags):
            paths[role] = d / src.name
            head = b"" if tag is None else f"# sequence={tag}\n".encode()
            paths[role].write_bytes(head + src.read_bytes())
        return paths

    @pytest.mark.parametrize("tags", [
        ("positive", "negative", None),
        ("positive", "positive", "negative"),
        (None, "negative", "positive"),
    ])
    def test_two_tags_exit_2_at_align(self, compliant_dir, tmp_path, capsys, tags):
        paths = self.tagged(compliant_dir, tmp_path / "in", tags)
        assert main(check_args(paths, tmp_path / "out")) == 2
        named = ", ".join(f"{role}={tag or 'untagged'}" for role, tag in zip(paths, tags))
        assert capsys.readouterr() == (
            "", f"error [stage=align] curves carry different sequence tags: {named}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_loopgain_refuses_two_tags(self, compliant_dir, tmp_path, capsys):
        paths = self.tagged(compliant_dir, tmp_path / "in", ("negative", "positive", None))
        args = ["loopgain", "--z-net", str(paths["z_net_old"]),
                "--z-ppm", str(paths["z_ppm_existing"]), "--out", str(tmp_path / "l.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == ("error [stage=align] curves carry different "
                                           "sequence tags: z_ppm_existing=negative, "
                                           "z_net_old=positive\n")

    @pytest.mark.parametrize("tags", [
        ("positive", None, "positive"),
        (None, "negative", None),
        ("negative", "negative", "negative"),
    ])
    def test_one_tag_with_untagged_is_assessed(self, compliant_dir, tmp_path, capsys, tags):
        def report(paths, out):
            code = main(check_args(paths, out))
            obj = json.loads((out / "report.json").read_bytes())
            return code, obj["inputs"].pop("sequence"), obj

        code, _, base = report(compliant_dir, tmp_path / "base")
        paths = self.tagged(compliant_dir, tmp_path / "in", tags)
        got_code, sequence, got = report(paths, tmp_path / "out")
        assert (got_code, got) == (code, base)
        assert sequence == {role: tag or "untagged" for role, tag in zip(paths, tags)}

    @pytest.fixture(scope="class")
    def limit_dir(self, compliant_dir, tmp_path_factory):
        """compliant-A's untagged L_old, Z_net,old and Z_new, by their roles in ``limit``."""
        l_old = tmp_path_factory.mktemp("limit") / "l_old.csv"
        assert main(["loopgain", "--z-net", str(compliant_dir["z_net_old"]),
                     "--z-ppm", str(compliant_dir["z_ppm_existing"]), "--out", str(l_old)]) == 0
        return {"l_old": l_old, **{r: compliant_dir[r] for r in ("z_net_old", "z_ppm_new")}}

    @staticmethod
    def limit(paths, *extra) -> list[str]:
        z_new = ["--z-new", str(paths["z_ppm_new"])] if "z_ppm_new" in paths else []
        return ["limit", "--l-old", str(paths["l_old"]), "--z-net-old", str(paths["z_net_old"]),
                "--critical-freqs", "150,500", *z_new, *extra]

    @pytest.mark.parametrize("tags", [
        ("positive", "negative", None),
        (None, "positive", "negative"),
        ("negative", None, "positive"),
        ("positive", "negative"),  # no --z-new
    ])
    def test_limit_refuses_two_tags(self, limit_dir, tmp_path, capsys, tags):
        paths = self.tagged(limit_dir, tmp_path / "in", tags)
        capsys.readouterr()
        assert main(self.limit(paths, "--out", str(tmp_path / "limit.csv"))) == 2
        named = ", ".join(f"{role}={tag or 'untagged'}" for role, tag in zip(paths, tags))
        assert capsys.readouterr() == (
            "", f"error [stage=align] curves carry different sequence tags: {named}\n"
        )
        assert not (tmp_path / "limit.csv").exists()

    @pytest.mark.parametrize("tags", [
        ("positive", None, None),
        (None, "negative", "negative"),
        ("positive", "positive", "positive"),
        ("negative", "negative"),  # no --z-new
    ])
    def test_limit_one_tag_with_untagged_gives_the_untagged_table(
        self, limit_dir, tmp_path, capsys, tags
    ):
        capsys.readouterr()
        untagged = dict(list(limit_dir.items())[:len(tags)])
        want = main(self.limit(untagged)), capsys.readouterr()
        assert (main(self.limit(self.tagged(limit_dir, tmp_path / "in", tags))),
                capsys.readouterr()) == want

    def test_curves_not_combined_keep_any_tag(self, limit_dir, tmp_path, capsys):
        # a --detect-from file only supplies frequencies, and the loop gains of margins
        # and nyquist are never combined, so their tags are not compared
        l_old = self.tagged({"a": limit_dir["l_old"]}, tmp_path / "a", ("positive",))["a"]
        l_neg = self.tagged({"b": limit_dir["l_old"]}, tmp_path / "b", ("negative",))["b"]

        def limit(l_old, detect_from):
            return ["limit", "--l-old", str(l_old), "--z-net-old", str(limit_dir["z_net_old"]),
                    "--detect-from", str(detect_from)]
        capsys.readouterr()
        want = main(limit(limit_dir["l_old"], limit_dir["l_old"])), capsys.readouterr()
        assert want[0] == 0
        assert (main(limit(l_old, l_neg)), capsys.readouterr()) == want
        assert main(["nyquist", "--loop-gain", str(l_old), "--loop-gain", str(l_neg),
                     "--out", str(tmp_path / "ny.svg")]) == 0
        assert main(["margins", "--loop-gain", str(l_neg)]) == 0
        assert capsys.readouterr().err == ""


class TestSubcommands:
    def test_loopgain_roundtrip(self, compliant_dir, tmp_path):
        out = tmp_path / "lg.csv"
        code = main(
            [
                "loopgain",
                "--z-net", str(compliant_dir["z_net_old"]),
                "--z-ppm", str(compliant_dir["z_ppm_existing"]),
                "--out", str(out),
            ]
        )
        assert code == 0
        lg = parse_response(out.read_bytes())
        z_net = parse_response(compliant_dir["z_net_old"].read_bytes())
        z_ppm = parse_response(compliant_dir["z_ppm_existing"].read_bytes())
        assert lg.unit == "dimensionless"
        assert lg.samples[0] == z_net.samples[0] / z_ppm.samples[0]

    def test_margins_subcommand(self, compliant_dir, tmp_path, capsys):
        lg_file = tmp_path / "lg.csv"
        main(
            [
                "loopgain",
                "--z-net", str(compliant_dir["z_net_old"]),
                "--z-ppm", str(compliant_dir["z_ppm_existing"]),
                "--out", str(lg_file),
            ]
        )
        capsys.readouterr()
        code = main(["margins", "--loop-gain", str(lg_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "gain" in out and "verdict: compliant" in out

    def test_limit_subcommand_with_compliance(self, compliant_dir, tmp_path, capsys):
        lg_file = tmp_path / "lg.csv"
        main(
            [
                "loopgain",
                "--z-net", str(compliant_dir["z_net_old"]),
                "--z-ppm", str(compliant_dir["z_ppm_existing"]),
                "--out", str(lg_file),
            ]
        )
        out_file = tmp_path / "limit.csv"
        code = main(
            [
                "limit",
                "--l-old", str(lg_file),
                "--z-net-old", str(compliant_dir["z_net_old"]),
                "--critical-freqs", "150,500",
                "--z-new", str(compliant_dir["z_ppm_new"]),
                "--out", str(out_file),
            ]
        )
        lines = out_file.read_text().splitlines()
        assert lines[0] == "freq_hz,z_new_ohm,z_limit_ohm,verdict"
        # |Z_new| 12.0 and 4.0 ohm against limits of 15.97 and 16.57 ohm
        assert [row.split(",")[-1] for row in lines[1:]] == ["compliant", "compliant"]
        assert code == 0

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_limit_table_without_z_new(self, compliant_dir, tmp_path, capsys, to_file):
        lg_file = tmp_path / "lg.csv"
        main(
            [
                "loopgain",
                "--z-net", str(compliant_dir["z_net_old"]),
                "--z-ppm", str(compliant_dir["z_ppm_existing"]),
                "--out", str(lg_file),
            ]
        )
        capsys.readouterr()
        # a 60 deg minimum leaves no headroom at 500 Hz (PM_old 52 deg)
        args = [
            "limit",
            "--l-old", str(lg_file),
            "--z-net-old", str(compliant_dir["z_net_old"]),
            "--critical-freqs", "3000,150,500,150",
            "--pm-min-deg", "60", "--pm-cau-deg", "70",
        ]
        out_file = tmp_path / "limit.csv"
        assert main([*args, "--out", str(out_file)] if to_file else args) == 0
        text = capsys.readouterr().out
        if to_file:
            assert text == ""
            text = out_file.read_text()
        limits = limit_curve(
            parse_response(lg_file.read_bytes()),
            parse_response(compliant_dir["z_net_old"].read_bytes()),
            [150.0, 500.0, 3000.0],
            MarginPolicy(60.0, 70.0, 15.0),
        )
        lines = text.splitlines()
        assert lines[0] == "freq_hz,z_limit_ohm,delta_pm_deg,flags"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(row[0]) for row in rows] == [150.0, 500.0, 3000.0]
        assert [row[2] for row in rows] == [repr(d) for d in limits.delta_pm_deg]
        assert limits.z_limit_ohm[1] is None
        assert rows[1][1::2] == ["", FLAG_PREEXISTING]
        for row, z_lim in zip(rows[::2], limits.z_limit_ohm[::2]):
            assert row[1::2] == [repr(z_lim), ""]

    def test_limit_detect_from_matches_check(self, tmp_path, capsys):
        # the gain crossovers of an L_new file set the rows, as in check;
        # tableII-like's new plant violates its one limit row, so exit 1
        paths = write_bundled_case("tableII-like", tmp_path / "in")
        report, _ = run_assessment(RunConfig(**paths))
        files = [tmp_path / f"{name}.csv" for name, _ in report.curves]
        for path, (_, curve) in zip(files, report.curves):
            path.write_bytes(write_response(curve))
        code = main(
            [
                "limit",
                "--l-old", str(files[0]),
                "--z-net-old", str(paths["z_net_old"]),
                "--detect-from", str(files[1]),
                "--z-new", str(paths["z_ppm_new"]),
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "freq_hz,z_new_ohm,z_limit_ohm,verdict"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(row[0]) for row in rows] == list(report.limit_curve.freqs)
        assert [row[3] for row in rows] == [rec.verdict for rec in report.compliance]
        assert [row[3] for row in rows] == ["violation"]
        assert code == 1

    def test_synth_case_writes_each_role(self, tmp_path, capsys):
        net = Series((Resistor(2.0), Inductor(1e-3)))
        case = synth_case({"start_hz": 10.0, "stop_hz": 1000.0, "points": 32}, network_to_obj(net))
        case_file = tmp_path / "case.json"
        case_file.write_text(json.dumps(case))
        out_dir = tmp_path / "out"
        assert main(["synth", "--case", str(case_file), "--out-dir", str(out_dir)]) == 0
        expected = eval_network(net, log_grid(10, 1000, 32))
        for role, label in zip(ROLES, netsynth.CASE_LABELS):
            resp = parse_response((out_dir / f"{role}.csv").read_bytes())
            assert resp.label == label
            assert resp == dataclasses.replace(expected, samples=expected.samples, label=label)
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out_dir / role}.csv" for role in ROLES
        ]

    def test_synth_network(self, tmp_path):
        net_file = tmp_path / "net.json"
        net_file.write_bytes(network_to_json(Series((Resistor(2.0), Inductor(1e-3)))))
        out = tmp_path / "z.csv"
        code = main(
            [
                "synth",
                "--network", str(net_file),
                "--span", "10:1000",
                "--points", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        resp = parse_response(out.read_bytes())
        assert len(resp.grid) == 50
        expected = eval_network(
            Series((Resistor(2.0), Inductor(1e-3))), log_grid(10, 1000, 50)
        )
        assert resp == expected

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_synth_network_too_few_points(self, tmp_path, capsys, points):
        net_file = tmp_path / "net.json"
        net_file.write_bytes(network_to_json(Resistor(2.0)))
        out = tmp_path / "z.csv"
        code = main(
            ["synth", "--network", str(net_file), "--points", points, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error [stage=config] ")
        assert not out.exists()

    def test_synth_bundled(self, tmp_path):
        code = main(["synth", "--bundled", "compliant-A", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "z_ppm_existing.csv").exists()

    def test_synth_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(
                ["synth", "--seed", "7", "--n-strings", "2",
                 "--span", "1:10000", "--out-dir", str(d)]
            ) == 0
        for name in ("z_ppm_existing.csv", "z_net_old.csv", "z_ppm_new.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_synth_seed_exits_2_when_every_draw_is_refused(self, tmp_path, capsys, monkeypatch):
        def refuse(rng, n_strings, grid):
            raise ResonanceSingular("refused")

        monkeypatch.setattr(netsynth, "_build_case", refuse)
        assert main(["synth", "--seed", "7", "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error [stage=synth] no usable fixture for seed 7 after sub-seeds {list(range(16))}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_synth_seed_writes_at_io_stage(self, tmp_path, capsys):
        # generating the case is the synth stage; writing its files is io
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert main(["synth", "--seed", "0", "--out-dir", str(not_a_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [stage=io] ") and str(not_a_dir) in err, err
        assert not_a_dir.read_text() == ""

    def test_nyquist_subcommand(self, compliant_dir, tmp_path):
        lg_file = tmp_path / "lg.csv"
        main(
            [
                "loopgain",
                "--z-net", str(compliant_dir["z_net_old"]),
                "--z-ppm", str(compliant_dir["z_ppm_existing"]),
                "--out", str(lg_file),
            ]
        )
        out = tmp_path / "ny.svg"
        code = main(["nyquist", "--loop-gain", str(lg_file), "--out", str(out)])
        assert code == 0
        ET.fromstring(out.read_bytes())

    @pytest.mark.parametrize("command", ["margins", "nyquist"])
    def test_zero_sample_fails_at_margins_stage(self, tmp_path, capsys, command):
        samples = np.full(8, 0.5 + 0j)
        samples[3] = 0.0
        lg_file = tmp_path / "lg.csv"
        lg_file.write_bytes(write_response(
            FrequencyResponse(log_grid(10.0, 1000.0, 8), samples, unit="dimensionless")
        ))
        args = [command, "--loop-gain", str(lg_file)]
        if command == "nyquist":
            args += ["--out", str(tmp_path / "ny.svg")]
        assert main(args) == 2
        assert "[stage=margins]" in capsys.readouterr().err

    def test_synth_case_mode(self, tmp_path):
        case = {
            "grid": {"start_hz": 10.0, "stop_hz": 1000.0, "points": 64},
            "z_ppm_existing": {"type": "resistor", "r_ohm": 10.0},
            "z_net_old": {"type": "resistor", "r_ohm": 5.0},
            "z_ppm_new": {"type": "resistor", "r_ohm": 20.0},
        }
        case_file = tmp_path / "case.json"
        case_file.write_text(json.dumps(case))
        code = main(["check", "--synth", str(case_file), "--out-dir", str(tmp_path),
                     "--format", "json,markdown"])
        assert code == 0  # constant L = 0.5: no crossovers, no violations
        obj = json.loads((tmp_path / "report.json").read_bytes())
        assert obj["l_new"]["crossovers"] == []
        markdown = (tmp_path / "report.md").read_text().splitlines()
        assert "No limit frequencies were evaluated." in markdown


class _Tty(io.StringIO):
    def isatty(self):
        return True


class TestTerminalColour:
    @pytest.mark.parametrize("case, extra, verdict, colour", [
        ("compliant-A", (), "compliant", "32"),
        ("compliant-A", ("--pm-cau-deg", "80"), "caution", "33"),
        ("tableII-like", (), "violation", "31"),
    ])
    @pytest.mark.parametrize("no_color", [False, True], ids=["tty", "no_color"])
    def test_verdict_colour(self, tmp_path, monkeypatch, case, extra, verdict, colour, no_color):
        paths = write_bundled_case(case, tmp_path / "in")
        out, err = _Tty(), _Tty()
        monkeypatch.setattr("sys.stdout", out)
        monkeypatch.setattr("sys.stderr", err)
        if no_color:
            monkeypatch.setenv("MARGIN_GATE_NO_COLOR", "1")
        else:
            monkeypatch.delenv("MARGIN_GATE_NO_COLOR", raising=False)
        main(check_args(paths, tmp_path / "out", *extra))
        line = f"overall verdict: {verdict}"
        assert out.getvalue() == (line if no_color else f"\x1b[{colour}m{line}\x1b[0m") + "\n"
        err_lines = err.getvalue().splitlines()
        assert len(err_lines) == (verdict == "violation")
        prefix = "violation at" if no_color else "\x1b[31mviolation at"
        assert all(err_line.startswith(prefix) for err_line in err_lines)


# compliant-A's L_new PM of 67 deg is below a 70 deg minimum; its one limit row is met
MARGINS_ONLY = ("--pm-min-deg", "70", "--pm-cau-deg", "80", "--critical-freqs", "3000")


class TestVerdictTable:
    @pytest.mark.parametrize("case, extra, violating", [
        ("compliant-A", (), []),
        ("compliant-A", ("--pm-cau-deg", "80"), []),  # caution: exit 1, nothing on stderr
        ("compliant-A", MARGINS_ONLY, ["l_new_margins"]),
        ("tableII-like", (), ["impedance_limit"]),
        ("converter", (), ["l_new_margins", "winding_l_old"]),
        ("seed-0", (), ["l_new_margins"] + ["impedance_limit"] * 3),
        ("seed-8", (), ["l_new_margins"] + ["impedance_limit"] * 4),
    ])
    def test_one_stderr_line_per_violating_check(self, tmp_path, capsys, case, extra, violating):
        paths = {}
        for role, curve in zip(netsynth.ROLES, case_curves(case)):
            paths[role] = tmp_path / f"{role}.csv"
            paths[role].write_bytes(write_response(curve))
        code = main(check_args(paths, tmp_path / "out", *extra))
        checks = parse_report((tmp_path / "out" / "report.json").read_bytes()).checks
        rows = [c for c in checks if c.verdict == "violation"]
        assert [c.name for c in rows] == violating
        assert capsys.readouterr().err.splitlines() == [
            f"violation {c.detail} [check={c.name}]" for c in rows
        ]
        # the exit code follows the worst row
        verdicts = {c.verdict for c in checks}
        assert code == (0 if verdicts == {"compliant"} else 1)
        assert (code == 0) == (extra == () and case == "compliant-A")


class TestLimitRows:
    """``limit --z-new`` prints its violating rows as ``check`` prints them."""

    @pytest.fixture(scope="class")
    def cases(self, tmp_path_factory):
        out = {}
        for name in ("compliant-A", "tableII-like"):
            paths = write_bundled_case(name, tmp_path_factory.mktemp(name))
            paths["l_old"] = paths["z_net_old"].with_name("l_old.csv")
            assert main(["loopgain", "--z-net", str(paths["z_net_old"]),
                         "--z-ppm", str(paths["z_ppm_existing"]),
                         "--out", str(paths["l_old"])]) == 0
            out[name] = paths
        return out

    @staticmethod
    def limit_args(paths, *extra):
        return ["limit", "--l-old", str(paths["l_old"]), "--z-net-old", str(paths["z_net_old"]),
                "--critical-freqs", "150,500", *extra]

    # a 60 deg minimum leaves no headroom at 500 Hz (PM_old 52 deg)
    @pytest.mark.parametrize("case, extra, rows", [
        ("compliant-A", (), 0),
        ("tableII-like", (), 2),
        ("compliant-A", ("--pm-min-deg", "60", "--pm-cau-deg", "70"), 1),
        ("tableII-like", ("--pm-min-deg", "60", "--pm-cau-deg", "70"), 2),
    ], ids=["compliant-A", "tableII-like", "compliant-A-no-headroom", "tableII-like-no-headroom"])
    def test_limit_stderr_is_checks_limit_lines(self, cases, tmp_path, capsys, case, extra,
                                               rows):
        paths = cases[case]
        main(check_args(paths, tmp_path, "--critical-freqs", "150,500", *extra))
        from_check = [line for line in capsys.readouterr().err.splitlines(keepends=True)
                      if line.endswith("[check=impedance_limit]\n")]
        assert len(from_check) == rows
        code = main(self.limit_args(paths, "--z-new", str(paths["z_ppm_new"]), *extra))
        assert capsys.readouterr().err == "".join(from_check)
        assert code == (1 if rows else 0)
        if extra:
            assert from_check[-1].startswith("violation at 500.0 Hz: ")
            assert from_check[-1].endswith(
                f" ohm, no headroom ({FLAG_PREEXISTING}) [check=impedance_limit]\n"
            )

    def test_limit_without_z_new_prints_no_stderr(self, cases, capsys):
        paths = cases["tableII-like"]
        assert main(self.limit_args(paths, "--pm-min-deg", "60", "--pm-cau-deg", "70")) == 0
        assert capsys.readouterr().err == ""


class TestParser:
    def test_policy_flags(self):
        args = build_parser().parse_args(
            ["check", "--z-ppm", "a", "--z-net-old", "b", "--z-ppm-new", "c",
             "--pm-min-deg", "20", "--pm-cau-deg", "40", "--gm-min-db", "10"]
        )
        assert MarginPolicy(args.pm_min_deg, args.pm_cau_deg, args.gm_min_db) == MarginPolicy(
            20.0, 40.0, 10.0
        )

    @pytest.mark.parametrize("freq_flags", [
        (),
        ("--critical-freqs", "150", "--detect-from", "lg.csv"),
    ], ids=["neither", "both"])
    def test_limit_needs_one_frequency_source(self, freq_flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--l-old", "lg.csv", "--z-net-old", "z.csv", *freq_flags])
        assert exc.value.code == 2
        assert "--critical-freqs" in capsys.readouterr().err


class TestFixtures:
    def test_bundled_names(self):
        assert set(BUNDLED_CASES) == {"compliant-A", "tableII-like", "invalid-header"}
        with pytest.raises(ValueError):
            write_bundled_case("nope", "/tmp")

    def test_invalid_header_has_no_curves(self):
        with pytest.raises(ValueError, match="no impedance curves"):
            bundled_case("invalid-header")

    def test_tableii_is_not_sized_by_the_limit_it_checks(self, monkeypatch, tmp_path):
        # a limit ten times too large makes the one limit row compliant; a
        # case sized by the gate itself would sit at twice the wrong limit
        from margingate import speclimit

        # fixtures caches nothing, so no case built before the patch can leak into it
        assert [name for name, obj in vars(fixtures).items() if hasattr(obj, "cache_clear")] == []
        real = speclimit._limit_rule

        def tenfold(*row):
            z_lim, flags = real(*row)
            return (None if z_lim is None else 10.0 * z_lim), flags

        monkeypatch.setattr(speclimit, "_limit_rule", tenfold)
        report, _ = run_assessment(RunConfig(**write_bundled_case("tableII-like", tmp_path)))
        assert [rec.verdict for rec in report.compliance] == ["compliant"]

    def test_tableii_targets_twice_the_limit(self):
        # dense-sweep oracle: the scaled plant sits at 2x the limit at the
        # first detected new gain crossover
        from margingate.freqresp import value_at
        from margingate.loopgain import loop_gain, rho, update_loop_gain
        from margingate.margins import find_crossovers
        from margingate.speclimit import limit_curve

        z_ppm, z_net, z_new = bundled_case("tableII-like")
        l_old = loop_gain(z_net, z_ppm).response
        ratio = rho(z_net, z_new)
        l_new = update_loop_gain(l_old, ratio).response
        gains = find_crossovers(l_new, "gain")
        assert gains
        f1 = gains[0].f_hz
        limits = limit_curve(l_old, z_net, [f1], MarginPolicy(), ratio)
        z_mag, z_lim = abs(value_at(z_new, f1)[0]), limits.z_limit_ohm[0]
        k_next = fixtures._TABLEII_SCALE * 2.0 * z_lim / z_mag
        assert z_mag == pytest.approx(2.0 * z_lim, rel=1e-9), (
            f"|Z_new| {z_mag!r} vs 2 x limit {2.0 * z_lim!r} at {f1!r} Hz; "
            f"one update of the scale k*2*Z_limit(f1)/|Z_new(f1)| gives {k_next!r}"
        )

    def test_compliant_case_margins_oracle(self):
        # dense-sweep oracle: every crossover of both curves keeps PM > 30
        from margingate.loopgain import loop_gain, rho, update_loop_gain
        from margingate.margins import find_crossovers

        z_ppm, z_net, z_new = bundled_case("compliant-A")
        l_old = loop_gain(z_net, z_ppm).response
        l_new = update_loop_gain(l_old, rho(z_net, z_new)).response
        for curve in (l_old, l_new):
            gains = find_crossovers(curve, "gain")
            assert gains, "fixture must exercise a crossover"
            assert all(cp.pm_deg > 30.0 for cp in gains)

    def test_tableii_evaluates_each_network_once(self, monkeypatch):
        # each call evaluates the three trees it returns, and no other
        calls = []
        real = fixtures.eval_network

        def spy(desc, grid, label=""):
            calls.append(label)
            return real(desc, grid, label=label)

        monkeypatch.setattr(fixtures, "eval_network", spy)
        bundled_case("tableII-like")
        assert len(calls) == 3
        bundled_case("tableII-like")
        assert len(calls) == 6
        bundled_case("compliant-A")
        assert len(calls) == 9


class TestMarginsRow:
    """``margins`` gates on one row named ``margins``, as ``check`` gates on its rows."""

    @pytest.fixture(scope="class")
    def l_old(self, tmp_path_factory):
        paths = write_bundled_case("compliant-A", tmp_path_factory.mktemp("compliant-A"))
        path = paths["z_net_old"].with_name("l_old.csv")
        assert main(["loopgain", "--z-net", str(paths["z_net_old"]),
                     "--z-ppm", str(paths["z_ppm_existing"]), "--out", str(path)]) == 0
        return path

    # compliant-A's L_old has one gain crossover, with a PM of 61 deg
    @pytest.mark.parametrize("extra, verdict", [
        ((), "compliant"),
        (("--pm-min-deg", "50", "--pm-cau-deg", "70"), "caution"),
        (("--pm-min-deg", "70", "--pm-cau-deg", "80"), "violation"),
    ])
    def test_one_stderr_line_for_a_violation(self, l_old, capsys, extra, verdict):
        capsys.readouterr()
        code = main(["margins", "--loop-gain", str(l_old), *extra])
        out, err = capsys.readouterr()
        assert code == (0 if verdict == "compliant" else 1)
        *_, row, last = out.splitlines()
        assert last == f"verdict: {verdict}"
        f_hz, kind, margin = (cell.strip() for cell in row.strip("|").split("|"))
        assert kind == "gain"
        expected = f"violation at {f_hz} Hz: {margin} [check=margins]\n"
        assert err == (expected if verdict == "violation" else "")
