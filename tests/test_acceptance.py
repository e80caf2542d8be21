"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and pins its tolerance inline. Expected values come from independent
oracles: closed-form crossover algebra, Routh arrays, arithmetic on the
published validation-table rows.
"""
import contextlib
import dataclasses
import json
import math
import time

import numpy as np

from margingate.cli import main
from margingate.fixtures import write_bundled_case
from margingate.freqresp import log_grid, normalize_deg
from margingate.loopgain import consistency_error, loop_gain, rho, update_loop_gain
from margingate.margins import CrossoverPoint, decompose_margins, find_crossovers
from margingate.netsynth import random_case
from margingate.regions import winding_number
from margingate.report import render
from margingate.speclimit import MarginPolicy, check_compliance, impedance_limit

from conftest import first_order, three_pole
from test_golden import case_curves
from test_report import basic_report
from test_speclimit import ROWS_WITHIN_LIMIT, ROWS_EXCEEDING_LIMIT, table_limit_curve, table_z_new

POLICY = MarginPolicy(15.0, 30.0, 15.0)
N_FIXTURES = 100
SPAN = (1.0, 10000.0)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def fixture_curves(seed: int):
    case = random_case(seed, 1 + seed % 4, SPAN)
    z_ppm, z_net, z_new = case.responses()
    l_old = loop_gain(z_net, z_ppm).response
    ratio = rho(z_net, z_new)
    return z_ppm, z_net, z_new, l_old, ratio


def test_criterion_1_loop_gain_update_identity():
    with criterion(1, "loop-gain update identity over 100 fixtures, < 5 s"):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(N_FIXTURES):
            z_ppm, z_net, z_new, l_old, ratio = fixture_curves(seed)
            l_factored = update_loop_gain(l_old, ratio).response
            err = consistency_error(z_net, z_ppm, z_new, l_factored)
            worst = max(worst, err)
            assert err < 1e-10, f"seed {seed}: consistency error {err}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        print(f"  worst consistency error {worst:.3e}, elapsed {elapsed:.2f} s")


def test_criterion_2_margin_decomposition_identity():
    with criterion(2, "decomposition matches direct margins at every new crossover"):
        cases = {f"seed {seed}": fixture_curves(seed)[3:] for seed in range(N_FIXTURES)}
        # the random fixtures are passive and never cross -180 deg; the
        # converter-like golden case puts the gain-margin identity to work
        z_ppm, z_net, z_new = case_curves("converter")
        cases["converter"] = (loop_gain(z_net, z_ppm).response, rho(z_net, z_new))
        n_checked = {"gain": 0, "phase": 0}
        for name, (l_old, ratio) in cases.items():
            l_new = update_loop_gain(l_old, ratio).response
            for kind in ("gain", "phase"):
                crossovers = find_crossovers(l_new, kind)
                decomps = decompose_margins(l_old, ratio, [(cp.f_hz, kind) for cp in crossovers])
                for cp, d in zip(crossovers, decomps):
                    if kind == "gain":
                        dev = abs(normalize_deg(d.pm_new_deg - cp.pm_deg))
                        assert dev < 1e-9, f"{name} f {cp.f_hz}: dPM {dev}"
                    else:
                        rel = abs(d.gm_new_lin - cp.gm_lin) / cp.gm_lin
                        assert rel < 1e-12, f"{name} f {cp.f_hz}: dGM {rel}"
                    n_checked[kind] += 1
        assert n_checked["gain"] > 0 and n_checked["phase"] > 0
        print(f"  {n_checked} crossovers checked")


def test_criterion_3_limiting_cases():
    with criterion(3, "open/short-circuit scaling limits of the new plant"):
        for seed in range(N_FIXTURES):
            _, z_net, z_new, l_old, _ = fixture_curves(seed)
            huge = dataclasses.replace(z_new, samples=1e9 * z_new.samples)
            l_open = update_loop_gain(l_old, rho(z_net, huge)).response
            dev = np.max(
                np.abs(l_open.samples - l_old.samples) / np.abs(l_old.samples)
            )
            assert dev < 1e-6, f"seed {seed}: open-circuit deviation {dev}"
            tiny = dataclasses.replace(z_new, samples=1e-9 * z_new.samples)
            l_short = update_loop_gain(l_old, rho(z_net, tiny)).response
            ratio_mag = np.max(np.abs(l_short.samples) / np.abs(l_old.samples))
            assert ratio_mag < 1e-6, f"seed {seed}: short-circuit ratio {ratio_mag}"


def test_criterion_4_analytic_crossover_oracle():
    with criterion(4, "closed-form crossover frequencies, PM and GM"):
        grid = log_grid(1.0, 10000.0, 20000)
        f_star = 100.0 * math.sqrt(3.0)  # closed form for both fixtures

        gain_cps = find_crossovers(first_order(2.0, 100.0, grid), "gain")
        assert len(gain_cps) == 1
        assert abs(gain_cps[0].f_hz - 173.205) <= 0.01
        assert abs(gain_cps[0].f_hz - f_star) <= 0.01
        assert abs(gain_cps[0].pm_deg - 120.0) <= 0.001

        phase_cps = find_crossovers(three_pole(10.0, 100.0, grid), "phase")
        assert len(phase_cps) == 1
        assert abs(phase_cps[0].f_hz - 173.205) <= 0.01
        assert abs(phase_cps[0].gm_lin - 0.8) <= 1e-6
        print(
            f"  f_gc {gain_cps[0].f_hz:.5f} Hz, PM {gain_cps[0].pm_deg:.6f} deg, "
            f"GM {phase_cps[0].gm_lin:.9f}"
        )


def routh_rhp_count_cubic(a3, a2, a1, a0) -> int:
    rows = [a3, a2, (a2 * a1 - a3 * a0) / a2, a0]
    signs = [math.copysign(1.0, v) for v in rows]
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def test_criterion_5_encirclement_oracle():
    with criterion(5, "winding numbers match the Routh-array oracle"):
        grid = log_grid(1.0, 10000.0, 4000)
        # 1 + K/(1+u)^3 = 0  =>  u^3 + 3u^2 + 3u + (1+K) = 0
        assert routh_rhp_count_cubic(1.0, 3.0, 3.0, 11.0) == 2
        assert routh_rhp_count_cubic(1.0, 3.0, 3.0, 4.0) == 0
        res10 = winding_number(three_pole(10.0, 100.0, grid))
        res3 = winding_number(three_pole(3.0, 100.0, grid))
        # winding_number itself enforces residual < 0.01 (AmbiguousWinding)
        assert res10.winding == 2
        assert res3.winding == 0


def test_criterion_6_validation_table_verdicts():
    with criterion(6, "validation-table rows reproduce their verdicts"):
        records_i = check_compliance(table_z_new(ROWS_WITHIN_LIMIT), table_limit_curve(ROWS_WITHIN_LIMIT))
        assert [r.verdict for r in records_i] == ["compliant"] * 6

        rows_ii = [r[:3] for r in ROWS_EXCEEDING_LIMIT]
        records_ii = check_compliance(table_z_new(rows_ii), table_limit_curve(rows_ii))
        verdicts = {round(r.f_hz, 2): r.verdict for r in records_ii}
        assert verdicts[794.76] == "violation"
        assert verdicts[1628.8] == "violation"

        rep_i = basic_report(ROWS_WITHIN_LIMIT)
        text = render(rep_i, "markdown")
        assert b"354.07 | 11.22 | 201.27 | compliant" in text
        assert render(rep_i, "markdown") == text  # byte-stable
        rep_ii = basic_report(rows_ii)
        text_ii = render(rep_ii, "markdown")
        assert b"794.76 | 70.03 | 7.15 | violation" in text_ii
        assert b"1628.8 | 194.24 | 156.76 | violation" in text_ii
        assert render(rep_ii, "markdown") == text_ii


def test_criterion_7_limit_spot_values():
    with criterion(7, "limit spot value and geometric identity"):
        z_lim, delta, flags = impedance_limit(10.0, 75.0, POLICY)
        assert delta == 60.0
        assert z_lim == 10.0  # exact: sin 30 deg = 1/2
        assert flags == frozenset()
        for deg in range(-180, 181):
            theta = math.radians(deg)
            lhs = abs(complex(math.cos(theta), math.sin(theta)) - 1.0)
            rhs = 2.0 * abs(math.sin(theta / 2.0))
            assert abs(lhs - rhs) < 1e-12, f"theta {deg} deg"


def test_criterion_8_region_semantics():
    with criterion(8, "wedge classification and GM circle radius"):
        pol = MarginPolicy(15.0, 30.0, 15.0)
        for angle, expected in ((-170.0, "critical"), (-160.0, "caution"), (-140.0, "compliant")):
            lv = complex(math.cos(math.radians(angle)), math.sin(math.radians(angle)))
            assert pol.region(CrossoverPoint("gain", 100.0, lv)) == expected, angle
        assert abs(pol.gm_circle_radius - 10.0 ** (-15.0 / 20.0)) < 1e-12


def test_criterion_9_end_to_end(tmp_path, capsys):
    with criterion(9, "bundled fixtures: exit codes 0/1/2, determinism, < 1 s"):
        cases = {"compliant-A": 0, "tableII-like": 1, "invalid-header": 2}
        blobs = {}
        elapsed = {}
        for name, expected_code in cases.items():
            paths = write_bundled_case(name, tmp_path / name)
            for attempt in ("first", "second"):
                out_dir = tmp_path / name / attempt
                t0 = time.perf_counter()
                code = main(
                    [
                        "check",
                        "--z-ppm", str(paths["z_ppm_existing"]),
                        "--z-net-old", str(paths["z_net_old"]),
                        "--z-ppm-new", str(paths["z_ppm_new"]),
                        "--out-dir", str(out_dir),
                        "--format", "json",
                    ]
                )
                elapsed[name] = time.perf_counter() - t0
                assert code == expected_code, f"{name}: exit {code}"
                if expected_code != 2:
                    blobs.setdefault(name, []).append(
                        (out_dir / "report.json").read_bytes()
                    )
        for name, pair in blobs.items():
            assert pair[0] == pair[1], f"{name}: report not byte-identical"
        # full check on the 10000-point bundled grids stays under a second
        for name in ("compliant-A", "tableII-like"):
            assert elapsed[name] < 1.0, f"{name}: {elapsed[name]:.3f} s"
        obj = json.loads(blobs["compliant-A"][0])
        assert obj["overall_verdict"] == "compliant"
        capsys.readouterr()
        print(
            "  timings: "
            + ", ".join(f"{k} {v:.3f} s" for k, v in elapsed.items())
        )
