import dataclasses
import cmath
import math

import numpy as np
import pytest

from margingate import margins
from margingate.errors import KindMismatch, SingularSensitivity, ZeroMagnitudeSample
from margingate.freqresp import FrequencyGrid, FrequencyResponse, log_grid, normalize_deg, value_at
from margingate.loopgain import loop_gain, one_plus, rho, update_loop_gain
from margingate.margins import (
    _MERGE_RTOL,
    GAIN_MAG_TOL,
    CrossoverPoint,
    _merge_close,
    decompose_margins,
    find_crossovers,
    summarize_margins,
)
from margingate.netsynth import random_case
from margingate.speclimit import MarginPolicy

from conftest import first_order, three_pole

POLICY = MarginPolicy(15.0, 30.0, 15.0)


def unit_angle(deg: float) -> complex:
    return cmath.exp(1j * math.radians(deg))


class TestFindCrossovers:
    def test_first_order_gain_crossover(self, grid_2k):
        # |L| = 2/sqrt(1+(f/100)^2) = 1  =>  f = 100*sqrt(3)
        cps = find_crossovers(first_order(2.0, 100.0, grid_2k), "gain")
        assert len(cps) == 1
        assert cps[0].f_hz == pytest.approx(100.0 * math.sqrt(3.0), abs=0.01)
        assert abs(abs(cps[0].l_value) - 1.0) < 1e-9

    def test_constant_has_no_crossovers(self, constant_half):
        assert find_crossovers(constant_half, "gain") == []
        assert find_crossovers(constant_half, "phase") == []

    def test_three_pole_phase_crossover(self, grid_2k):
        # 3*atan(f/100) = 180  =>  f = 100*tan(60 deg)
        cps = find_crossovers(three_pole(10.0, 100.0, grid_2k), "phase")
        assert len(cps) == 1
        assert cps[0].f_hz == pytest.approx(100.0 * math.tan(math.radians(60.0)), abs=0.01)

    def test_node_exact_crossing(self):
        g = FrequencyGrid([1.0, 2.0, 4.0])
        l = FrequencyResponse(g, [2.0 + 0j, 1.0 + 0j, 0.5 + 0j], unit="dimensionless")
        cps = find_crossovers(l, "gain")
        assert len(cps) == 1
        assert cps[0].f_hz == 2.0
        assert cps[0].l_value == 1.0 + 0j

    def test_multiple_wrap_levels(self, grid_2k):
        # five poles wrap past -360; crossings at -180 and -540 both count
        g = grid_2k
        l = FrequencyResponse(
            g, 30.0 / (1 + 1j * g.points / 50.0) ** 5, unit="dimensionless"
        )
        cps = find_crossovers(l, "phase")
        # -180 at 5*atan(f/50)=180 => f = 50*tan36; -540 unreachable (max 450)
        assert len(cps) == 1
        assert cps[0].f_hz == pytest.approx(50.0 * math.tan(math.radians(36.0)), rel=1e-3)
        l2 = FrequencyResponse(
            g, 1000.0 / (1 + 1j * g.points / 20.0) ** 7, unit="dimensionless"
        )
        # seven poles reach -630: crossings at -180 and -540
        cps2 = find_crossovers(l2, "phase")
        assert len(cps2) == 2

    def test_merge_boundary(self):
        # 15625 * 1e-6 rounds to 2**-6, so the gap below sits exactly at the
        # merge tolerance and merges; the next float above it does not
        lo, hi = 15625.0, 15625.015625
        assert hi - lo == _MERGE_RTOL * lo
        assert _merge_close([hi, lo]) == [lo]
        above = math.nextafter(hi, math.inf)
        assert _merge_close([lo, above]) == [lo, above]

    def test_zero_magnitude_rejected(self):
        g = FrequencyGrid([1.0, 2.0])
        l = FrequencyResponse(g, [0j, 1 + 0j], unit="dimensionless")
        with pytest.raises(ZeroMagnitudeSample):
            find_crossovers(l, "gain")

    def test_crossover_count_on_first_order_family(self):
        # analytic count: one crossing iff gain > 1 (crossing inside span)
        rng = np.random.default_rng(123)
        grid = log_grid(1.0, 10000.0, 1200)
        for _ in range(100):
            gain = rng.uniform(0.2, 10.0)
            corner = rng.uniform(10.0, 300.0)
            cps = find_crossovers(first_order(gain, corner, grid), "gain")
            if gain > 1.0 + 1e-9:
                f_star = corner * math.sqrt(gain**2 - 1.0)
                if 1.0 < f_star < 10000.0:
                    assert len(cps) == 1, (gain, corner)
                    assert cps[0].f_hz == pytest.approx(f_star, rel=1e-4)
            elif gain < 1.0 - 1e-9:
                assert cps == []


class TestMarginAt:
    """Margins that ``find_crossovers`` reads off the crossover value."""

    @staticmethod
    def gain_crossing(value: complex, grid) -> FrequencyResponse:
        # |L| = 100/f crosses 1 at 100 Hz, where L equals ``value``
        return FrequencyResponse(grid, value * 100.0 / grid.points, unit="dimensionless")

    def test_pm_from_angle(self, grid_2k):
        (cp,) = find_crossovers(self.gain_crossing(unit_angle(-135.0), grid_2k), "gain")
        assert cp.f_hz == pytest.approx(100.0, rel=1e-9)
        assert cp.pm_deg == pytest.approx(45.0, abs=1e-9)

    def test_pm_marginal(self, grid_2k):
        (cp,) = find_crossovers(self.gain_crossing(-1.0 + 0j, grid_2k), "gain")
        assert cp.pm_deg == pytest.approx(0.0, abs=1e-9)

    def test_gm_half(self, grid_2k):
        # |L| = 0.5 and a phase of -90*log10(f) deg: -180 deg at 100 Hz
        f = grid_2k.points
        l = FrequencyResponse(
            grid_2k, 0.5 * np.exp(-1j * np.radians(90.0 * np.log10(f))), unit="dimensionless"
        )
        (cp,) = find_crossovers(l, "phase")
        assert cp.f_hz == pytest.approx(100.0, rel=1e-9)
        assert cp.gm_lin == pytest.approx(2.0, rel=1e-12)
        assert cp.gm_db == pytest.approx(6.0206, abs=1e-4)

    def test_kind_mismatch(self, constant_half):
        # the value invariants of each kind: TestCrossoverPoint
        with pytest.raises(ValueError):
            find_crossovers(constant_half, "both")


class TestCrossoverPoint:
    def test_invariants_enforced(self):
        with pytest.raises(KindMismatch):
            CrossoverPoint("gain", 10.0, 2.0 + 0j)
        with pytest.raises(KindMismatch):
            CrossoverPoint("phase", 10.0, unit_angle(-90.0))
        cp = CrossoverPoint("phase", 10.0, -0.5 + 0j)
        assert (cp.gm_lin, cp.pm_deg) == (2.0, None)

    def test_bad_kind_refused(self):
        with pytest.raises(ValueError, match="kind must be gain or phase"):
            CrossoverPoint("delay", 10.0, 1.0 + 0j)

    def test_gain_tolerance_on_each_side(self):
        # the floats either side of | |L| - 1 | = GAIN_MAG_TOL, above and
        # below the unit circle; no float |L| sits on the boundary itself
        for sign in (1.0, -1.0):
            refused = 1.0 + sign * GAIN_MAG_TOL
            if abs(refused - 1.0) < GAIN_MAG_TOL:
                refused = math.nextafter(refused, 1.0 + sign)
            accepted = math.nextafter(refused, 1.0)
            assert abs(accepted - 1.0) < GAIN_MAG_TOL <= abs(refused - 1.0)
            assert CrossoverPoint("gain", 10.0, complex(accepted, 0.0)).pm_deg == 180.0
            with pytest.raises(KindMismatch):
                CrossoverPoint("gain", 10.0, complex(refused, 0.0))


class TestDecompose:
    def test_bad_kind_refused(self, grid_2k):
        l_old = first_order(2.0, 100.0, grid_2k)
        with pytest.raises(ValueError, match="kind must be gain or phase"):
            decompose_margins(l_old, l_old, [(173.2, "delay")])

    def test_one_plus_rho_zero_at_a_grid_point(self, grid_2k):
        # a grid frequency reads its sample as stored, so 1+rho is exactly 0
        l_old = first_order(2.0, 100.0, grid_2k)
        samples = np.zeros(len(grid_2k), complex)
        samples[700] = -1.0
        ratio = FrequencyResponse(grid_2k, samples, unit="dimensionless")
        f = float(grid_2k.points[700])
        with pytest.raises(SingularSensitivity, match="vanishes"):
            decompose_margins(l_old, ratio, [(f, "gain")])

    def test_rho_zero(self, grid_2k):
        l_old = first_order(2.0, 100.0, grid_2k)
        zero = FrequencyResponse(
            grid_2k, np.zeros(len(grid_2k), complex), unit="dimensionless"
        )
        (d,) = decompose_margins(l_old, zero, [(173.2, "gain")])
        assert d.angle_one_plus_rho_deg == pytest.approx(0.0, abs=1e-12)
        assert d.pm_new_deg == pytest.approx(d.pm_old_newgc_deg, abs=1e-12)

    def test_rho_pure_imaginary(self, grid_2k):
        l_old = first_order(2.0, 100.0, grid_2k)
        imag = FrequencyResponse(
            grid_2k, np.full(len(grid_2k), 1j), unit="dimensionless"
        )
        (d,) = decompose_margins(l_old, imag, [(173.2, "gain")])
        assert d.angle_one_plus_rho_deg == pytest.approx(45.0, abs=1e-9)
        assert d.pm_new_deg == pytest.approx(
            normalize_deg(d.pm_old_newgc_deg - 45.0), abs=1e-9
        )

    def test_matches_direct_on_fixtures(self):
        # identity check via the independent direct path (Eqs on L_new)
        checked = 0
        for seed in range(8):
            case = random_case(seed, 2, (1.0, 10000.0))
            z_ppm, z_net, z_new = case.responses()
            l_old = loop_gain(z_net, z_ppm).response
            ratio = rho(z_net, z_new)
            l_new = update_loop_gain(l_old, ratio).response
            for kind in ("gain", "phase"):
                crossovers = find_crossovers(l_new, kind)
                decomps = decompose_margins(l_old, ratio, [(cp.f_hz, kind) for cp in crossovers])
                for cp, d in zip(crossovers, decomps):
                    if kind == "gain":
                        assert abs(normalize_deg(d.pm_new_deg - cp.pm_deg)) < 1e-9
                    else:
                        assert d.gm_new_lin == pytest.approx(cp.gm_lin, rel=1e-12)
                    checked += 1
        assert checked > 0

    def test_internal_identities(self, grid_2k):
        l_old = first_order(3.0, 60.0, grid_2k)
        r = FrequencyResponse(
            grid_2k,
            0.7 * np.exp(1j * np.linspace(-0.5, 0.5, len(grid_2k))),
            unit="dimensionless",
        )
        (d,) = decompose_margins(l_old, r, [(200.0, "gain")])
        assert abs(
            normalize_deg(d.pm_new_deg - (d.pm_old_newgc_deg - d.angle_one_plus_rho_deg))
        ) < 1e-9
        assert d.gm_new_lin == pytest.approx(d.abs_one_plus_rho / d.l_old_mag, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 12])
    def test_reads_each_curve_once(self, grid_2k, monkeypatch, k):
        l_old = first_order(3.0, 60.0, grid_2k)
        r = FrequencyResponse(grid_2k, np.full(len(grid_2k), 0.5j), unit="dimensionless")
        read = []

        def counting_value_at(resp, freqs):
            read.append(resp)
            return value_at(resp, freqs)

        monkeypatch.setattr(margins, "value_at", counting_value_at)
        points = [(f, "gain") for f in np.geomspace(20.0, 400.0, k).tolist()]
        assert len(decompose_margins(l_old, r, points)) == k
        assert len(read) == 2 and read[0] is l_old and read[1] is one_plus(r)


class TestSummarize:
    def test_constant_compliant(self, constant_half):
        s = summarize_margins(constant_half, POLICY)
        assert s.verdict == "compliant"
        assert s.crossovers == ()
        assert s.worst_pm is None and s.worst_gm is None

    def test_first_order_pm_120(self, grid_2k):
        s = summarize_margins(first_order(2.0, 100.0, grid_2k), POLICY)
        assert s.verdict == "compliant"
        assert s.worst_pm.pm_deg == pytest.approx(120.0, abs=1e-3)
        assert s.worst_pm.f_hz == pytest.approx(173.2, abs=0.1)

    def test_three_pole_gm_violation(self, grid_dense):
        s = summarize_margins(three_pole(10.0, 100.0, grid_dense), POLICY)
        assert s.verdict == "violation"
        assert s.worst_gm.gm_lin == pytest.approx(0.8, abs=1e-5)
        assert s.worst_gm.gm_db == pytest.approx(-1.938, abs=1e-3)

    def test_caution_band(self, grid_2k):
        # crossing with PM between 15 and 30 -> caution
        g = grid_2k
        # construct L with angle -160 at its single gain crossover:
        # L = 2/(1+jf/100) rotated by a constant phase
        rot = np.exp(1j * math.radians(-40.0))
        l = FrequencyResponse(
            g, rot * 2.0 / (1 + 1j * g.points / 100.0), unit="dimensionless"
        )
        s = summarize_margins(l, POLICY)
        assert s.worst_pm.pm_deg == pytest.approx(80.0, abs=0.01)
        # rotating further adds a phase crossover; relax the GM floor so
        # the verdict isolates the PM caution band
        rot2 = np.exp(1j * math.radians(-100.0))
        l2 = FrequencyResponse(
            g, rot2 * 2.0 / (1 + 1j * g.points / 100.0), unit="dimensionless"
        )
        s2 = summarize_margins(l2, MarginPolicy(15.0, 30.0, 5.0))
        assert s2.worst_pm.pm_deg == pytest.approx(20.0, abs=0.01)
        assert s2.verdict == "caution"

    @pytest.mark.parametrize(
        "gm_db,region", [(14.0, "critical"), (15.0, "compliant"), (16.0, "compliant")]
    )
    def test_phase_crossover_region_against_gm_floor(self, gm_db, region):
        gm_lin = 10.0 ** (gm_db / 20.0)
        cp = CrossoverPoint("phase", 100.0, -1.0 / gm_lin + 0j)
        assert (cp.gm_lin, cp.gm_db) == (gm_lin, gm_db)
        assert POLICY.region(cp) == region

    def test_scaling_invariance(self, grid_2k):
        # multiplying z_net and z_ppm by the same curve leaves margins alone
        g = grid_2k
        rng = np.random.default_rng(5)
        z_ppm = FrequencyResponse(g, 10.0 + 1j * g.points * 1e-2, unit="ohm")
        z_net = FrequencyResponse(
            g, (20.0 + 1j * g.points * 5e-3) / (1 + 1j * g.points / 500.0), unit="ohm"
        )
        common = FrequencyResponse(
            g,
            rng.uniform(0.5, 2.0, len(g)) * np.exp(1j * rng.uniform(-1, 1, len(g))),
            unit="dimensionless",
        )
        l_a = loop_gain(z_net, z_ppm).response
        l_b = loop_gain(
            dataclasses.replace(z_net, samples=z_net.samples * common.samples),
            dataclasses.replace(z_ppm, samples=z_ppm.samples * common.samples),
        ).response
        s_a = summarize_margins(l_a, POLICY)
        s_b = summarize_margins(l_b, POLICY)
        assert len(s_a.crossovers) == len(s_b.crossovers)
        for ca, cb in zip(s_a.crossovers, s_b.crossovers):
            assert cb.f_hz == pytest.approx(ca.f_hz, rel=1e-10)
            if ca.kind == "gain":
                assert cb.pm_deg == pytest.approx(ca.pm_deg, abs=1e-9)
            else:
                assert cb.gm_lin == pytest.approx(ca.gm_lin, rel=1e-10)
