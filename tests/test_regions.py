import dataclasses
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margingate.errors import CriticalPointOnLocus
from margingate.freqresp import FrequencyGrid, FrequencyResponse, log_grid
from margingate.margins import CrossoverPoint, summarize_margins
from margingate.regions import winding_number
from margingate.speclimit import MarginPolicy

from conftest import first_order, three_pole

POLICY = MarginPolicy(15.0, 30.0, 15.0)


def unit_angle(deg: float) -> complex:
    return cmath.exp(1j * math.radians(deg))


def gain_region(angle_deg: float, policy: MarginPolicy) -> str:
    """The region ``check`` gives a gain crossover at this angle."""
    return policy.region(CrossoverPoint("gain", 100.0, unit_angle(angle_deg)))


def routh_rhp_count(coeffs) -> int:
    """Independent oracle: RHP roots of a cubic via the Routh array."""
    a3, a2, a1, a0 = coeffs
    rows = [a3, a2, (a2 * a1 - a3 * a0) / a2, a0]
    signs = [math.copysign(1.0, v) for v in rows]
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


class TestClassify:
    @pytest.mark.parametrize(
        "angle,region",
        [(-170.0, "critical"), (-160.0, "caution"), (-140.0, "compliant")],
    )
    def test_spec_angles(self, angle, region):
        assert gain_region(angle, POLICY) == region

    def test_boundary_semantics(self):
        # PM exactly at the minimum is caution, not critical
        assert gain_region(-165.0, POLICY) == "caution"
        # PM exactly at the caution threshold is compliant
        assert gain_region(-150.0, POLICY) == "compliant"

    def test_positive_angles_have_no_headroom(self):
        # normalized PM is non-positive for crossings at positive angles
        assert gain_region(170.0, POLICY) == "critical"

    @given(
        st.floats(min_value=-179.9, max_value=180.0),
        st.floats(min_value=1.0, max_value=80.0),
        st.floats(min_value=1.0, max_value=80.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_tightening_policy_is_monotone(self, angle, pm_min_a, bump):
        severity = {"compliant": 0, "caution": 1, "critical": 2}
        pm_min_b = min(pm_min_a + bump, 89.0)
        pol_a = MarginPolicy(pm_min_a, 90.0, 15.0)
        pol_b = MarginPolicy(pm_min_b, 90.0, 15.0)
        r_a = gain_region(angle, pol_a)
        r_b = gain_region(angle, pol_b)
        assert severity[r_b] >= severity[r_a]


class TestGmCircle:
    def test_radius_and_verdicts(self):
        radius = 10.0 ** (-15.0 / 20.0)  # oracle for the 15 dB policy
        assert radius == pytest.approx(0.177828, abs=1e-6)
        assert POLICY.gm_circle_radius == pytest.approx(radius, rel=1e-15)
        cp_bad = CrossoverPoint("phase", 100.0, -0.4 + 0j)
        cp_ok = CrossoverPoint("phase", 200.0, -0.1 + 0j)
        assert POLICY.region(cp_bad) == "critical"   # 0.4 outside the circle
        assert POLICY.region(cp_ok) == "compliant"   # 0.1 inside


class TestWinding:
    def test_constant_point(self, constant_half):
        res = winding_number(constant_half)
        assert res.winding == 0
        assert res.min_distance_to_critical_point == pytest.approx(1.5, abs=1e-12)

    def test_three_pole_gain_10_encircles_twice(self, grid_2k):
        # closed loop 1 + L = 0 scaled: u^3 + 3u^2 + 3u + 11; Routh oracle
        assert routh_rhp_count((1.0, 3.0, 3.0, 11.0)) == 2
        res = winding_number(three_pole(10.0, 100.0, grid_2k))
        assert res.winding == 2
        assert res.resolution_warnings == ()

    def test_three_pole_gain_3_stable(self, grid_2k):
        assert routh_rhp_count((1.0, 3.0, 3.0, 4.0)) == 0
        assert winding_number(three_pole(3.0, 100.0, grid_2k)).winding == 0

    def test_first_order_never_encircles(self, grid_2k):
        assert winding_number(first_order(2.0, 100.0, grid_2k)).winding == 0

    def test_critical_point_on_locus(self):
        g = FrequencyGrid([1.0, 2.0, 3.0])
        l = FrequencyResponse(g, [0.5 + 0j, -1.0 + 0j, 0.5j], unit="dimensionless")
        with pytest.raises(CriticalPointOnLocus):
            winding_number(l)

    def test_min_distance_three_pole(self, grid_2k):
        # brute-force oracle: dense sweep of |1 + L| (closest approach is
        # off the real axis, at the sensitivity peak)
        f = np.geomspace(1.0, 10000.0, 400000)
        l_dense = 10.0 / (1 + 1j * f / 100.0) ** 3
        oracle = float(np.min(np.abs(1.0 + l_dense)))
        res = winding_number(three_pole(10.0, 100.0, grid_2k))
        assert res.min_distance_to_critical_point == pytest.approx(oracle, rel=1e-3)

    def test_conjugate_symmetry(self, grid_2k):
        # conjugating flips orientation; reversed traversal flips it back,
        # so conj + reversal leaves the winding equal
        l = three_pole(10.0, 100.0, grid_2k)
        mirrored = dataclasses.replace(l, samples=np.conj(l.samples))
        assert -winding_number(mirrored).winding == winding_number(l).winding

    def test_inside_unit_circle_is_zero(self):
        rng = np.random.default_rng(17)
        g = log_grid(1, 1000, 400)
        for _ in range(20):
            mag = rng.uniform(0.05, 0.95, 400)
            ph = np.cumsum(rng.uniform(-0.2, 0.2, 400))
            l = FrequencyResponse(g, mag * np.exp(1j * ph), unit="dimensionless")
            assert winding_number(l).winding == 0

    def test_undersampling_warning(self):
        # a coarse three-pole sampling takes >90 degree steps near the knee
        g = log_grid(1, 10000, 10)
        l = three_pole(10.0, 100.0, g)
        res = winding_number(l)
        assert res.resolution_warnings  # warned, not silently wrong

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 3)])
    def test_sampling_guard_flags_a_silent_wrong_winding(self, n, k):
        # 4 or 6 samples miss both turns (winding 0, Routh count 2) with
        # every step under 90 deg; segment k of 1 + L is longer than its
        # distance from the origin, so the locus may have gone round -1 there
        g = log_grid(1, 10000, n)
        l = three_pole(10.0, 100.0, g)
        z = 1.0 + l.samples
        assert np.all(np.abs(np.angle(z[1:] * np.conj(z[:-1]), deg=True)) < 90.0)
        seg = z[k - 1] + np.linspace(0.0, 1.0, 10001) * (z[k] - z[k - 1])
        assert abs(z[k] - z[k - 1]) > np.min(np.abs(seg))
        res = winding_number(l)
        assert res.winding == 0
        assert res.resolution_warnings == ((g.points[k - 1], g.points[k]),)


class TestCriticalIntersection:
    """Gain crossovers inside the critical wedge, through the gate's
    ``summarize_margins`` and ``MarginPolicy.region``."""

    @staticmethod
    def critical(l):
        s = summarize_margins(l, POLICY)
        return s, [c for c in s.crossovers if POLICY.region(c) == "critical"]

    def test_first_order_clean(self, grid_2k):
        s, offenders = self.critical(first_order(2.0, 100.0, grid_2k))
        assert s.verdict == "compliant"
        assert offenders == []

    def test_constant_no_crossings(self, constant_half):
        s, offenders = self.critical(constant_half)
        assert s.verdict == "compliant"
        assert offenders == []

    def test_crossing_in_wedge(self, grid_2k):
        g = grid_2k
        rot = np.exp(1j * math.radians(-110.0))  # crossover angle -170
        l = FrequencyResponse(
            g, rot * 2.0 / (1 + 1j * g.points / 100.0), unit="dimensionless"
        )
        s, offenders = self.critical(l)
        assert s.verdict == "violation"
        gains = [c for c in s.crossovers if c.kind == "gain"]
        assert len(gains) == 1
        assert gains[0] in offenders
        assert gains[0].pm_deg == pytest.approx(10.0, abs=0.01)
