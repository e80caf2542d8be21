import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margingate import speclimit
from margingate.errors import NonFiniteValue, NonpositiveImpedanceMagnitude, OutOfRange
from margingate.freqresp import FrequencyGrid, FrequencyResponse, log_grid
from margingate.margins import CrossoverPoint
from margingate.speclimit import (
    FLAG_PREEXISTING,
    FLAG_R_CAVEAT,
    FLAG_UNCONSTRAINED,
    ComplianceRecord,
    LimitCurve,
    MarginPolicy,
    _limit_rule,
    check_compliance,
    impedance_limit,
    limit_curve,
)

POLICY = MarginPolicy(15.0, 30.0, 15.0)

# crossover frequency, |Z_OWPP2|, Z_limit; all compliant
ROWS_WITHIN_LIMIT = [
    (354.07, 11.22, 201.27),
    (561.60, 1.98, 22.03),
    (997.49, 24.85, 718.59),
    (1324.5, 7.88, 72.0),
    (1370.00, 6.77, 101.72),
    (2414.6, 2.09, 168.71),
]

# crossover frequency, |Z_OWPP2|, Z_limit, expected verdict
ROWS_EXCEEDING_LIMIT = [
    (383.03, 35.57, 44.17, "compliant"),
    (794.76, 70.03, 7.15, "violation"),
    (1075.5, 75.03, 107.76, "compliant"),
    (1628.8, 194.24, 156.76, "violation"),
]


def table_limit_curve(rows) -> LimitCurve:
    # delta_pm of 60 deg makes z_net_old_mag equal the limit (sin 30 = 1/2)
    freqs = tuple(r[0] for r in rows)
    lims = tuple(r[2] for r in rows)
    return LimitCurve(
        freqs=freqs,
        delta_pm_deg=tuple(60.0 for _ in rows),
        z_net_old_mag_ohm=lims,
        r_diag=tuple(None for _ in rows),
    )


def table_z_new(rows) -> FrequencyResponse:
    freqs = [r[0] for r in rows]
    mags = [complex(r[1], 0.0) for r in rows]
    return FrequencyResponse(FrequencyGrid(freqs), mags, unit="ohm", label="Z_OWPP2")


class TestPolicy:
    def test_defaults(self):
        p = MarginPolicy()
        assert (p.pm_min_deg, p.pm_cau_deg, p.gm_min_db) == (15.0, 30.0, 15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarginPolicy(0.0, 30.0, 15.0)
        with pytest.raises(ValueError):
            MarginPolicy(40.0, 30.0, 15.0)
        with pytest.raises(ValueError):
            MarginPolicy(15.0, 180.0, 15.0)
        with pytest.raises(ValueError):
            MarginPolicy(15.0, 30.0, -1.0)
        # an infinite floor would run every stage and then fail to write report.json
        for gm in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"gm_min_db must be >= 0 and finite, got {gm}"):
                MarginPolicy(gm_min_db=gm)

    def test_gm_circle_radius(self):
        assert MarginPolicy().gm_circle_radius == pytest.approx(
            10.0 ** (-15.0 / 20.0), abs=1e-15
        )

    def test_equal_minimum_and_caution_thresholds(self):
        # 0 < pm_min <= pm_cau: equal thresholds are a policy, and a PM at
        # them is compliant; just below is critical
        policy = MarginPolicy(15.0, 15.0, 15.0)
        assert policy.pm_region(15.0) == "compliant"
        assert policy.pm_region(math.nextafter(15.0, 0.0)) == "critical"

    def test_zero_gain_margin_floor(self):
        # gm_min_db >= 0: a 0 dB floor is the unit circle, and a phase
        # crossover at -1 (0 dB) is on it, so compliant
        policy = MarginPolicy(15.0, 30.0, 0.0)
        assert policy.gm_circle_radius == 1.0
        cp = CrossoverPoint("phase", 100.0, -1.0 + 0j)
        assert cp.gm_db == 0.0
        assert policy.region(cp) == "compliant"

    @pytest.mark.parametrize("field", ["pm_min_deg", "pm_cau_deg", "gm_min_db"])
    def test_boolean_threshold_refused(self, field):
        # True == 1 would pass the range checks
        values = {"pm_min_deg": 1.0, "pm_cau_deg": 30.0, "gm_min_db": 15.0, field: True}
        with pytest.raises(ValueError, match="not booleans"):
            MarginPolicy(**values)


class TestPmOldAt:
    """PM_old as ``limit_curve`` reads it off the interpolated L_old: the
    headroom plus PM_min."""

    @staticmethod
    def pm_old_at(l_old, f):
        z_net = FrequencyResponse(l_old.grid, np.ones(len(l_old.grid), complex))
        return limit_curve(l_old, z_net, [f], POLICY).delta_pm_deg[0] + POLICY.pm_min_deg

    def test_constant_angle(self):
        g = log_grid(10, 1000, 20)
        l_old = FrequencyResponse(
            g,
            np.full(20, cmath.exp(-1j * math.radians(120.0))),
            unit="dimensionless",
        )
        assert self.pm_old_at(l_old, 50.0) == pytest.approx(60.0, abs=1e-9)
        assert self.pm_old_at(l_old, 10.0) == pytest.approx(60.0, abs=1e-9)

    def test_minus_180(self):
        g = log_grid(10, 1000, 20)
        l_old = FrequencyResponse(g, np.full(20, -1.0 + 0j), unit="dimensionless")
        assert self.pm_old_at(l_old, 100.0) == pytest.approx(0.0, abs=1e-9)

    def test_out_of_range(self):
        g = log_grid(10, 1000, 20)
        l_old = FrequencyResponse(g, np.ones(20, complex), unit="dimensionless")
        with pytest.raises(OutOfRange):
            self.pm_old_at(l_old, 5.0)


class TestImpedanceLimit:
    def test_sin30_exact(self):
        z_lim, dpm, flags = impedance_limit(10.0, 75.0, POLICY)
        assert dpm == 60.0
        assert z_lim == 10.0  # exactly: sin 30 deg = 1/2
        assert flags == frozenset()

    def test_zero_headroom_flags(self):
        z_lim, dpm, flags = impedance_limit(10.0, 15.0, POLICY)
        assert z_lim is None
        assert dpm == 0.0
        assert flags == frozenset({FLAG_PREEXISTING})
        z_lim2, dpm2, flags2 = impedance_limit(10.0, -30.0, POLICY)
        assert z_lim2 is None and FLAG_PREEXISTING in flags2

    def test_clamp_at_180(self):
        z_lim, dpm, flags = impedance_limit(8.0, 195.0, POLICY)
        assert dpm == 180.0
        assert z_lim == 4.0
        assert flags == frozenset({FLAG_UNCONSTRAINED})

    def test_nonpositive_magnitude(self):
        with pytest.raises(NonpositiveImpedanceMagnitude):
            impedance_limit(0.0, 75.0, POLICY)
        with pytest.raises(NonpositiveImpedanceMagnitude):
            impedance_limit(-3.0, 75.0, POLICY)

    def test_monotone_decreasing_in_headroom(self):
        deltas = np.linspace(1.0, 180.0, 300)
        lims = [impedance_limit(10.0, POLICY.pm_min_deg + d, POLICY)[0] for d in deltas]
        lims = [l for l in lims if l is not None]
        assert all(a > b for a, b in zip(lims, lims[1:]))

    @given(
        st.floats(min_value=0.1, max_value=1e5),
        st.floats(min_value=16.0, max_value=190.0),
        st.floats(min_value=0.1, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance(self, z_mag, pm_old, k):
        base, _, _ = impedance_limit(z_mag, pm_old, POLICY)
        scaled, _, _ = impedance_limit(k * z_mag, pm_old, POLICY)
        assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_geometric_identity(self):
        # |e^{j theta} - 1| == 2|sin(theta/2)| at one-degree steps
        for deg in range(-180, 181):
            theta = math.radians(deg)
            lhs = abs(cmath.exp(1j * theta) - 1.0)
            rhs = 2.0 * abs(math.sin(theta / 2.0))
            assert abs(lhs - rhs) < 1e-12


class TestCompliance:
    def test_table_one_rows_compliant(self):
        limits = table_limit_curve(ROWS_WITHIN_LIMIT)
        records = check_compliance(table_z_new(ROWS_WITHIN_LIMIT), limits)
        assert [r.verdict for r in records] == ["compliant"] * 6
        by_f = {round(r.f_hz, 2): r for r in records}
        assert by_f[354.07].z_new_mag_ohm == pytest.approx(11.22)
        assert by_f[354.07].z_limit_ohm == pytest.approx(201.27)

    def test_table_two_flagged_rows_violate(self):
        limits = table_limit_curve([r[:3] for r in ROWS_EXCEEDING_LIMIT])
        records = check_compliance(table_z_new(ROWS_EXCEEDING_LIMIT), limits)
        verdicts = {round(r.f_hz, 2): r.verdict for r in records}
        assert verdicts[794.76] == "violation"   # 70.03 > 7.15
        assert verdicts[1628.8] == "violation"   # 194.24 > 156.76
        assert verdicts[383.03] == "compliant"
        assert verdicts[1075.5] == "compliant"

    def test_boundary_inclusive(self):
        limits = table_limit_curve([(100.0, 5.0, 5.0), (200.0, 5.0, 5.0)])
        z_new = table_z_new([(100.0, 5.0, None), (200.0, 5.0, None)])
        records = check_compliance(z_new, limits)
        assert all(r.verdict == "compliant" for r in records)

    def test_preexisting_violation_rows(self):
        limits = LimitCurve(
            freqs=(100.0,),
            delta_pm_deg=(-5.0,),
            z_net_old_mag_ohm=(3.0,),
            r_diag=(None,),
        )
        assert limits.flags == (frozenset({FLAG_PREEXISTING}),)
        z_new = table_z_new([(50.0, 1.0, None), (100.0, 1.0, None), (150.0, 1.0, None)])
        records = check_compliance(z_new, limits)
        assert records[0].verdict == "violation"
        assert records[0].z_limit_ohm is None

    def test_out_of_range_frequency(self):
        limits = table_limit_curve([(5000.0, 1.0, 2.0), (6000.0, 1.0, 2.0)])
        z_new = table_z_new([(100.0, 1.0, None), (200.0, 1.0, None)])
        with pytest.raises(OutOfRange):
            check_compliance(z_new, limits)


class TestLimitCurveBuilder:
    def test_r_caveat_flag(self):
        g = log_grid(10, 1000, 200)
        l_old = FrequencyResponse(
            g, np.full(200, cmath.exp(-1j * math.radians(100.0))), unit="dimensionless"
        )
        z_net = FrequencyResponse(g, np.full(200, 10.0 + 0j), unit="ohm")
        # rho near -0.5 makes r = |1+rho| = 0.5 < 1
        ratio = FrequencyResponse(g, np.full(200, -0.5 + 0j), unit="dimensionless")
        lc = limit_curve(l_old, z_net, [100.0], POLICY, ratio)
        assert FLAG_R_CAVEAT in lc.flags[0]
        assert lc.r_diag[0] == pytest.approx(0.5, abs=1e-12)

    def test_r_caveat_boundary(self):
        # the caveat is r < 1: r exactly 1 carries no flag, the float below does
        lc = LimitCurve((100.0, 200.0), (60.0, 60.0), (10.0, 10.0), (1.0, math.nextafter(1.0, 0.0)))
        assert lc.flags == (frozenset(), frozenset({FLAG_R_CAVEAT}))

    def test_limit_rule_runs_once_per_row(self, monkeypatch):
        calls = []

        def counting_rule(*row):
            calls.append(row)
            return _limit_rule(*row)

        monkeypatch.setattr(speclimit, "_limit_rule", counting_rule)
        lc = LimitCurve((100.0, 200.0, 300.0), (60.0, -5.0, 200.0), (10.0, 10.0, 10.0),
                        (None, None, None))
        for _ in range(3):
            assert lc.z_limit_ohm == (10.0, None, 5.0)
            assert lc.flags == (frozenset(), {FLAG_PREEXISTING}, {FLAG_UNCONSTRAINED})
        assert len(calls) == 3

    def test_sorted_and_lengths(self):
        g = log_grid(10, 1000, 100)
        l_old = FrequencyResponse(
            g, np.full(100, cmath.exp(-1j * math.radians(90.0))), unit="dimensionless"
        )
        z_net = FrequencyResponse(g, np.full(100, 7.0 + 0j), unit="ohm")
        lc = limit_curve(l_old, z_net, [500.0, 20.0, 100.0], POLICY)
        assert lc.freqs == (20.0, 100.0, 500.0)
        assert len(lc) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="r_diag length"):
            LimitCurve(freqs=(1.0,), delta_pm_deg=(60.0,), z_net_old_mag_ohm=(10.0,), r_diag=())
        for z_net_old in (0.0, -3.0, math.inf, math.nan):
            with pytest.raises(NonpositiveImpedanceMagnitude):
                LimitCurve((1.0,), (60.0,), (z_net_old,), (None,))
        # a record's verdict is read off its magnitudes: 5 > 4
        assert ComplianceRecord(1.0, 5.0, 4.0).verdict == "violation"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_headroom_is_refused(self, bad):
        # a NaN headroom would give a NaN limit with no flag
        with pytest.raises(NonFiniteValue, match="headroom must be finite"):
            impedance_limit(10.0, bad, MarginPolicy())
        with pytest.raises(NonFiniteValue, match="headroom must be finite"):
            LimitCurve((100.0,), (bad,), (10.0,), (None,))
