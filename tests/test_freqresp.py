import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margingate.errors import (
    DisjointSpans,
    EmptyTable,
    NonFiniteValue,
    NonMonotonicFrequency,
    OutOfRange,
    UnknownHeader,
    ZeroMagnitudeSample,
)
from margingate.fixtures import bundled_case
from margingate.freqresp import (
    FrequencyGrid,
    FrequencyResponse,
    align,
    log_grid,
    normalize_deg,
    parse_response,
    unwrap_phase,
    value_at,
    values_at,
    write_response,
)
from margingate.loopgain import loop_gain, one_plus, rho, update_loop_gain
from margingate.margins import MarginPolicy, decompose_margins, find_crossovers, summarize_margins
from margingate.speclimit import check_compliance, limit_curve


def resp(freqs, samples, **kw):
    return FrequencyResponse(FrequencyGrid(freqs), samples, **kw)


class TestGrid:
    def test_validates_positive_increasing(self):
        FrequencyGrid([1.0, 2.0, 3.0])
        with pytest.raises(NonMonotonicFrequency):
            FrequencyGrid([0.0, 1.0])
        with pytest.raises(NonMonotonicFrequency):
            FrequencyGrid([1.0, 1.0])
        with pytest.raises(NonMonotonicFrequency):
            FrequencyGrid([2.0, 1.0])
        with pytest.raises(NonMonotonicFrequency):
            FrequencyGrid([1.0])
        with pytest.raises(NonFiniteValue):
            FrequencyGrid([1.0, float("nan")])

    def test_immutable(self):
        g = FrequencyGrid([1.0, 2.0])
        with pytest.raises(ValueError):
            g.points[0] = 5.0


class TestParse:
    def test_mag_phase_row(self):
        r = parse_response(b"freq_hz,mag_ohm,phase_deg\n50,1,90\n100,1,0\n")
        assert r.unit == "ohm"
        assert r.samples[0] == pytest.approx(0 + 1j, abs=1e-15)
        assert r.samples[1] == 1 + 0j

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(NonMonotonicFrequency):
            parse_response(b"freq_hz,re_ohm,im_ohm\n50,1,0\n50,2,0\n")

    def test_rect_passthrough(self):
        r = parse_response(b"freq_hz,re_ohm,im_ohm\n100,3,4\n200,1,1\n")
        assert r.samples[0] == 3 + 4j

    def test_dimensionless_headers(self):
        r = parse_response(b"freq_hz,re,im\n1,1,0\n2,2,0\n")
        assert r.unit == "dimensionless"
        r = parse_response(b"freq_hz,mag,phase_deg\n1,2,180\n2,2,0\n")
        assert r.unit == "dimensionless"
        assert r.samples[0] == pytest.approx(-2 + 0j, abs=1e-14)

    def test_metadata_comments(self):
        data = (
            b"# sequence=positive\n# label=Z_OWPP1\n"
            b"# operating_point=P=1 pu, Q=0 pu\n# free-form note\n"
            b"freq_hz,re_ohm,im_ohm\n1,1,0\n2,1,0\n"
        )
        r = parse_response(data)
        assert r.sequence == "positive"
        assert r.label == "Z_OWPP1"
        assert r.operating_point == "P=1 pu, Q=0 pu"

    def test_unknown_header(self):
        with pytest.raises(UnknownHeader):
            parse_response(b"frequency,real,imag\n1,1,0\n")

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            parse_response(b"")
        with pytest.raises(EmptyTable):
            parse_response(b"# only a comment\n")
        with pytest.raises(EmptyTable):
            parse_response(b"freq_hz,re_ohm,im_ohm\n")

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            parse_response(b"freq_hz,re_ohm,im_ohm\n1,nan,0\n2,1,0\n")
        with pytest.raises(NonFiniteValue):
            parse_response(b"freq_hz,re_ohm,im_ohm\n1,inf,0\n2,1,0\n")
        with pytest.raises(NonFiniteValue):
            parse_response(b"freq_hz,re_ohm,im_ohm\n1,abc,0\n2,1,0\n")
        with pytest.raises(NonFiniteValue):
            parse_response(b"freq_hz,re_ohm,im_ohm\n1,1\n2,1,0\n")


class TestWrite:
    def test_round_trip_exact(self):
        r = resp(
            [1.0, 10.0, 100.0],
            [0.1 + 0.3j, -2.5e-7 + 1e9j, 3.14159 - 2.71828j],
            label="x",
            sequence="negative",
            operating_point="P=0.5 pu",
        )
        assert parse_response(write_response(r)) == r

    def test_sequence_comment_emitted(self):
        r = resp([1.0, 2.0], [1, 1], sequence="positive")
        assert b"# sequence=positive" in write_response(r)

    def test_untagged_omits_comment(self):
        r = resp([1.0, 2.0], [1, 1])
        assert b"sequence" not in write_response(r)

    def test_deterministic(self):
        r = resp([1.0, 2.0], [1 + 2j, 3 - 4j])
        assert write_response(r) == write_response(r)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=24,
        ),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, reals, seq_idx):
        n = len(reals) // 2
        freqs = np.geomspace(1.0, 5000.0, n)
        samples = np.array(
            [complex(reals[2 * i], reals[2 * i + 1]) for i in range(n)]
        )
        r = resp(
            freqs,
            samples,
            sequence=("positive", "negative", "untagged")[seq_idx],
            label="rand",
        )
        back = parse_response(write_response(r))
        assert back == r  # 17 significant digits round-trip doubles exactly


class TestValueAt:
    def test_node_exact(self):
        r = resp([1.0, 10.0, 100.0], [1 + 1j, 2 - 3j, 0.5j])
        for f, z in zip(r.grid.points, r.samples):
            assert value_at(r, float(f)) == complex(z)

    def test_log_midpoint_magnitude(self):
        r = resp([1.0, 100.0], [1.0, 100.0])
        v = value_at(r, 10.0)  # log midpoint of [1, 100]
        assert abs(v) == pytest.approx(10.0, rel=1e-12)
        assert v.imag == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range(self):
        r = resp([10.0, 100.0], [1.0, 1.0])
        with pytest.raises(OutOfRange):
            value_at(r, 5.0)
        with pytest.raises(OutOfRange):
            value_at(r, 100.001)

    def test_nan_frequency_out_of_range_by_name(self):
        r = resp([10.0, 100.0, 1000.0], [1.0, 1.0, 1.0])
        with pytest.raises(OutOfRange, match=r"^nan Hz outside span \[10\.0, 1000\.0\] Hz$"):
            values_at(r, [100.0, math.nan])
        with pytest.raises(OutOfRange, match=r"^5\.0 Hz outside span"):
            values_at(r, [100.0, 5.0, 2000.0])
        with pytest.raises(OutOfRange, match="^nan Hz"):
            value_at(r, math.nan)

    @pytest.mark.parametrize("f", [10.0, 5.5])  # on the grid, between points
    def test_values_at_scalar_is_one_element_sequence(self, f):
        r = resp([1.0, 3.0, 10.0, 30.0, 100.0], [1 + 1j, 2 - 3j, 0.5j, -1.0, 2.0])
        out = values_at(r, f)
        assert out.shape == (1,)
        assert out.tolist() == [value_at(r, f)]

    def test_phase_interpolated_unwrapped(self):
        # quarter-turn per decade; interpolation must follow the unwrapped path
        angles = [0.0, -120.0, -240.0]
        r = resp([1.0, 10.0, 100.0], np.exp(1j * np.radians(angles)))
        v = value_at(r, math.sqrt(10.0) * 10.0)  # log-mid of second decade
        ang = math.degrees(math.atan2(v.imag, v.real))
        assert abs(normalize_deg(ang - 180.0)) < 1e-9

    def test_point_readers_build_no_whole_curve_table(self):
        # a read costs O(K log N): on 100,000 points it allocates no table
        g = log_grid(1.0, 1e4, 100_000)
        r = FrequencyResponse(g, 1.0 / (1.0 + 1j * g.points / 100.0))
        values_at(r, [3.3])
        tracemalloc.start()
        try:
            values_at(r, [3.3, 777.7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert "_tables" not in r.__dict__
        # the stages that read curves at the L_new crossovers only; fresh
        # curves, since the bundled ones are shared within the process
        z_ppm, z_net, z_new = (c.with_samples(c.samples) for c in bundled_case("compliant-A"))
        l_old = loop_gain(z_net, z_ppm).response
        ratio = rho(z_net, z_new)
        crossovers = summarize_margins(update_loop_gain(l_old, ratio).response, MarginPolicy())
        assert crossovers.crossovers
        for cp in crossovers.crossovers:
            decompose_margins(l_old, ratio, cp.f_hz, cp.kind)
        freqs = [cp.f_hz for cp in crossovers.crossovers]
        check_compliance(z_new, limit_curve(l_old, z_net, freqs, MarginPolicy(), ratio))
        for curve in (z_net, z_new, one_plus(ratio)):
            assert "_tables" not in curve.__dict__, curve.label

    def test_zero_sample_raises_only_inside_the_bracket(self):
        r = resp([1.0, 2.0, 4.0, 8.0], [1 + 1j, 2.0, 0j, 1j])
        assert values_at(r, [1.5, 4.0]).tolist() == [value_at(r, 1.5), 0j]
        for f in (3.0, 5.0):  # the zero sample ends the bracket
            with pytest.raises(ZeroMagnitudeSample):
                value_at(r, f)
        with pytest.raises(ZeroMagnitudeSample):
            values_at(r, [1.5, 3.0])
        with pytest.raises(ZeroMagnitudeSample):
            find_crossovers(r.with_samples(r.samples, unit="dimensionless"), "gain")

    def test_vectorized_matches_scalar(self):
        g = log_grid(1, 1000, 50)
        r = FrequencyResponse(g, (1 + 0.3j) ** np.arange(50), unit="dimensionless")
        probes = np.geomspace(1.5, 900.0, 37)
        vec = values_at(r, probes)
        for f, v in zip(probes, vec):
            assert v == pytest.approx(value_at(r, float(f)), rel=1e-14)


class TestAlign:
    def test_same_grid_unchanged(self):
        a = resp([1.0, 10.0], [1, 2])
        b = resp([1.0, 10.0], [3, 4])
        out = align([a, b])
        assert out[0] is a and out[1] is b

    def test_common_span_intersection(self):
        a = resp(np.geomspace(1, 1000, 20), np.ones(20))
        b = resp(np.geomspace(10, 2000, 20), np.ones(20))
        out = align([a, b])
        lo, hi = out[0].grid.span
        assert lo == pytest.approx(10.0)
        assert hi == pytest.approx(1000.0)
        assert out[0].grid == out[1].grid

    def test_disjoint(self):
        a = resp([1.0, 10.0], [1, 1])
        b = resp([100.0, 1000.0], [1, 1])
        with pytest.raises(DisjointSpans):
            align([a, b])

    def test_union_keeps_measured_points(self):
        a = resp([1.0, 3.0, 10.0], [1, 1, 1])
        b = resp([2.0, 5.0, 10.0], [1, 1, 1])
        out = align([a, b])
        assert list(out[0].grid.points) == [2.0, 3.0, 5.0, 10.0]

    def test_idempotent(self):
        a = resp(np.geomspace(1, 1000, 10), np.arange(1, 11) * (1 + 1j))
        b = resp(np.geomspace(2, 800, 17), np.ones(17) * 2j)
        once = align([a, b])
        twice = align(once)
        assert all(x is y for x, y in zip(once, twice))

    def test_union_preserves_original_samples_bitwise(self):
        # resampling onto the union leaves every retained measured point
        # bit-for-bit intact
        rng = np.random.default_rng(11)
        a = resp(
            np.geomspace(1, 1000, 15),
            rng.normal(size=15) + 1j * rng.normal(size=15),
        )
        b = resp(
            np.geomspace(2, 500, 9),
            rng.normal(size=9) + 1j * rng.normal(size=9),
        )
        out_a, out_b = align([a, b])
        for orig, aligned in ((a, out_a), (b, out_b)):
            for f, z in zip(orig.grid.points, orig.samples):
                if aligned.grid.points[0] <= f <= aligned.grid.points[-1]:
                    idx = int(np.searchsorted(aligned.grid.points, f))
                    assert aligned.grid.points[idx] == f
                    assert aligned.samples[idx] == z

    def test_span_needs_two_points_of_densest(self):
        dense = resp(np.geomspace(1, 10, 50), np.ones(50))
        # only one point of the dense grid falls inside [9.99, 10]
        narrow = resp([9.99, 10.0, 20.0], np.ones(3))
        with pytest.raises(DisjointSpans):
            align([dense, narrow])
        # with two dense points inside the overlap the alignment succeeds
        wider = resp([dense.grid.points[-2], 10.0, 20.0], np.ones(3))
        out = align([dense, wider])
        assert len(out[0].grid) >= 2


class TestUnwrap:
    def test_constant_phase(self):
        r = resp([1.0, 2.0, 4.0], 2.0 * np.exp(-1j * np.radians(30.0)) * np.ones(3))
        ps = unwrap_phase(r)
        assert np.allclose(ps, -30.0, atol=1e-12)

    def test_minimal_step_rule(self):
        r = resp([1.0, 2.0], np.exp(1j * np.radians([-179.0, 179.0])))
        ps = unwrap_phase(r)
        assert ps == pytest.approx([-179.0, -181.0], abs=1e-12)

    def test_three_pole_closed_form(self):
        g = log_grid(1, 10000, 4000)
        r = FrequencyResponse(
            g, 10.0 / (1 + 1j * g.points / 100.0) ** 3, unit="dimensionless"
        )
        ps = unwrap_phase(r)
        expected = -3.0 * np.degrees(np.arctan(g.points / 100.0))
        assert np.max(np.abs(ps - expected)) < 1e-9
        assert np.all(np.diff(ps) < 0)  # monotonically decreasing
        assert ps[0] == pytest.approx(0.0, abs=2.0)
        assert ps[-1] == pytest.approx(-270.0, abs=2.0)

    def test_zero_magnitude_rejected(self):
        r = resp([1.0, 2.0], [0j, 1 + 0j])
        with pytest.raises(ZeroMagnitudeSample):
            unwrap_phase(r)

    def test_mod_360_matches_principal(self):
        rng = np.random.default_rng(7)
        g = log_grid(1, 1000, 300)
        z = np.exp(1j * np.cumsum(rng.uniform(-2.0, 2.0, 300)))
        r = FrequencyResponse(g, z, unit="dimensionless")
        ps = unwrap_phase(r)
        principal = np.degrees(np.angle(z))
        delta = np.abs((ps - principal + 180.0) % 360.0 - 180.0)
        assert np.max(delta) < 1e-9

    def test_returns_the_read_only_interpolation_table(self):
        r = resp([1.0, 2.0, 4.0], np.exp(1j * np.radians([170.0, -170.0, -150.0])))
        ps = unwrap_phase(r)
        assert ps == pytest.approx([170.0, 190.0, 210.0], abs=1e-12)
        with pytest.raises(ValueError):  # the crossover search cannot be corrupted
            ps[0] = 0.0
        before = [cp.f_hz for cp in find_crossovers(r, "phase")]  # through 180 deg
        assert len(before) == 1
        for arr in (ps, r.grid.points, r.samples):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the phase handle is a copy: even made writeable, it does not
        # reach the table the crossover search solves on
        ps.setflags(write=True)
        ps[:] = 0.0
        assert [cp.f_hz for cp in find_crossovers(r, "phase")] == before


class TestNormalize:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0.0), (180.0, 180.0), (-180.0, 180.0), (225.0, -135.0), (360.0, 0.0), (540.0, 180.0)],
    )
    def test_values(self, x, expected):
        assert normalize_deg(x) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_range_and_congruence(self, x):
        y = normalize_deg(x)
        assert -180.0 < y <= 180.0
        assert math.isclose(
            math.cos(math.radians(x)), math.cos(math.radians(y)), abs_tol=1e-9
        )
        assert math.isclose(
            math.sin(math.radians(x)), math.sin(math.radians(y)), abs_tol=1e-9
        )
