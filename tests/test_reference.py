"""The crossover root, the curve evaluator, the winding count, the
network evaluator and the blocked assessment stages against the code
they replaced.

``bisect_level`` (a bisection on the interpolant, now evaluated in exact
arithmetic), ``mirrored_winding_number`` (the count on an explicitly
mirrored contour, with its segment-distance helper) and
``reference_scale_network`` (the per-type scaling) are kept as
references. So is ``table_value_at``, the interpolant on the whole-curve
tables of ``whole_curve_tables`` (log f, log|Z| and the unwrapped phase)
that ``value_at`` read before it read only the two samples around a
frequency; ``scalar_value_at`` is a scalar copy of that bracket rule.
``per_crossover_decompose`` is the decomposition that read L_old and 1+rho
once per crossover, before one call read them at every crossover.
``reference_eval_tree`` (the network evaluator that built a
fresh array at every node) is kept too, with ``reference_par`` giving each
Parallel node the admittance rule whole-grid and unblocked: all children
evaluated, then 1 / sum_k Y_k with Y_k = conj(Z_k) / |Z_k|^2. So is
``whole_grid_consistency_error`` (the consistency check between two whole
loop-gain curves), which ``whole_grid_report`` runs on a direct L_new
built whole to assess a case with no stage blocked, and
``whole_grid_update`` (the loop-gain update through a whole-grid 1+rho
and its reciprocal), which it runs for L_new. A scaled tree
must equal its reference and serialise to the same bytes, and a case its
whole-grid report in every format, byte for byte.
The winding count must match its reference exactly, warnings included,
once the sampling guard's warnings (which the reference predates) are
added to the reference's; its minimum distance to -1, which it scans on
the positive segments only, is within 4 ulps of the reference's. The
network evaluator must match its reference byte for byte and raise the
same error with the same message. That rests on numpy's complex
arithmetic: a product or quotient whose operand has a zero real or
imaginary part rounds exactly like the real operation it reduces to, and
a sum is componentwise.
The other tolerances follow from float64 rounding alone (eps = 2**-52)
and were set before the closed form and the array evaluator were written:

* A root u of the line through (u_lo, y_lo) and (u_hi, y_hi) at level c
  is known to 4 eps (max(|u_lo|, |u_hi|) + max(|y_lo|, |y_hi|, |c|) (u_hi -
  u_lo) / |y_hi - y_lo|): the first term rounds u itself, the second is
  the rounding of y near the root carried to u through the slope. Below
  the smallest normal float64, y and the products made from it round to
  an absolute 2**-1075 instead, so a third term, 4 * 2**-1074 (u_hi -
  u_lo) / |y_hi - y_lo|, carries that floor through the slope.
* Both evaluators return the stored sample on a grid point; between
  points they round exp, cos and sin, so they agree within 4 eps relative.
* The whole-table interpolant agrees with the bracket rule within 8 eps
  (each rounds exp, cos and sin) plus the phase by which the table has
  drifted from each bracket end's principal phase (plus whole turns), the
  rounding its running sum of steps carries, plus 4 eps of the larger
  phase at the two ends, which each side rounds.
"""
import dataclasses
import functools
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from margingate.cli import _ASSERTED_PRECONDITIONS, RunConfig, StageFailure, run_assessment
from margingate.errors import (
    AmbiguousWinding,
    CriticalPointOnLocus,
    MarginGateError,
    OutOfRange,
    ResonanceSingular,
    SingularAtFrequency,
    SingularSensitivity,
    ZeroMagnitudeSample,
)
from margingate.freqresp import (
    _BLOCK_POINTS,
    FrequencyGrid,
    FrequencyResponse,
    log_grid,
    principal_angle_deg,
    unwrap_phase,
    value_at,
)
from margingate.loopgain import (
    _SENSITIVITY_ATOL,
    consistency_error,
    loop_gain,
    one_plus,
    rho,
    update_loop_gain,
)
from margingate.margins import (
    MarginDecomposition,
    MarginPolicy,
    MarginSummary,
    _detect_levels,
    _level_root,
    decompose_margins,
    pm_deg,
    summarize_margins,
)
from margingate.netsynth import (
    CASE_LABELS,
    Capacitor,
    Inductor,
    NetworkElement,
    Parallel,
    Rational,
    Resistor,
    Series,
    Thevenin,
    eval_network,
    network_from_obj,
    network_to_json,
    network_to_obj,
    par,
    random_case,
    scale_network,
)
from margingate.regions import (
    _CLOSURE_WARN_DIST,
    _CRITICAL_ATOL,
    _STEP_WARN_DEG,
    _WINDING_RESIDUAL,
    EncirclementResult,
    winding_number,
)
from margingate.report import FORMATS, build_report, render
from margingate.speclimit import LimitCurve, check_compliance, limit_curve

from conftest import three_pole
from test_golden import GOLDEN, case_curves

EPS = np.finfo(float).eps
TINY = 2.0**-1074  # the smallest subnormal float64
_BISECT_MAX_ITER = 200


def bisect_level(
    u_lo: float, u_hi: float, y_lo: float, y_hi: float, level: float
) -> float:
    """Root of the linear interpolant y(u) = level inside [u_lo, u_hi].

    Bisection on the interpolant; robust to the kinks of piecewise-linear
    data and converges far below the 1e-9 relative target. The interpolant
    is evaluated in exact rational arithmetic, so the root is the float
    bracket of the exact one: a float slope between subnormal values rounds
    to an absolute 2**-1075, which moved the root by that error times
    u - u_lo, beyond the tolerance.
    """
    a, b = u_lo, u_hi
    slope = (Fraction(y_hi) - Fraction(y_lo)) / (Fraction(b) - Fraction(a))

    def val(u: float) -> Fraction:
        return Fraction(y_lo) + (Fraction(u) - Fraction(a)) * slope - Fraction(level)

    lo, hi = a, b
    f_lo = val(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = val(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_value_at(resp: FrequencyResponse, f: float) -> complex:
    """Evaluate the curve at ``f`` Hz.

    Returns the stored sample bit-for-bit when ``f`` is a grid point.
    Between points, log-magnitude and phase are interpolated linearly in
    log-frequency (Bode-plot behavior) and recombined: the phase runs from
    the lower sample's principal phase by the step, wrapped to [-180, 180),
    to the upper sample's. No extrapolation: ``f`` outside the grid span
    raises ``OutOfRange``.

    log|z| and the principal phase come from numpy's abs, log and arctan2,
    as ``whole_curve_tables`` reads them: libm differs from these by an ulp
    now and then, and an ulp of a phase near 180 deg is 2.2 eps of z.
    """
    g = resp.grid.points
    if not (g[0] <= f <= g[-1]):
        raise OutOfRange(f"{f} Hz outside span [{g[0]}, {g[-1]}] Hz")
    i = int(np.searchsorted(g, f))
    if g[i] == f:
        return complex(resp.samples[i])
    z = resp.samples[i - 1:i + 1]
    if not np.all(z):
        raise ZeroMagnitudeSample(f"zero-magnitude sample next to {f} Hz")
    (y_lo, y_hi), (p_lo, p_hi) = np.log(np.abs(z)).tolist(), np.degrees(np.angle(z)).tolist()
    step = p_hi - p_lo
    step -= 360.0 * math.floor((step + 180.0) / 360.0)
    u_lo, u_hi = math.log(g[i - 1]), math.log(g[i])
    x = math.log(f) - u_lo
    m = math.exp((y_hi - y_lo) / (u_hi - u_lo) * x + y_lo)
    p = math.radians(step / (u_hi - u_lo) * x + p_lo)
    return complex(m * math.cos(p), m * math.sin(p))


def whole_curve_tables(curve: FrequencyResponse):
    """(log f, log|Z|, unwrapped phase deg) over the whole curve: the series
    the crossover search solves on, over the log frequencies it interpolates
    in."""
    return np.log(curve.grid.points), np.log(np.abs(curve.samples)), unwrap_phase(curve)


def table_value_at(resp: FrequencyResponse, freqs) -> np.ndarray:
    """The interpolant on whole-curve tables: log|Z| and the phase unwrapped
    along the whole curve, read with ``np.interp`` (grid points excluded)."""
    logf, logmag, phase = whole_curve_tables(resp)
    x = np.log(freqs)
    m = np.exp(np.interp(x, logf, logmag))
    p = np.radians(np.interp(x, logf, phase))
    return m * np.cos(p) + 1j * m * np.sin(p)


def root_tolerance(u_lo, u_hi, y_lo, y_hi, c) -> float:
    scale = max(abs(y_lo), abs(y_hi), abs(c)) * (u_hi - u_lo) / abs(y_hi - y_lo)
    underflow = TINY / abs(y_hi - y_lo) * (u_hi - u_lo)
    return 4.0 * (EPS * (max(abs(u_lo), abs(u_hi)) + scale) + underflow)


def check_bracket(*bracket):
    u_lo, u_hi, y_lo, y_hi, c = map(float, bracket)
    u = float(_level_root(u_lo, u_hi, y_lo, y_hi, c))
    ref = bisect_level(u_lo, u_hi, y_lo, y_hi, c)
    assert abs(u - ref) <= root_tolerance(u_lo, u_hi, y_lo, y_hi, c), (
        u_lo, u_hi, y_lo, y_hi, c, u, ref
    )


def check_roots_in_brackets(y, levels, g) -> int:
    """Every detected root lies in a bracket of its level; returns the count."""
    roots = np.asarray(_detect_levels(y, levels, g))
    expected = 0
    for c in levels:
        r = y - c
        s = np.sign(r)
        expected += int(np.count_nonzero(r == 0.0))
        expected += int(np.count_nonzero(s[:-1] * s[1:] < 0.0))
    assert roots.size == expected
    i = np.clip(np.searchsorted(g, roots) - 1, 0, g.size - 2)
    assert np.all((g[i] <= roots) & (roots <= g[i + 1]))
    return expected


# -- crossover roots -----------------------------------------------------------

_F = st.floats(min_value=1e-3, max_value=1e6)  # grid frequencies in Hz
_Y = st.floats(min_value=-1e3, max_value=1e3)


@st.composite
def brackets(draw):
    """(g, y, c): two grid frequencies, and y strictly on both sides of c."""
    g = np.array(sorted(draw(st.lists(_F, min_size=2, max_size=2, unique=True))))
    assume(np.log(g[0]) < np.log(g[1]))
    lo, c, hi = sorted(draw(st.lists(_Y, min_size=3, max_size=3, unique=True)))
    return g, np.array([lo, hi] if draw(st.booleans()) else [hi, lo]), c


_SUBNORMAL_Y = np.array([2.225073858507e-311, -2.225073858507e-311])


@given(brackets())
@example((np.array([1.0, 2.0]), _SUBNORMAL_Y, 0.0))
@example((np.array([1.0, 258.0]), _SUBNORMAL_Y, 0.0))
@example((np.array([0.25, 56406.0]), np.array([-2.225073858507e-311, 2.2250738585e-313]), 0.0))
@settings(max_examples=500, deadline=None)
def test_root_matches_bisection_inside_its_bracket(bracket):
    g, y, c = bracket
    logf = np.log(g)
    check_bracket(logf[0], logf[1], y[0], y[1], c)
    assert check_roots_in_brackets(y, [c], g) == 1


def test_grid_points_on_the_level_are_exact_roots():
    g = np.array([1.0, 10.0, 100.0, 1000.0])
    y = np.array([-1.0, 0.0, 2.0, -2.0])
    roots = sorted(_detect_levels(y, [0.0], g))
    assert roots[0] == 10.0
    assert len(roots) == 2 and 100.0 < roots[1] < 1000.0


def reference_detect_levels(y, levels, grid_pts) -> list[float]:
    """The level search as it was: exact roots where y - c is zero, and
    brackets where the signs of y - c at two neighbours multiply below 0."""
    roots: list[float] = []
    for c in levels:
        r = y - c
        roots.extend(grid_pts[r == 0.0].tolist())
        s = np.sign(r)
        i = np.flatnonzero(s[:-1] * s[1:] < 0.0)
        g_lo, g_hi = grid_pts[i], grid_pts[i + 1]
        u = _level_root(np.log(g_lo), np.log(g_hi), y[i], y[i + 1], c)
        roots.extend(np.clip(np.exp(u), g_lo, g_hi).tolist())
    return roots


_LEVELS = [0.0] + [-180.0 + 360.0 * k for k in range(-3, 4)]


@st.composite
def level_samples(draw):
    """(y, c): samples around a level c that hit it, straddle it by an ulp,
    hold signed zeros and subnormals, or reach 1e300."""
    c = draw(st.sampled_from(_LEVELS))
    near = [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf), 0.0, -0.0, TINY, -TINY]
    value = st.one_of(
        st.sampled_from(near),
        st.floats(-1e300, 1e300),
        st.floats(-2.0**-1022, 2.0**-1022),  # subnormals and the zeros
        st.floats(-720.0, 720.0),
    )
    return np.array(draw(st.lists(value, min_size=2, max_size=40))), c


@given(level_samples())
@example((np.array([0.0, -0.0, TINY, -TINY, 0.0]), 0.0))
@example((np.array([np.nextafter(-180.0, 0.0), -180.0, np.nextafter(-180.0, -1e3)]), -180.0))
@settings(max_examples=500, deadline=None)
def test_level_detection_matches_sign_products(samples):
    y, c = samples
    g = np.geomspace(1.0, 1e4, y.size)
    assert _detect_levels(y, [c], g) == reference_detect_levels(y, [c], g)


def fixture_loop_gains(name):
    z_ppm, z_net, z_new = case_curves(name)
    l_old = loop_gain(z_net, z_ppm).response
    ratio = rho(z_net, z_new)
    return l_old, update_loop_gain(l_old, ratio).response, ratio


def curve_levels(curve):
    """Every (y, levels) pair the crossover search solves on a curve."""
    logf, logmag, phase = whole_curve_tables(curve)
    k_min = math.ceil((float(phase.min()) + 180.0) / 360.0)
    k_max = math.floor((float(phase.max()) + 180.0) / 360.0)
    phase_levels = [-180.0 + 360.0 * k for k in range(k_min, k_max + 1)]
    return logf, ((logmag, [0.0]), (phase, phase_levels))


# the golden cases (random_case seeds 0-9 among them) and 50 more seeds
@pytest.mark.parametrize("name", list(GOLDEN) + [f"seed-{s}" for s in range(10, 60)])
def test_fixture_brackets_match_bisection(name):
    n = 0
    for curve in fixture_loop_gains(name)[:2]:
        logf, pairs = curve_levels(curve)
        g = curve.grid.points
        for y, levels in pairs:
            n += check_roots_in_brackets(y, levels, g)
            for c in levels:
                s = np.sign(y - c)
                for i in np.flatnonzero(s[:-1] * s[1:] < 0.0):
                    check_bracket(logf[i], logf[i + 1], y[i], y[i + 1], c)
    assert n > 0


# -- curve evaluation ----------------------------------------------------------

def fixture_curves(name):
    l_old, l_new, ratio = fixture_loop_gains(name)
    return (*case_curves(name), l_old, l_new, one_plus(ratio))


def one_value_at(resp: FrequencyResponse, f: float) -> complex:
    """The curve read at the one frequency ``f``, as the per-crossover
    decomposition read it."""
    return complex(value_at(resp, [f])[0])


@pytest.mark.parametrize("name", list(GOLDEN))
def test_value_at_matches_scalar_reference(name):
    rng = np.random.default_rng(7)
    for curve in fixture_curves(name):
        g = curve.grid.points
        for f in g[rng.choice(g.size, 50, replace=False)].tolist() + [g[0], g[-1]]:
            assert one_value_at(curve, f) == scalar_value_at(curve, f)
        probes = rng.uniform(g[0], g[-1], 200)
        probes = probes[~np.isin(probes, g)]
        for f in probes.tolist():
            ref = scalar_value_at(curve, f)
            assert abs(one_value_at(curve, f) - ref) <= 4.0 * EPS * abs(ref), f


@pytest.mark.parametrize("name", list(GOLDEN))
def test_values_at_matches_the_whole_table_interpolant(name):
    # the table's phase is a running sum of steps, which drifts from each
    # sample's principal phase plus whole turns; the bracket rule's does not
    rng = np.random.default_rng(13)
    for curve in fixture_curves(name):
        g = curve.grid.points
        probes = rng.uniform(g[0], g[-1], 2000)
        probes = probes[~np.isin(probes, g)]
        got, ref = value_at(curve, probes), table_value_at(curve, probes)
        phase = whole_curve_tables(curve)[2]
        turns = phase - np.degrees(np.angle(curve.samples))
        drift = np.abs(turns - 360.0 * np.round(turns / 360.0))
        hi = np.searchsorted(g, probes)
        lo = hi - 1
        slack_deg = np.maximum(drift[lo], drift[hi]) + 4.0 * EPS * np.maximum(
            np.abs(phase[lo]), np.abs(phase[hi])
        )
        bound = (8.0 * EPS + np.radians(slack_deg)) * np.abs(ref)
        assert np.all(np.abs(got - ref) <= bound), curve.label


@pytest.mark.parametrize("name", list(GOLDEN))
def test_values_at_is_value_at_per_point(name):
    rng = np.random.default_rng(11)
    for curve in fixture_curves(name):
        g = curve.grid.points
        fs = np.concatenate((rng.uniform(g[0], g[-1], 300), g[:: max(1, g.size // 50)]))
        vec = value_at(curve, fs)
        assert vec.tolist() == [one_value_at(curve, f) for f in fs.tolist()]


# -- margin decomposition ------------------------------------------------------

def per_crossover_decompose(
    l_old: FrequencyResponse, ratio: FrequencyResponse, f: float, kind: str
) -> MarginDecomposition:
    """Margins at ``f`` expressed through the pre-connection loop gain.

    Interpolates L_old and the curve 1+rho at ``f`` and stores the terms;
    the identities against the direct computation on L_new hold to float
    rounding. The stored pm_old_newgc does not assume |L_old| = 1 at ``f``.
    """
    if kind not in ("gain", "phase"):
        raise ValueError(f"kind must be gain or phase, got {kind!r}")
    l_o = one_value_at(l_old, f)          # OutOfRange if f outside span
    opr = one_value_at(one_plus(ratio), f)
    if abs(opr) <= _SENSITIVITY_ATOL:
        raise SingularSensitivity(f"|1+rho| vanishes at {f} Hz")
    return MarginDecomposition(
        f_hz=f,
        kind=kind,
        pm_old_newgc_deg=pm_deg(l_o),
        angle_one_plus_rho_deg=principal_angle_deg(opr),
        abs_one_plus_rho=abs(opr),
        l_old_mag=abs(l_o),
    )


def record_bits(d: MarginDecomposition) -> tuple:
    """A decomposition's fields, each float as its exact hex spelling."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(d))


# the golden cases (random_case seeds 0-9 among them) and 50 more seeds
@pytest.mark.parametrize("name", list(GOLDEN) + [f"seed-{s}" for s in range(10, 60)])
def test_batched_decomposition_matches_per_crossover_reference(name):
    l_old, l_new, ratio = fixture_loop_gains(name)
    points = [(cp.f_hz, cp.kind) for cp in summarize_margins(l_new, MarginPolicy()).crossovers]
    if name == "converter":
        assert {kind for _, kind in points} == {"gain", "phase"}
    got = decompose_margins(l_old, ratio, points)
    want = [per_crossover_decompose(l_old, ratio, f, kind) for f, kind in points]
    assert isinstance(got, tuple)
    assert list(map(record_bits, got)) == list(map(record_bits, want))


def test_batched_decomposition_refuses_a_vanishing_one_plus_rho_as_the_reference():
    l_old, _, ratio = fixture_loop_gains("compliant-A")
    g = ratio.grid.points
    samples = ratio.samples.copy()
    samples[700] = -1.0  # 1+rho is exactly 0 at a grid point, which reads as stored
    vanishing = FrequencyResponse(ratio.grid, samples, unit="dimensionless")
    points = [(float(g[100]), "gain"), (float(g[700]), "phase"), (float(g[1500]), "gain")]
    with pytest.raises(SingularSensitivity) as want:
        for f, kind in points:
            per_crossover_decompose(l_old, vanishing, f, kind)
    with pytest.raises(SingularSensitivity) as got:
        decompose_margins(l_old, vanishing, points)
    assert str(got.value) == str(want.value)
    assert decompose_margins(l_old, ratio, []) == ()



# -- winding count -------------------------------------------------------------

def _segment_min_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from the origin to each segment [a_i, b_i]."""
    d = b - a
    l2 = np.abs(d) ** 2
    t = np.zeros(a.shape)
    nz = l2 > 0.0
    t[nz] = np.clip(-np.real(a[nz] * np.conj(d[nz])) / l2[nz], 0.0, 1.0)
    return np.abs(a + t * d)


def mirrored_winding_number(l: FrequencyResponse) -> EncirclementResult:
    """Count encirclements of -1+0j by the loop-gain locus.

    Sums principal angle increments of L+1 along positive frequencies,
    mirrors the locus by conjugate symmetry for negative frequencies and
    closes the contour with straight segments at both ends. The angle sum
    must resolve to an integer number of turns within 0.01, else
    ``AmbiguousWinding``.
    """
    z = l.samples + 1.0
    if float(np.min(np.abs(z))) <= _CRITICAL_ATOL:
        raise CriticalPointOnLocus("a locus sample coincides with -1+0j")

    g = l.grid.points
    n = g.size
    # traversal: omega from -f_max up to -f_min, across zero, f_min to f_max
    verts = np.concatenate([np.conj(z[::-1]), z])
    steps = np.degrees(np.angle(verts[1:] * np.conj(verts[:-1])))
    closing = math.degrees(
        math.atan2(
            (verts[0] * np.conj(verts[-1])).imag,
            (verts[0] * np.conj(verts[-1])).real,
        )
    )
    total = float(np.sum(steps)) + closing

    turns = -total / 360.0
    winding = round(turns)
    residual = abs(turns - winding)
    if residual >= _WINDING_RESIDUAL:
        raise AmbiguousWinding(
            f"angle sum {total:.3f} deg is not an integer number of turns"
        )

    # step index -> frequency interval of the traversal
    def interval(j: int) -> tuple[float, float]:
        if j < n - 1:  # mirrored branch, |omega| decreasing
            return float(g[n - 2 - j]), float(g[n - 1 - j])
        if j == n - 1:  # zero-frequency closure
            return 0.0, float(g[0])
        return float(g[j - n]), float(g[j - n + 1])  # positive branch

    warn: set[tuple[float, float]] = set()
    for j in np.flatnonzero(np.abs(steps) > _STEP_WARN_DEG):
        warn.add(interval(int(j)))
    if abs(closing) > _STEP_WARN_DEG:
        warn.add((float(g[-1]), math.inf))

    # closure segments near the critical point
    seg_lo = _segment_min_dist(verts[n - 1 : n], verts[n : n + 1])
    if float(seg_lo[0]) < _CLOSURE_WARN_DIST:
        warn.add((0.0, float(g[0])))
    seg_hi = _segment_min_dist(verts[-1:], verts[:1])
    if float(seg_hi[0]) < _CLOSURE_WARN_DIST:
        warn.add((float(g[-1]), math.inf))

    min_dist = float(np.min(_segment_min_dist(verts, np.roll(verts, -1))))

    return EncirclementResult(
        winding=int(winding),
        min_distance_to_critical_point=min_dist,
        resolution_warnings=tuple(sorted(warn)),
    )


def winding_outcome(count, l):
    """The result of a winding count, or the type of the exception it raised."""
    try:
        return count(l)
    except (AmbiguousWinding, CriticalPointOnLocus) as exc:
        return type(exc)


def winding_loci():
    """L_old and L_new of the golden cases and 50 more seeds, two three-pole
    loci (one that encircles twice, one sampled too coarsely) and a constant
    locus, whose segments all have zero length."""
    for name in list(GOLDEN) + [f"seed-{s}" for s in range(10, 60)]:
        yield from fixture_loop_gains(name)[:2]
    grid = log_grid(1.0, 10000.0, 2000)
    yield three_pole(10.0, 100.0, grid)
    yield three_pole(10.0, 100.0, log_grid(1.0, 10000.0, 10))
    yield FrequencyResponse(grid, np.full(len(grid), 0.5 + 0j), unit="dimensionless")


def sampling_guard(l) -> set:
    """Intervals of the positive segments of 1 + L that are longer than
    their distance from the origin."""
    z = l.samples + 1.0
    g = l.grid.points
    long = np.abs(z[1:] - z[:-1]) > _segment_min_dist(z[:-1], z[1:])
    return {(float(g[k]), float(g[k + 1])) for k in np.flatnonzero(long)}


# the mirrored reference reaches each segment's distance from its other
# end too; either way the closest point takes about four roundings
_DIST_ULPS = 4


def test_winding_matches_mirrored_reference():
    outcomes = []
    guarded = 0
    for l in winding_loci():
        out = winding_outcome(winding_number, l)
        ref = winding_outcome(mirrored_winding_number, l)
        if isinstance(ref, EncirclementResult):
            warn, guard = set(ref.resolution_warnings), sampling_guard(l)
            guarded += not guard <= warn
            ref = dataclasses.replace(ref, resolution_warnings=tuple(sorted(warn | guard)))
            got, want = out.min_distance_to_critical_point, ref.min_distance_to_critical_point
            assert abs(got - want) <= _DIST_ULPS * math.ulp(want), l.label
            out = dataclasses.replace(out, min_distance_to_critical_point=want)
        assert out == ref, l.label
        outcomes.append(out)
    results = [o for o in outcomes if isinstance(o, EncirclementResult)]
    # the equality must cover the nonzero-winding and warning paths, and
    # a locus where the sampling guard adds a warning
    assert any(r.winding != 0 for r in results)
    assert any(r.resolution_warnings for r in results)
    assert guarded >= 1


def test_tie_step_wraps_to_minus_180():
    # L = [0, -2]: the segment of 1 + L from 1 to -1 passes through the
    # origin, a step of exactly 180 deg. The reference takes it as +180,
    # the one phase-step rule as -180; either nonzero count is a violation.
    l = FrequencyResponse(FrequencyGrid([1.0, 2.0]), [0j, -2 + 0j], unit="dimensionless")
    new, old = winding_number(l), mirrored_winding_number(l)
    assert (new.winding, old.winding) == (1, -1)
    for res in (new, old):
        assert res.min_distance_to_critical_point == 0.0
        assert res.resolution_warnings == ((1.0, 2.0),)
        quiet = MarginSummary((), MarginPolicy())
        report = build_report(
            {}, quiet, quiet, (), LimitCurve((), (), (), ()), (), {"l_new": res}, 0.0
        )
        assert report.overall_verdict == "violation"


# -- network evaluation --------------------------------------------------------

_SINGULAR_RTOL = 1e-12


def reference_par(zs, f=None):
    """Parallel combination 1 / sum_k Y_k of the impedances ``zs``, with
    Y_k = conj(Z_k) / |Z_k|^2 in real arithmetic, on the whole grid.

    Raises ``ResonanceSingular`` where |Z_k|^2 is zero for some branch or
    where |sum_k Y_k| <= 1e-12 * max_k |Y_k|, naming the first such
    frequency of ``f``.
    """
    zs = [np.asarray(z, dtype=complex) for z in zs]
    d = [z.real * z.real + z.imag * z.imag for z in zs]
    short = np.min(d, axis=0) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = functools.reduce(operator.add, [z.real / dk for z, dk in zip(zs, d)])
        s = functools.reduce(operator.add, [z.imag / dk for z, dk in zip(zs, d)])
        y_max = np.max([1.0 / np.sqrt(dk) for dk in d], axis=0)
    bad = short | (np.hypot(g, s) <= _SINGULAR_RTOL * y_max)
    if np.any(bad):
        i = np.argmax(bad)
        near = "" if f is None else f" near {np.ravel(f)[i]} Hz"
        if np.ravel(short)[i]:
            raise ResonanceSingular(f"parallel branch has |Z| ~ 0{near}")
        raise ResonanceSingular(f"parallel branches cancel: |sum of 1/Z| ~ 0{near}")
    dsum = g * g + s * s
    out = np.empty(np.shape(g), dtype=complex)
    out.real, out.imag = g / dsum, s / dsum
    return complex(out) if out.ndim == 0 else out


def reference_eval_tree(desc: NetworkElement, f: np.ndarray) -> np.ndarray:
    w = 2.0 * math.pi * f
    if isinstance(desc, Resistor):
        return np.full(f.size, desc.r_ohm, dtype=complex)
    if isinstance(desc, Inductor):
        return 1j * w * desc.l_henry
    if isinstance(desc, Capacitor):
        return 1.0 / (1j * w * desc.c_farad)
    if isinstance(desc, Thevenin):
        return desc.r_ohm + 1j * w * desc.l_henry
    if isinstance(desc, Rational):
        s = 1j * w
        for p in desc.poles_rad_s:
            close = np.abs(s - p) <= _SINGULAR_RTOL * np.maximum(np.abs(s), abs(p))
            if np.any(close):
                f_bad = f[np.argmax(close)]
                raise SingularAtFrequency(
                    f"rational pole {p} on the evaluated axis near {f_bad} Hz"
                )
        num = np.full(f.size, desc.gain, dtype=complex)
        for z in desc.zeros_rad_s:
            num *= s - z
        den = np.ones(f.size, dtype=complex)
        for p in desc.poles_rad_s:
            den *= s - p
        return num / den
    if isinstance(desc, Series):
        acc = reference_eval_tree(desc.children[0], f)
        for child in desc.children[1:]:
            acc = acc + reference_eval_tree(child, f)
        return acc
    if isinstance(desc, Parallel):
        branches = [reference_eval_tree(child, f) for child in desc.children]
        try:
            return reference_par(branches, f)
        except ResonanceSingular as exc:
            raise SingularAtFrequency(str(exc)) from None
    raise ValueError(f"unknown network element {type(desc).__name__}")


def eval_outcome(evaluate):
    """The bytes an evaluation returns, or the type and message it raised."""
    try:
        return evaluate().tobytes()
    except (ResonanceSingular, SingularAtFrequency) as exc:
        return type(exc), str(exc)


def assert_same_evaluation(desc, grid):
    got = eval_outcome(lambda: eval_network(desc, grid).samples)
    assert got == eval_outcome(lambda: reference_eval_tree(desc, grid.points))
    return got


_GRIDS = (log_grid(1.0, 10000.0, 2000), log_grid(10.0, 5000.0, 777), log_grid(0.1, 1e6, 64))
_BIQUAD = Rational(
    3.0, (complex(-300.0, 2000.0), complex(-300.0, -2000.0)),
    (complex(-500.0, 4000.0), complex(-500.0, -4000.0)),
)
_LEAVES = (
    Resistor(2.5),
    Inductor(3e-3),
    Capacitor(47e-6),
    Thevenin(66e3, 1e9, 8.0),
    _BIQUAD,
    Rational(-40.0, (0j,), (complex(-900.0, 1200.0), complex(-900.0, -1200.0))),
)


def mixed_trees():
    """Every element type, Parallel inside Series and Series inside Parallel,
    three levels deep."""
    r, l, c, th, bq, conv = _LEAVES
    tank = Parallel((Series((r, l)), c))
    yield Series((th, tank, bq))
    yield Parallel((Series((r, l, c)), Series((conv, Inductor(1e-3))), th))
    yield Series((Parallel((tank, Series((Resistor(0.4), c)))), conv, l))
    yield Parallel((Series((Parallel((l, c, r)), bq)), Series((th, tank)), Capacitor(5e-6)))
    yield Series((bq, r, c))  # a Rational first, then a resistor's +0.0 reactance
    yield Series((Resistor(0.4), tank, c))  # lumped leaves and a Parallel, none inductive


@pytest.mark.parametrize("grid", _GRIDS, ids=len)
def test_mixed_trees_match_reference(grid):
    for desc in mixed_trees():
        assert isinstance(assert_same_evaluation(desc, grid), bytes)


def test_overflowing_capacitors_keep_the_sign_of_a_zero_reactance():
    # above about 1e6 Hz, w*C overflows for C = 1e300 F, so 1/(jwC) is
    # -0.0j; a series resistor's +0.0j turns the sum into +0.0j, wherever it
    # stands, and an inductor's reactance is never -0.0
    big = Capacitor(1e300)
    grid = log_grid(1e3, 1e12, 64)
    trees = (
        big, Series((big, big)), Series((big, Resistor(1.0))), Series((Resistor(1.0), big)),
        Series((big, Capacitor(1e299), Resistor(2.0))), Series((big, Inductor(1e-300))),
        Series((Resistor(1.0), Resistor(2.0))),
        Series((big, Resistor(1.0), Rational(-1.0, (0j, 0j)))),  # w^2 - 0.0j
    )
    signs = set()
    with np.errstate(over="ignore", divide="ignore"):
        for desc in trees:
            got = eval_network(desc, grid).samples
            assert got.tobytes() == reference_eval_tree(desc, grid.points).tobytes(), desc
            signs.add(bool(np.signbit(got.imag[-1])))
    assert signs == {True, False}  # both signs of zero are reached


@pytest.mark.parametrize("grid", _GRIDS, ids=len)
def test_duplicated_children_take_the_half_branch(grid):
    # Parallel((x, x)) is x/2: the admittance sum doubles 1/x exactly, and
    # the two reciprocals round within 4 eps (2.07 eps seen on 1e6 draws)
    trees = _LEAVES + tuple(mixed_trees())
    for desc in trees:
        got = assert_same_evaluation(Parallel((desc, desc)), grid)
        half = reference_eval_tree(desc, grid.points) / 2.0
        z = np.frombuffer(got, dtype=complex)
        assert np.all(np.abs(z - half) <= 4 * 2.0**-52 * np.abs(half))


@pytest.mark.parametrize("seed", range(10, 60))
def test_random_case_trees_match_reference(seed):
    case = random_case(seed, 1 + seed % 4, (1.0, 10000.0))
    for desc in (case.z_ppm_existing, case.z_net_old, case.z_ppm_new):
        for grid in (case.grid, _GRIDS[1]):
            assert_same_evaluation(desc, grid)


def offshore_tree(rng, n_strings):
    """A grid Thevenin branch in parallel with lightly damped series R-L-C
    strings (Q 8-30, resonances 60-3000 Hz), as in the large benchmark case."""
    strings = []
    for _ in range(n_strings):
        f0 = math.exp(rng.uniform(math.log(60.0), math.log(3000.0)))
        l_h = rng.uniform(1.0, 8.0) * 1e-3
        q = rng.uniform(8.0, 30.0)
        strings.append(Series((
            Resistor(2.0 * math.pi * f0 * l_h / q),
            Inductor(l_h),
            Capacitor(1.0 / ((2.0 * math.pi * f0) ** 2 * l_h)),
        )))
    grid_branch = Thevenin(66e3, rng.uniform(4e8, 2e9), rng.uniform(3.0, 12.0))
    return Parallel((grid_branch,) + tuple(strings))


@pytest.mark.parametrize("seed", range(4))
def test_offshore_tree_matches_reference(seed):
    desc = offshore_tree(np.random.default_rng(seed), 24)
    grid = log_grid(10.0, 5000.0, 5000)
    assert isinstance(assert_same_evaluation(desc, grid), bytes)


def test_singular_trees_raise_like_reference():
    grid = _GRIDS[0]
    f0 = float(grid.points[700])
    w0 = 2.0 * math.pi * f0
    pole_on_axis = Series((Resistor(1.0), Rational(1.0, (), (complex(0, w0), complex(0, -w0)))))
    cancelling = Series((Inductor(1e-3), Parallel((Resistor(1.0), Rational(-1.0)))))
    tank = Parallel((Inductor(1e-3), Capacitor(1.0 / (w0**2 * 1e-3))))
    for desc, kind in (
        (pole_on_axis, "rational pole"),
        (cancelling, "parallel branches cancel"),
        (tank, f"near {f0} Hz"),
    ):
        got = assert_same_evaluation(desc, grid)
        assert got[0] is SingularAtFrequency and kind in got[1], got


# eval_network works one block of _BLOCK_POINTS frequencies at a time
_B = _BLOCK_POINTS
_BLOCK_GRIDS = tuple(log_grid(1.0, 10000.0, n) for n in (_B - 1, _B, _B + 1, 2 * _B + 1))


def tank_at(f0):
    w0 = 2.0 * math.pi * f0
    return Parallel((Inductor(1e-3), Capacitor(1.0 / (w0**2 * 1e-3))))


def pole_at(f0):
    w0 = 2.0 * math.pi * f0
    return Rational(1.0, (), (complex(0, w0), complex(0, -w0)))


@pytest.mark.parametrize("grid", _BLOCK_GRIDS, ids=len)
def test_trees_match_reference_across_block_edges(grid):
    r, l, c, th = _LEAVES[:4]
    leaf_series = (
        Series((r, Resistor(0.7))),  # imaginary part +0.0
        Series((c, r, l)),
        Series((l, c, Capacitor(5e-6), r)),
        Series((r, th, c)),
        Series((th, l)),
    )
    trees = leaf_series + tuple(mixed_trees()) + (offshore_tree(np.random.default_rng(5), 24),)
    for desc in trees:
        assert isinstance(assert_same_evaluation(desc, grid), bytes)


def test_offshore_tree_matches_reference_at_100000_points():
    desc = offshore_tree(np.random.default_rng(11), 24)
    grid = log_grid(10.0, 5000.0, 100_000)
    assert isinstance(assert_same_evaluation(desc, grid), bytes)


@pytest.mark.parametrize("grid", _BLOCK_GRIDS[2:], ids=len)
def test_fault_in_the_last_block_raises_like_reference(grid):
    f0 = float(grid.points[-1])
    for desc, kind in (
        (Series((Resistor(1.0), pole_at(f0))), "rational pole"),
        (Series((Resistor(1.0), tank_at(f0))), f"near {f0} Hz"),
    ):
        got = assert_same_evaluation(desc, grid)
        assert got[0] is SingularAtFrequency and kind in got[1] and str(f0) in got[1], got


@pytest.mark.parametrize("grid", _BLOCK_GRIDS[2:], ids=len)
def test_faults_in_two_blocks_raise_for_the_first_node(grid):
    # blocks meet the early fault first; evaluation order meets the late one first
    f_early, f_late = float(grid.points[3]), float(grid.points[-1])
    for desc in (
        Series((tank_at(f_late), tank_at(f_early))),
        Series((pole_at(f_late), tank_at(f_early))),
        Parallel((Series((Resistor(1.0), tank_at(f_late))), pole_at(f_early))),
    ):
        got = assert_same_evaluation(desc, grid)
        assert got[0] is SingularAtFrequency and str(f_late) in got[1], got


def test_par_matches_reference_on_arrays_and_scalars():
    rng = np.random.default_rng(3)
    a = rng.normal(size=500) + 1j * rng.normal(size=500)
    b = rng.normal(size=500) + 1j * rng.normal(size=500)
    b[::7] = a[::7]
    c = rng.normal(size=500) + 1j * rng.normal(size=500)  # no pair equals a's
    for x, y in ((a, b), (b, a), (a, a), (a[:1], b[:1]), (a, c), (c[:1], a[:1])):
        assert par(x, y).tobytes() == reference_par((x, y)).tobytes()
    for x, y in ((1 + 2j, 3 - 1j), (2j, 2j), (0.5, 1e12 + 0j)):
        assert par(x, y) == reference_par((x, y))


# -- network scaling -----------------------------------------------------------


def reference_check_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def reference_scale_network(desc: NetworkElement, k: float) -> NetworkElement:
    """Scale the impedance of a tree by k > 0 (R,L *= k; C /= k)."""
    reference_check_positive("scale factor", k)
    if isinstance(desc, Resistor):
        return Resistor(desc.r_ohm * k)
    if isinstance(desc, Inductor):
        return Inductor(desc.l_henry * k)
    if isinstance(desc, Capacitor):
        return Capacitor(desc.c_farad / k)
    if isinstance(desc, Thevenin):
        return Thevenin(desc.v_ll_volt * math.sqrt(k), desc.s_sc_va, desc.xr)
    if isinstance(desc, Rational):
        return Rational(desc.gain * k, desc.zeros_rad_s, desc.poles_rad_s)
    if isinstance(desc, Series):
        return Series(tuple(reference_scale_network(c, k) for c in desc.children))
    if isinstance(desc, Parallel):
        return Parallel(tuple(reference_scale_network(c, k) for c in desc.children))
    raise ValueError(f"unknown network element {type(desc).__name__}")


def scale_outcome(scale, desc, k):
    """The scaled tree and its JSON bytes, or the type and message raised."""
    try:
        scaled = scale(desc, k)
    except ValueError as exc:
        return type(exc), str(exc)
    return scaled, network_to_json(scaled)


def scaling_trees():
    yield from _LEAVES
    yield from mixed_trees()
    for seed in range(4):
        yield offshore_tree(np.random.default_rng(seed), 24)
    for seed in range(10, 60):
        case = random_case(seed, 1 + seed % 4, (1.0, 10000.0))
        yield from (case.z_ppm_existing, case.z_net_old, case.z_ppm_new)


@pytest.mark.parametrize("k", [1e-3, 0.37, 1, 3, 1e4])
def test_scale_network_matches_reference(k):
    for desc in scaling_trees():
        got = scale_outcome(scale_network, desc, k)
        assert isinstance(got[0], NetworkElement)
        assert got == scale_outcome(reference_scale_network, desc, k)


@pytest.mark.parametrize("k", [0, -1, math.nan, math.inf, "2"])
def test_scale_network_rejects_like_reference(k):
    for desc in scaling_trees():
        got = scale_outcome(scale_network, desc, k)
        assert got[0] is ValueError
        assert got == scale_outcome(reference_scale_network, desc, k)


# -- blocked stages against the whole-grid pipeline -----------------------------


def whole_grid_consistency_error(l_direct, l_factored) -> float:
    """Worst pointwise relative deviation between two loop-gain curves."""
    num = np.abs(l_direct.samples - l_factored.samples)
    den = np.maximum(np.abs(l_direct.samples), 1e-30)
    return float(np.max(num / den))


def whole_grid_direct_check(z_net, z_ppm, z_new, l_factored) -> float:
    """The direct loop gain built on the whole grid, then compared."""
    z_net_new = dataclasses.replace(
        z_net, samples=par(z_net.samples, z_new.samples, z_net.grid.points), label="z_net_new"
    )
    l_direct = loop_gain(z_net_new, z_ppm, label="L_new_direct").response
    return whole_grid_consistency_error(l_direct, l_factored)


def whole_grid_update(l_old, ratio) -> FrequencyResponse:
    """L_old * (1 / (1 + rho)) with 1+rho and its reciprocal built whole.

    The product keeps L_old as its first operand: with fused multiply-adds
    a complex product need not be commutative bit for bit, and numpy
    evaluates ``l_old * (temporary)`` as the temporary times L_old, in
    place, once the temporary reaches 256 KiB (16,384 complex samples).
    """
    inv = 1.0 / (1.0 + ratio.samples)
    return dataclasses.replace(l_old, samples=np.multiply(l_old.samples, inv), label="L_new")


@pytest.mark.parametrize("grid", _BLOCK_GRIDS, ids=len)
def test_update_loop_gain_matches_whole_grid(grid):
    rng = np.random.default_rng(4)
    n = len(grid)
    l_old, ratio = (
        FrequencyResponse(grid, rng.normal(size=n) + 1j * rng.normal(size=n), unit="dimensionless")
        for _ in range(2)
    )
    got = update_loop_gain(l_old, ratio).response
    assert got == whole_grid_update(l_old, ratio)


def reference_winding(l) -> EncirclementResult:
    """The mirrored count with the sampling guard's warnings added, and the
    distance of the positive segments and the two closures, scanned whole."""
    ref = mirrored_winding_number(l)
    warn = set(ref.resolution_warnings) | sampling_guard(l)
    z = l.samples + 1.0
    ends = np.array([np.conj(z[0]), z[-1]])
    a, b = np.concatenate((z[:-1], ends)), np.concatenate((z[1:], np.conj(ends)))
    return dataclasses.replace(
        ref,
        resolution_warnings=tuple(sorted(warn)),
        min_distance_to_critical_point=float(np.min(_segment_min_dist(a, b))),
    )


_ROLES = ("z_ppm_existing", "z_net_old", "z_ppm_new")


def whole_grid_report(case: dict, policy=MarginPolicy()):
    """The assessment of a synthetic case with every curve built on the
    whole grid and kept to the end."""
    g = case["grid"]
    grid = log_grid(g["start_hz"], g["stop_hz"], g["points"])
    curves = [
        eval_network(network_from_obj(case[r]), grid, label=lb) for r, lb in zip(_ROLES, CASE_LABELS)
    ]
    z_ppm, z_net, z_new = curves
    l_old = loop_gain(z_net, z_ppm, label="L_old").response
    ratio = rho(z_net, z_new)
    l_new = whole_grid_update(l_old, ratio)
    cons_err = whole_grid_direct_check(z_net, z_ppm, z_new, l_new)
    s_old, s_new = summarize_margins(l_old, policy), summarize_margins(l_new, policy)
    decomps = decompose_margins(l_old, ratio, [(cp.f_hz, cp.kind) for cp in s_new.crossovers])
    gain_freqs = [cp.f_hz for cp in s_new.crossovers if cp.kind == "gain"]
    limits = limit_curve(l_old, z_net, gain_freqs, policy, ratio)
    inputs = {
        key: {r: getattr(c, attr) for r, c in zip(_ROLES, curves)}
        for key, attr in (
            ("labels", "label"), ("sequence", "sequence"), ("operating_point", "operating_point")
        )
    }
    inputs["critical_frequency_mode"] = "detected-crossovers"
    inputs["asserted_preconditions"] = list(_ASSERTED_PRECONDITIONS)
    return build_report(
        inputs, s_old, s_new, decomps, limits, check_compliance(z_new, limits),
        {"l_old": reference_winding(l_old), "l_new": reference_winding(l_new)},
        cons_err, (("L_old", l_old), ("L_new", l_new)),
    )


def offshore_case(grid: FrequencyGrid) -> dict:
    """The 24-string offshore network facing a converter-like plant; on
    10-5000 Hz L_new has 13 gain and 5 phase crossovers and winds twice."""
    wc = 2.0 * math.pi * 400.0
    pole = complex(-0.5 * wc, wc * math.sqrt(0.75))
    converter = Rational(-4e-3 * wc * wc, (0j,), (pole, pole.conjugate()))
    nets = (
        scale_network(Series((Resistor(0.5), Inductor(2e-3), converter)), 0.06),
        offshore_tree(np.random.default_rng(11), 24),
        scale_network(Series((Resistor(1.0), Inductor(3e-3))), 0.3),
    )
    lo, hi = grid.span
    case = {"grid": {"start_hz": lo, "stop_hz": hi, "points": len(grid)}}
    case.update(zip(_ROLES, map(network_to_obj, nets)))
    return case


def synth_assessment(case: dict, tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    return run_assessment(RunConfig(synth_case=path))[0]


def report_outcome(assess, case):
    """The report bytes in every format, or the type and message raised."""
    try:
        rep = assess(case)
    except (MarginGateError, StageFailure) as exc:
        exc = getattr(exc, "cause", exc)
        return type(exc), str(exc)
    return tuple(render(rep, fmt) for fmt in FORMATS)


def fixture_case(grid: FrequencyGrid, seed: int) -> dict:
    """The networks of a random fixture on the given grid."""
    fixture = random_case(seed, 3, grid.span)
    nets = (fixture.z_ppm_existing, fixture.z_net_old, fixture.z_ppm_new)
    return {**offshore_case(grid), **dict(zip(_ROLES, map(network_to_obj, nets)))}


@pytest.mark.parametrize("grid", _BLOCK_GRIDS, ids=len)
def test_blocked_pipeline_matches_whole_grid_report(grid, tmp_path):
    for case in (offshore_case(grid), fixture_case(grid, 7)):
        got = report_outcome(lambda c: synth_assessment(c, tmp_path), case)
        assert isinstance(got[0], bytes), got
        assert got == report_outcome(whole_grid_report, case)


def test_blocked_pipeline_matches_whole_grid_report_at_100000_points(tmp_path):
    case = offshore_case(log_grid(10.0, 5000.0, 100_000))
    got = report_outcome(lambda c: synth_assessment(c, tmp_path), case)
    assert got == report_outcome(whole_grid_report, case)
    # the case reaches both crossover kinds and a nonzero winding
    obj = json.loads(got[0])
    assert obj["encirclements"]["l_new"]["winding"] != 0
    assert {cp["kind"] for cp in obj["l_new"]["crossovers"]} == {"gain", "phase"}


def consistency_outcome(check, *curves):
    try:
        return check(*curves)
    except MarginGateError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("grid", _BLOCK_GRIDS[2:], ids=len)
def test_singular_parallel_in_the_last_block_raises_like_whole_grid(grid):
    rng = np.random.default_rng(2)
    n = len(grid)
    z_net = FrequencyResponse(grid, rng.uniform(1, 2, n) * np.exp(1j * rng.uniform(-1, 1, n)))
    z_new = -z_net.samples
    z_new[:-1] = rng.uniform(1, 2, n - 1)
    z_new = dataclasses.replace(z_net, samples=z_new)
    l_fact = FrequencyResponse(grid, np.ones(n, complex), unit="dimensionless")
    ones = dataclasses.replace(z_net, samples=np.ones(n, complex))
    # a second fault in the first block: a zero PPM sample, which the
    # whole-grid chain meets after the singular parallel combination
    holed = dataclasses.replace(ones, samples=np.where(np.arange(n) == 3, 0j, 1 + 0j))
    for z_ppm in (ones, holed):
        curves = (z_net, z_ppm, z_new, l_fact)
        got = consistency_outcome(consistency_error, *curves)
        assert got == consistency_outcome(whole_grid_direct_check, *curves)
        assert got[0] is ResonanceSingular and f"near {grid.points[-1]} Hz" in got[1], got


@pytest.mark.parametrize("grid", _BLOCK_GRIDS, ids=len)
def test_winding_at_block_edges_matches_mirrored_reference(grid):
    # 1 + L is 1.5 but for a segment 1+0.5j -> -0.2+0.5j ending each block
    # and the grid: 1.2 long, 0.5 from the origin and an 85 deg step, so only
    # the sampling guard warns there; the step after it is the closest one
    n = len(grid)
    z = np.full(n, 1.5 + 0j)
    ends = [*range(_BLOCK_POINTS, n, _BLOCK_POINTS), n - 1]
    for k in ends:
        z[k - 1], z[k] = 1 + 0.5j, -0.2 + 0.5j
    l = FrequencyResponse(grid, z - 1.0, unit="dimensionless")
    got = winding_number(l)
    assert got == reference_winding(l)
    g = grid.points
    assert {(float(g[k - 1]), float(g[k])) for k in ends} <= set(got.resolution_warnings)
