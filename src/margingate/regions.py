"""Nyquist-plane stability geometry.

Critical and caution angle wedges about the negative real axis classify
unit-circle crossings by phase margin; a circle of radius 10^(-GM_dB/20)
visualizes the gain-margin requirement; encirclements of -1+0j are
counted on the closed contour formed by the sampled locus, its conjugate
mirror and straight closure segments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousWinding,
    CriticalPointOnLocus,
    KindMismatch,
    NotOnUnitCircle,
)
from .freqresp import FrequencyResponse
from .margins import CrossoverPoint, MarginPolicy, find_crossovers, pm_deg

__all__ = [
    "RegionVerdict",
    "EncirclementResult",
    "classify_crossing",
    "gm_circle_check",
    "winding_number",
    "critical_intersection",
]

_UNIT_CIRCLE_TOL = 1e-6
_CRITICAL_ATOL = 1e-12
_WINDING_RESIDUAL = 0.01
_STEP_WARN_DEG = 90.0
_CLOSURE_WARN_DIST = 0.1


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of one unit-circle crossing."""

    crossover: CrossoverPoint
    region: str

    def __post_init__(self):
        if self.region not in ("critical", "caution", "compliant"):
            raise ValueError(f"bad region {self.region!r}")


@dataclass(frozen=True)
class EncirclementResult:
    """Winding of the closed loop-gain contour around -1+0j.

    Positive winding counts clockwise encirclements. Warnings list
    frequency intervals (Hz) where a single angle step exceeded 90 deg or
    a closure segment passed near the critical point; ``math.inf`` marks
    the high-frequency closure.
    """

    winding: int
    min_distance_to_critical_point: float
    resolution_warnings: tuple[tuple[float, float], ...]


def classify_crossing(l_value: complex, policy: MarginPolicy) -> str:
    """Region of a unit-circle crossing: critical, caution or compliant.

    Boundary semantics: PM equal to the minimum is caution (not
    critical); PM equal to the caution threshold is compliant.
    """
    if abs(abs(l_value) - 1.0) >= _UNIT_CIRCLE_TOL:
        raise NotOnUnitCircle(f"|L| = {abs(l_value)} is not 1")
    pm = pm_deg(l_value)
    if pm < policy.pm_min_deg:
        return "critical"
    if pm < policy.pm_cau_deg:
        return "caution"
    return "compliant"


def gm_circle_check(
    phase_crossovers: list[CrossoverPoint], policy: MarginPolicy
) -> list[tuple[CrossoverPoint, bool]]:
    """Check negative-real-axis crossings against the GM circle.

    The circle is centered at the origin with radius 10^(-gm_min_db/20);
    a crossing of magnitude outside that radius violates the gain-margin
    requirement.
    """
    radius = policy.gm_circle_radius
    out: list[tuple[CrossoverPoint, bool]] = []
    for cp in phase_crossovers:
        if cp.kind != "phase":
            raise KindMismatch(f"expected phase crossovers, got {cp.kind!r}")
        out.append((cp, abs(cp.l_value) > radius))
    return out


def _segment_min_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from the origin to each segment [a_i, b_i]."""
    d = b - a
    l2 = np.abs(d) ** 2
    t = np.zeros(a.shape)
    nz = l2 > 0.0
    t[nz] = np.clip(-np.real(a[nz] * np.conj(d[nz])) / l2[nz], 0.0, 1.0)
    return np.abs(a + t * d)


def winding_number(l: FrequencyResponse) -> EncirclementResult:
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


def critical_intersection(
    l: FrequencyResponse, policy: MarginPolicy
) -> tuple[bool, list[RegionVerdict]]:
    """Does the locus cross the unit circle inside the critical wedge?

    Detects all gain crossovers and classifies each; returns True with
    the critical offenders listed when any crossing violates the minimum
    phase margin.
    """
    offenders = []
    for cp in find_crossovers(l, "gain"):
        region = classify_crossing(cp.l_value, policy)
        if region == "critical":
            offenders.append(RegionVerdict(cp, region))
    return bool(offenders), offenders
