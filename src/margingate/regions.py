"""Nyquist-plane winding numbers and the crossing classifier.

Encirclements of -1+0j are counted on the closed contour formed by the
sampled locus, its conjugate mirror and straight closure segments; the
mirror's share is taken by conjugate symmetry rather than built. The
critical and caution wedges and the gain-margin floor are one rule,
``MarginPolicy.region``; ``classify_crossing`` applies its phase-margin
part to a unit-circle value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousWinding, CriticalPointOnLocus, NotOnUnitCircle
from .freqresp import FrequencyResponse
from .margins import MarginPolicy, pm_deg

__all__ = [
    "EncirclementResult",
    "classify_crossing",
    "winding_number",
]

_UNIT_CIRCLE_TOL = 1e-6
_CRITICAL_ATOL = 1e-12
_WINDING_RESIDUAL = 0.01
_STEP_WARN_DEG = 90.0
_CLOSURE_WARN_DIST = 0.1


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
    """Region of a unit-circle crossing: ``MarginPolicy.pm_region`` of its
    phase margin."""
    if abs(abs(l_value) - 1.0) >= _UNIT_CIRCLE_TOL:
        raise NotOnUnitCircle(f"|L| = {abs(l_value)} is not 1")
    return policy.pm_region(pm_deg(l_value))


def _segment_min_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from the origin to each segment [a_i, b_i]."""
    d = b - a
    l2 = np.abs(d) ** 2
    t = np.divide(-np.real(a * np.conj(d)), l2, out=np.zeros(a.shape), where=l2 > 0.0)
    return np.abs(a + np.clip(t, 0.0, 1.0) * d)


def winding_number(l: FrequencyResponse) -> EncirclementResult:
    """Count encirclements of -1+0j by the loop-gain locus.

    The contour is the sampled locus for positive frequencies, its
    conjugate mirror for negative frequencies and straight closure
    segments at both ends. The mirror is not built: by conjugate symmetry
    each mirrored step repeats the angle of a positive step and each
    mirrored segment is a positive one traversed backwards, so only the N
    positive samples are walked. The angle sum must resolve to an integer
    number of turns within 0.01, else ``AmbiguousWinding``.
    """
    z = l.samples + 1.0
    if float(np.min(np.abs(z))) <= _CRITICAL_ATOL:
        raise CriticalPointOnLocus("a locus sample coincides with -1+0j")

    g = l.grid.points
    # step 0 crosses zero frequency (conj(z0) -> z0); step k >= 1 spans
    # [g[k-1], g[k]] and is traversed twice, once mirrored
    turn = np.empty(z.size, dtype=complex)
    turn[0] = z[0] * z[0]
    np.multiply(z[1:], np.conj(z[:-1]), out=turn[1:])
    steps = np.degrees(np.angle(turn))
    high = np.conj(z[-1]) * np.conj(z[-1])  # closure z_N -> conj(z_N)
    closing = math.degrees(math.atan2(high.imag, high.real))
    total = float(steps[0] + 2.0 * np.sum(steps[1:])) + closing

    turns = -total / 360.0
    winding = round(turns)
    residual = abs(turns - winding)
    if residual >= _WINDING_RESIDUAL:
        raise AmbiguousWinding(
            f"angle sum {total:.3f} deg is not an integer number of turns"
        )

    edges = np.concatenate(([0.0], g))
    warn = {
        (float(edges[j]), float(edges[j + 1]))
        for j in np.flatnonzero(np.abs(steps) > _STEP_WARN_DEG)
    }
    if abs(closing) > _STEP_WARN_DEG:
        warn.add((float(g[-1]), math.inf))

    # closure segments conj(z0) -> z0 and z_N -> conj(z_N)
    ends = np.array([np.conj(z[0]), z[-1]])
    closures = _segment_min_dist(ends, np.conj(ends))
    if float(closures[0]) < _CLOSURE_WARN_DIST:
        warn.add((0.0, float(g[0])))
    if float(closures[1]) < _CLOSURE_WARN_DIST:
        warn.add((float(g[-1]), math.inf))

    min_dist = min(
        float(np.min(_segment_min_dist(z[:-1], z[1:]))),
        float(np.min(_segment_min_dist(z[1:], z[:-1]))),  # the mirrored pass
        float(np.min(closures)),
    )

    return EncirclementResult(
        winding=int(winding),
        min_distance_to_critical_point=min_dist,
        resolution_warnings=tuple(sorted(warn)),
    )
