"""Nyquist-plane winding numbers.

Encirclements of -1+0j are counted on the closed contour formed by the
sampled locus, its conjugate mirror and straight closure segments; the
mirror's share is taken by conjugate symmetry rather than built. Angle
steps follow the one phase-step rule, ``freqresp._phase_steps_deg``: a
step of exactly 180 deg (a segment through -1) wraps to -180. The
critical and caution wedges and the gain-margin floor that classify a
crossover are one rule, ``margins.MarginPolicy.region``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousWinding, CriticalPointOnLocus
from .freqresp import FrequencyResponse, _blocks, _phase_steps_deg

__all__ = ["EncirclementResult", "winding_number"]

_CRITICAL_ATOL = 1e-12
_WINDING_RESIDUAL = 0.01
_STEP_WARN_DEG = 90.0
_CLOSURE_WARN_DIST = 0.1


@dataclass(frozen=True)
class EncirclementResult:
    """Winding of the closed loop-gain contour around -1+0j.

    Positive winding counts clockwise encirclements. Warnings list
    frequency intervals (Hz) where a single angle step exceeded 90 deg, a
    segment was longer than its distance from the critical point, or a
    closure segment passed near it; ``math.inf`` marks the high-frequency
    closure.
    """

    winding: int
    min_distance_to_critical_point: float
    resolution_warnings: tuple[tuple[float, float], ...]


def _segment_min_dist(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from the origin to each segment [a_i, b_i], and its squared
    length."""
    d = b - a
    l2 = np.abs(d) ** 2
    t = np.divide(-np.real(a * np.conj(d)), l2, out=np.zeros(a.shape), where=l2 > 0.0)
    return np.abs(a + np.clip(t, 0.0, 1.0) * d), l2


def winding_number(l: FrequencyResponse) -> EncirclementResult:
    """Count encirclements of -1+0j by the loop-gain locus.

    The contour is the sampled locus for positive frequencies, its
    conjugate mirror for negative frequencies and straight closure
    segments at both ends. The mirror is not built: by conjugate symmetry
    each mirrored step repeats the angle of a positive step and each
    mirrored segment is the conjugate of a positive one, at the same
    distance from -1, so only the N positive samples are walked and each
    segment is scanned once. The angle sum must resolve to an integer
    number of turns within 0.01, else ``AmbiguousWinding``.
    """
    z = l.samples + 1.0
    if float(np.min(np.abs(z))) <= _CRITICAL_ATOL:
        raise CriticalPointOnLocus("a locus sample coincides with -1+0j")

    # angles along conj(z0) -> z0 ... zN -> conj(zN): step 0 crosses zero
    # frequency, step N closes at high frequency, and each step between
    # spans one grid interval and is traversed twice, once mirrored
    theta = np.empty(z.size + 2)
    np.degrees(np.angle(z), out=theta[1:-1])
    theta[0], theta[-1] = -theta[1], -theta[-2]
    steps = _phase_steps_deg(theta)
    total = float(np.sum(steps) + np.sum(steps[1:-1]))

    turns = -total / 360.0
    winding = round(turns)
    if abs(turns - winding) >= _WINDING_RESIDUAL:
        raise AmbiguousWinding(
            f"angle sum {total:.3f} deg is not an integer number of turns"
        )

    # closure segments conj(z0) -> z0 and z_N -> conj(z_N)
    ends = np.array([np.conj(z[0]), z[-1]])
    closures, _ = _segment_min_dist(ends, np.conj(ends))
    warn = np.abs(steps) > _STEP_WARN_DEG
    warn[[0, -1]] |= closures < _CLOSURE_WARN_DIST
    # the segments z_k -> z_k+1, one block at a time; each mirrored segment
    # is a conjugate, at the same distance from the origin, so it is not
    # scanned. A segment longer than its distance from -1 may have gone
    # round -1 between its samples, whatever its angle step
    min_dist = float(np.min(closures))
    for block in _blocks(z.size - 1):
        dist, l2 = _segment_min_dist(z[block], z[block.start + 1:block.stop + 1])
        min_dist = min(min_dist, float(np.min(dist)))
        warn[block.start + 1:block.stop + 1] |= l2 > dist**2
    edges = np.concatenate(([0.0], l.grid.points, [math.inf]))

    return EncirclementResult(
        winding=int(winding),
        min_distance_to_critical_point=min_dist,
        resolution_warnings=tuple(
            (float(edges[j]), float(edges[j + 1])) for j in np.flatnonzero(warn)
        ),
    )
