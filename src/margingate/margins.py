"""Crossover detection and phase/gain margin computation.

Gain crossovers are the frequencies where |L| = 1; the phase margin is
180 deg plus the loop-gain angle there, normalized to (-180, 180]. Phase
crossovers are where the unwrapped phase passes through -180 deg plus any
multiple of 360; the gain margin is 1/|L| there. Margins can also be
decomposed through the pre-connection loop gain:

    PM_new = (180 + angle L_old) - angle(1 + rho)
    GM_new = |1 + rho| / |L_old|

evaluated at the new crossover frequencies. The operator's margin policy
(minimum and caution phase margins, minimum gain margin) lives here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import KindMismatch, SingularSensitivity
from .freqresp import (
    FrequencyResponse,
    _require_nonzero,
    normalize_deg,
    principal_angle_deg,
    unwrap_phase,
    value_at,
)
from .loopgain import _SENSITIVITY_ATOL, one_plus

__all__ = [
    "REGIONS",
    "VERDICTS",
    "MarginPolicy",
    "CrossoverPoint",
    "MarginSummary",
    "MarginDecomposition",
    "find_crossovers",
    "pm_deg",
    "decompose_margins",
    "summarize_margins",
    "worst_verdict",
]

GAIN_MAG_TOL = 1e-9       # | |L| - 1 | at a refined gain crossover
PHASE_ANGLE_TOL = 1e-6    # deg from -180 at a refined phase crossover
_MERGE_RTOL = 1e-6        # crossovers closer than this (relative) merge

REGIONS = ("compliant", "caution", "critical")  # by increasing severity
VERDICTS = ("compliant", "caution", "violation")  # likewise; REGIONS[i] gives VERDICTS[i]


def worst_verdict(verdicts) -> str:
    """The most severe of some verdicts under ``VERDICTS``; compliant with none."""
    return max(verdicts, key=VERDICTS.index, default="compliant")


def pm_deg(z: complex) -> float:
    """Phase margin read off a loop-gain value: 180 deg plus its angle.

    Normalized to (-180, 180]; its magnitude is the angular distance of
    ``z`` from -180 deg.
    """
    return normalize_deg(180.0 + principal_angle_deg(z))


@dataclass(frozen=True)
class MarginPolicy:
    """Operator margin thresholds.

    Defaults are the offshore requirement: 15 deg minimum phase margin,
    30 deg caution threshold, 15 dB minimum gain margin.
    """

    pm_min_deg: float = 15.0
    pm_cau_deg: float = 30.0
    gm_min_db: float = 15.0

    def __post_init__(self):
        if any(isinstance(v, bool) for v in (self.pm_min_deg, self.pm_cau_deg, self.gm_min_db)):
            raise ValueError("margin thresholds must be numbers, not booleans")
        if not (0.0 < self.pm_min_deg <= self.pm_cau_deg < 180.0):
            raise ValueError(
                "need 0 < pm_min_deg <= pm_cau_deg < 180, got "
                f"({self.pm_min_deg}, {self.pm_cau_deg})"
            )
        if not (0.0 <= self.gm_min_db < math.inf):
            raise ValueError(f"gm_min_db must be >= 0 and finite, got {self.gm_min_db}")

    @property
    def gm_circle_radius(self) -> float:
        """Nyquist-plane radius 10^(-gm_min_db/20) of the GM circle."""
        return 10.0 ** (-self.gm_min_db / 20.0)

    def pm_region(self, pm: float) -> str:
        """Region of a phase margin: critical below the minimum, caution
        below the caution threshold, else compliant.

        Boundary semantics: PM equal to the minimum is caution (not
        critical); PM equal to the caution threshold is compliant.
        """
        if pm < self.pm_min_deg:
            return "critical"
        if pm < self.pm_cau_deg:
            return "caution"
        return "compliant"

    def region(self, cp: CrossoverPoint) -> str:
        """Region of a crossover: its phase margin for the gain kind; for
        the phase kind, critical below the gain-margin floor, else
        compliant."""
        if cp.kind == "gain":
            return self.pm_region(cp.pm_deg)
        return "critical" if cp.gm_db < self.gm_min_db else "compliant"


@dataclass(frozen=True)
class CrossoverPoint:
    """A gain or phase crossover with the interpolated loop-gain value.

    The margins are read off ``l_value``: a gain crossover has the phase
    margin ``pm_deg``, a phase crossover the gain margin ``gm_lin`` = 1/|L|
    and its dB form ``gm_db``; the other kind's margins are None.
    """

    kind: str
    f_hz: float
    l_value: complex

    def __post_init__(self):
        if self.kind == "gain":
            if abs(abs(self.l_value) - 1.0) >= GAIN_MAG_TOL:
                raise KindMismatch("gain crossover value not on the unit circle")
        elif self.kind == "phase":
            if abs(pm_deg(self.l_value)) >= PHASE_ANGLE_TOL:
                raise KindMismatch("phase crossover value not at -180 deg")
        else:
            raise ValueError(f"kind must be gain or phase, got {self.kind!r}")

    @property
    def pm_deg(self) -> float | None:
        # the name in the body is the module function
        return pm_deg(self.l_value) if self.kind == "gain" else None

    @property
    def gm_lin(self) -> float | None:
        return 1.0 / abs(self.l_value) if self.kind == "phase" else None

    @property
    def gm_db(self) -> float | None:
        return 20.0 * math.log10(self.gm_lin) if self.kind == "phase" else None


@dataclass(frozen=True)
class MarginSummary:
    """All crossovers of a loop gain, sorted by (f, kind), under a policy."""

    crossovers: tuple[CrossoverPoint, ...]
    policy: MarginPolicy

    @property
    def worst_pm(self) -> CrossoverPoint | None:
        """The gain crossover with the smallest phase margin."""
        gains = (c for c in self.crossovers if c.kind == "gain")
        return min(gains, key=lambda c: c.pm_deg, default=None)

    @property
    def worst_gm(self) -> CrossoverPoint | None:
        """The phase crossover with the smallest gain margin."""
        phases = (c for c in self.crossovers if c.kind == "phase")
        return max(phases, key=lambda c: abs(c.l_value), default=None)

    @cached_property
    def deciding(self) -> CrossoverPoint | None:
        """The first crossover of the most severe ``MarginPolicy.region``; None with none."""
        region = self.policy.region
        return max(self.crossovers, key=lambda c: REGIONS.index(region(c)), default=None)

    @property
    def verdict(self) -> str:
        """The ``deciding`` crossover's region as a verdict; compliant with none."""
        cp = self.deciding
        return "compliant" if cp is None else VERDICTS[REGIONS.index(self.policy.region(cp))]


@dataclass(frozen=True)
class MarginDecomposition:
    """Margins at one frequency expressed through the old loop gain.

    ``kind`` is the kind of the L_new crossover at ``f_hz``. PM_new and
    GM_new are read off the stored terms.
    """

    f_hz: float
    kind: str
    pm_old_newgc_deg: float
    angle_one_plus_rho_deg: float
    abs_one_plus_rho: float
    l_old_mag: float

    @property
    def pm_new_deg(self) -> float:
        return normalize_deg(self.pm_old_newgc_deg - self.angle_one_plus_rho_deg)

    @property
    def gm_new_lin(self) -> float:
        return self.abs_one_plus_rho / self.l_old_mag


def _level_root(u_lo, u_hi, y_lo, y_hi, c):
    """Where the line through (u_lo, y_lo) and (u_hi, y_hi) meets level c."""
    return u_lo + (c - y_lo) * (u_hi - u_lo) / (y_hi - y_lo)


def _detect_levels(y: np.ndarray, levels, grid_pts: np.ndarray) -> list[float]:
    roots: list[float] = []
    for c in levels:
        # y - c is 0 exactly where y == c and negative where y < c, so
        # comparisons find the roots and sign changes without a difference
        roots.extend(grid_pts[y == c].tolist())
        below, above = y < c, y > c
        i = np.flatnonzero((below[:-1] & above[1:]) | (above[:-1] & below[1:]))
        g_lo, g_hi = grid_pts[i], grid_pts[i + 1]
        u = _level_root(np.log(g_lo), np.log(g_hi), y[i], y[i + 1], c)
        # a rounded root must stay in its bracket, hence inside the span
        roots.extend(np.clip(np.exp(u), g_lo, g_hi).tolist())
    return roots


def _merge_close(freqs: list[float]) -> list[float]:
    freqs = sorted(freqs)
    out: list[float] = []
    for f in freqs:
        if out and (f - out[-1]) <= _MERGE_RTOL * out[-1]:
            continue
        out.append(f)
    return out


def find_crossovers(l: FrequencyResponse, kind: str) -> list[CrossoverPoint]:
    """All gain or phase crossovers of a loop-gain curve, sorted by f.

    Gain kind: sign changes of log|L|. Phase kind: crossings of the
    unwrapped phase through -180 + k*360 for any integer k (high-order
    loops wrap several times). Each bracket on the sample grid is solved in
    closed form on the log-frequency interpolant; near-duplicates within
    1e-6 relative frequency are merged. Each point keeps the interpolated
    value; ``CrossoverPoint`` reads its margin off it and checks that it
    lies on the unit circle or at -180 deg.
    """
    if kind not in ("gain", "phase"):
        raise ValueError(f"kind must be gain or phase, got {kind!r}")
    if kind == "gain":
        levels = [0.0]
        y = np.abs(l.samples)
        _require_nonzero(y)
        np.log(y, out=y)
    else:
        y = unwrap_phase(l)  # raises ZeroMagnitudeSample
        k_min = math.ceil((float(y.min()) + 180.0) / 360.0)
        k_max = math.floor((float(y.max()) + 180.0) / 360.0)
        levels = [-180.0 + 360.0 * k for k in range(k_min, k_max + 1)]

    freqs = _merge_close(_detect_levels(y, levels, l.grid.points))
    return [CrossoverPoint(kind, f, lv) for f, lv in zip(freqs, value_at(l, freqs).tolist())]


def decompose_margins(
    l_old: FrequencyResponse, ratio: FrequencyResponse, points
) -> tuple[MarginDecomposition, ...]:
    """Margins at each ``(f_hz, kind)`` pair of the sequence ``points``
    expressed through the pre-connection loop gain, in the order given.

    Reads L_old and the curve 1+rho once each, at every frequency (the
    first one outside the span raises ``OutOfRange``), then checks each
    point's kind and |1+rho| in order and stores its terms; the identities
    against the direct computation on L_new hold to float rounding. The
    stored pm_old_newgc does not assume |L_old| = 1 at a point.
    """
    fs = [f for f, _ in points]
    l_vals, opr_vals = value_at(l_old, fs).tolist(), value_at(one_plus(ratio), fs).tolist()
    out = []
    for (f, kind), l_o, opr in zip(points, l_vals, opr_vals):
        if kind not in ("gain", "phase"):
            raise ValueError(f"kind must be gain or phase, got {kind!r}")
        if abs(opr) <= _SENSITIVITY_ATOL:
            raise SingularSensitivity(f"|1+rho| vanishes at {f} Hz")
        out.append(MarginDecomposition(
            f_hz=f,
            kind=kind,
            pm_old_newgc_deg=pm_deg(l_o),
            angle_one_plus_rho_deg=principal_angle_deg(opr),
            abs_one_plus_rho=abs(opr),
            l_old_mag=abs(l_o),
        ))
    return tuple(out)


def summarize_margins(l: FrequencyResponse, policy: MarginPolicy) -> MarginSummary:
    """Detect all gain and phase crossovers of ``l``; the summary reads its
    worst cases and verdict off them under ``policy``."""
    crossovers = find_crossovers(l, "gain") + find_crossovers(l, "phase")
    return MarginSummary(tuple(sorted(crossovers, key=lambda c: (c.f_hz, c.kind))), policy)
