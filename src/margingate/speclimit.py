"""Headroom and maximum-allowable-impedance specification.

At each critical frequency the phase-margin headroom of the existing
connection is dPM = PM_old - PM_min. While headroom remains, the new
plant's impedance magnitude must stay below

    Z_limit = |Z_net,old| / (2 * sin(dPM / 2))

a sufficient condition derived from the geometric bound
|r*e^{j*theta} - 1| >= |e^{j*theta} - 1| = 2*|sin(theta/2)|. That bound
needs r = |1+rho| >= 1; frequencies where the diagnostic shows r < 1 are
flagged rather than silently trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteValue, NonpositiveImpedanceMagnitude
from .freqresp import FrequencyResponse, value_at
from .loopgain import one_plus
from .margins import MarginPolicy, pm_deg

__all__ = [
    "MarginPolicy",
    "LimitCurve",
    "ComplianceRecord",
    "impedance_limit",
    "limit_curve",
    "check_compliance",
    "FLAG_PREEXISTING",
    "FLAG_R_CAVEAT",
    "FLAG_UNCONSTRAINED",
]

FLAG_PREEXISTING = "preexisting_violation"
FLAG_R_CAVEAT = "bound_caveat_r_lt_1"
FLAG_UNCONSTRAINED = "unconstrained"


def _sin_deg(x: float) -> float:
    """Sine of an angle in degrees, for the 0 < x < 90 that ``_limit_rule``
    passes; exact at 30, where sin(radians(30)) is one ulp below 1/2."""
    return 0.5 if x == 30.0 else math.sin(math.radians(x))


def _limit_rule(
    delta_pm: float, z_net_old_mag: float, r: float | None = None
) -> tuple[float | None, frozenset[str]]:
    """The limit and flags at one frequency, read off the headroom,
    |Z_net,old| and, when known, r = |1+rho|. Refuses a |Z_net,old| that
    is not positive and finite, and a headroom that is not finite."""
    if not (math.isfinite(z_net_old_mag) and z_net_old_mag > 0.0):
        raise NonpositiveImpedanceMagnitude(
            f"|Z_net,old| must be positive, got {z_net_old_mag!r}"
        )
    if not math.isfinite(delta_pm):
        raise NonFiniteValue(f"phase-margin headroom must be finite, got {delta_pm!r}")
    flags = frozenset({FLAG_R_CAVEAT}) if r is not None and r < 1.0 else frozenset()
    if delta_pm <= 0.0:
        return None, flags | {FLAG_PREEXISTING}
    if delta_pm >= 180.0:
        return z_net_old_mag / 2.0, flags | {FLAG_UNCONSTRAINED}
    return z_net_old_mag / (2.0 * _sin_deg(delta_pm / 2.0)), flags


@dataclass(frozen=True)
class LimitCurve:
    """Per-frequency headroom and |Z_net,old| with diagnostics.

    ``r_diag`` carries |1+rho| when rho was available, else None. The
    limit and the flags are read off these by one rule.
    """

    freqs: tuple[float, ...]
    delta_pm_deg: tuple[float, ...]
    z_net_old_mag_ohm: tuple[float, ...]
    r_diag: tuple[float | None, ...]

    def __post_init__(self):
        n = len(self.freqs)
        for name in ("delta_pm_deg", "z_net_old_mag_ohm", "r_diag"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length must match freqs")
        self._rows  # every row must pass the limit rule

    @cached_property
    def _rows(self) -> list[tuple[float | None, frozenset[str]]]:
        """Each row's limit and flags: the limit rule, applied once per row."""
        return [
            _limit_rule(*row)
            for row in zip(self.delta_pm_deg, self.z_net_old_mag_ohm, self.r_diag)
        ]

    @property
    def z_limit_ohm(self) -> tuple[float | None, ...]:
        """Maximum allowable |Z_new|; None where headroom is exhausted."""
        return tuple(z for z, _ in self._rows)

    @property
    def flags(self) -> tuple[frozenset[str], ...]:
        """The caveats of each limit (FLAG_* names)."""
        return tuple(fl for _, fl in self._rows)

    def __len__(self) -> int:
        return len(self.freqs)


@dataclass(frozen=True)
class ComplianceRecord:
    """One Table-style row: measured |Z_new| against the limit."""

    f_hz: float
    z_new_mag_ohm: float
    z_limit_ohm: float | None

    @property
    def verdict(self) -> str:
        """Compliant when |Z_new| is at most the limit (boundary-inclusive);
        a violation with no limit to state."""
        ok = self.z_limit_ohm is not None and self.z_new_mag_ohm <= self.z_limit_ohm
        return "compliant" if ok else "violation"


def impedance_limit(
    z_net_old_mag: float, pm_old_deg: float, policy: MarginPolicy
) -> tuple[float | None, float, frozenset[str]]:
    """Maximum allowable new-plant impedance magnitude at one frequency.

    Returns ``(z_limit, delta_pm, flags)``. With headroom exhausted
    (delta_pm <= 0) there is no limit to state: the existing plant already
    violates the requirement, flagged ``preexisting_violation``. Headroom
    of 180 deg or more clamps the sine argument at 90 deg (limit
    |Z_net,old|/2) so the bound stays monotone-conservative, flagged
    ``unconstrained``.
    """
    delta_pm = pm_old_deg - policy.pm_min_deg
    z_limit, flags = _limit_rule(delta_pm, z_net_old_mag)
    return z_limit, delta_pm, flags


def limit_curve(
    l_old: FrequencyResponse,
    z_net_old: FrequencyResponse,
    freqs,
    policy: MarginPolicy,
    ratio: FrequencyResponse | None = None,
) -> LimitCurve:
    """Evaluate the impedance limit over a set of critical frequencies.

    ``freqs`` is either the detected new gain crossovers or an
    operator-specified critical set. The headroom there is PM_old - PM_min,
    with PM_old read off the interpolated L_old (a Bode-plot readout: |L_old|
    need not be 1 at the frequency). When ``ratio`` (rho) is given, the
    r = |1+rho| diagnostic is recorded and r < 1 raises the
    ``bound_caveat_r_lt_1`` flag: the geometric bound underlying the limit
    is not guaranteed in that regime.
    """
    fs = sorted(set(float(f) for f in freqs))
    dpms = tuple(pm_deg(z) - policy.pm_min_deg for z in value_at(l_old, fs).tolist())
    znet_mags = tuple(np.abs(value_at(z_net_old, fs)).tolist())
    if ratio is None:
        r_diags: tuple[float | None, ...] = (None,) * len(fs)
    else:
        r_diags = tuple(np.abs(value_at(one_plus(ratio), fs)).tolist())
    return LimitCurve(tuple(fs), dpms, znet_mags, r_diags)


def check_compliance(
    z_new: FrequencyResponse, limits: LimitCurve
) -> list[ComplianceRecord]:
    """Check |Z_new| against the limit at every limit frequency.

    Each record carries the limit curve's value: frequencies flagged as
    pre-existing violations have none, so ``ComplianceRecord.verdict``
    gives a violation there.
    """
    z_mags = np.abs(value_at(z_new, limits.freqs)).tolist()
    return [ComplianceRecord(*row) for row in zip(limits.freqs, z_mags, limits.z_limit_ohm)]
