"""Minor-loop gain construction and update algebra.

The loop gain is the ratio of network-side impedance to PPM impedance.
Adding a plant in parallel updates it through the impedance ratio rho:
L_new = L_old / (1 + rho). Both the direct quotient and the factored
update are first-class so they can be cross-checked against each other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SingularSensitivity, ZeroDenominator
from .freqresp import FrequencyResponse

__all__ = [
    "LoopGain",
    "loop_gain",
    "rho",
    "update_loop_gain",
    "one_plus",
    "consistency_error",
]

_SENSITIVITY_ATOL = 1e-12
_REL_FLOOR = 1e-30


@dataclass(frozen=True)
class LoopGain:
    """A dimensionless loop-gain curve."""

    response: FrequencyResponse


def _require_same_grid(a: FrequencyResponse, b: FrequencyResponse) -> None:
    if a.grid != b.grid:
        raise GridMismatch("curves are not on a common grid; align() first")


def _merged_meta(a: FrequencyResponse, b: FrequencyResponse) -> dict:
    return {
        "sequence": a.sequence if a.sequence == b.sequence else "untagged",
        "operating_point": a.operating_point
        if a.operating_point == b.operating_point
        else "",
    }


def _quotient(
    num: FrequencyResponse, den: FrequencyResponse, label: str, den_name: str
) -> FrequencyResponse:
    """Pointwise num / den as a dimensionless curve with merged metadata."""
    _require_same_grid(num, den)
    if np.any(den.samples == 0):
        raise ZeroDenominator(f"{den_name} has a zero sample")
    return FrequencyResponse(
        grid=num.grid,
        samples=num.samples / den.samples,
        unit="dimensionless",
        label=label,
        **_merged_meta(num, den),
    )


def loop_gain(
    z_net: FrequencyResponse, z_ppm: FrequencyResponse, label: str = ""
) -> LoopGain:
    """Minor-loop gain Z_net / Z_ppm (direct construction)."""
    label = label or f"{z_net.label or 'Z_net'}/{z_ppm.label or 'Z_ppm'}"
    resp = _quotient(z_net, z_ppm, label, "PPM impedance")
    return LoopGain(resp)


def rho(
    z_net_old: FrequencyResponse, z_new: FrequencyResponse, label: str = "rho"
) -> FrequencyResponse:
    """Impedance ratio Z_net,old / Z_new of the newly paralleled plant."""
    return _quotient(z_net_old, z_new, label, "new PPM impedance")


def one_plus(ratio: FrequencyResponse) -> FrequencyResponse:
    """The curve 1 + rho, interpolated as a curve in its own right.

    Margin decomposition and the r = |1+rho| diagnostic must interpolate
    1+rho itself (not add 1 to interpolated rho) to stay consistent with
    the factored loop-gain curve between grid points. Built once per ratio
    and kept on the (immutable) ratio, like its interpolation tables: the
    loop-gain update, every decomposition and the limit curve share it.
    """
    memo = ratio.__dict__
    if "_one_plus" not in memo:
        memo["_one_plus"] = ratio.with_samples(1.0 + ratio.samples, unit="dimensionless", label="1+rho")
    return memo["_one_plus"]


def update_loop_gain(l_old: FrequencyResponse, ratio: FrequencyResponse) -> LoopGain:
    """Updated loop gain L_old * (1 / (1 + rho)).

    Raises ``SingularSensitivity`` where |1+rho| falls below 1e-12.
    """
    _require_same_grid(l_old, ratio)
    denom = one_plus(ratio).samples
    if float(np.min(np.abs(denom))) <= _SENSITIVITY_ATOL:
        raise SingularSensitivity("|1+rho| vanishes on the grid")
    resp = FrequencyResponse(
        grid=l_old.grid,
        samples=l_old.samples * (1.0 / denom),
        unit="dimensionless",
        label="L_new",
        **_merged_meta(l_old, ratio),
    )
    return LoopGain(resp)


def consistency_error(
    l_direct: FrequencyResponse, l_factored: FrequencyResponse
) -> float:
    """Worst pointwise relative deviation between two loop-gain curves.

    max over frequency of |direct - factored| / max(|direct|, 1e-30); the
    floor keeps the metric defined where the loop gain is near zero.
    """
    _require_same_grid(l_direct, l_factored)
    num = np.abs(l_direct.samples - l_factored.samples)
    den = np.maximum(np.abs(l_direct.samples), _REL_FLOOR)
    return float(np.max(num / den))
