"""Minor-loop gain construction and update algebra.

The loop gain is the ratio of network-side impedance to PPM impedance.
Adding a plant in parallel updates it through the impedance ratio rho:
L_new = L_old / (1 + rho), formed one block of frequencies at a time, so
no whole-grid 1+rho or reciprocal is held. The factored update is
cross-checked against the direct quotient (Z_net || Z_new) / Z_ppm, which
is built the same way and never kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, MarginGateError, SingularSensitivity
from .freqresp import FrequencyResponse, _blocks, _frozen, _require_finite, _require_nonzero
from .netsynth import par

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


def _derived(a: FrequencyResponse, b: FrequencyResponse, samples, label: str) -> FrequencyResponse:
    """The dimensionless curve of ``samples``, just built from ``a`` and ``b``, on their
    grid; a sequence tag or operating point is kept only where ``a`` and ``b`` agree."""
    return FrequencyResponse(
        grid=a.grid, samples=_frozen(samples), unit="dimensionless", label=label,
        sequence=a.sequence if a.sequence == b.sequence else "untagged",
        operating_point=a.operating_point if a.operating_point == b.operating_point else "",
    )


def _quotient(
    num: FrequencyResponse, den: FrequencyResponse, label: str, den_name: str
) -> FrequencyResponse:
    """Pointwise num / den as a dimensionless curve (``_derived``)."""
    _require_same_grid(num, den)
    _require_nonzero(den.samples, den_name)
    return _derived(num, den, num.samples / den.samples, label)


def loop_gain(
    z_net: FrequencyResponse, z_ppm: FrequencyResponse, label: str = ""
) -> LoopGain:
    """Minor-loop gain Z_net / Z_ppm (direct construction)."""
    label = label or f"{z_net.label or 'Z_net'}/{z_ppm.label or 'Z_ppm'}"
    resp = _quotient(z_net, z_ppm, label, "PPM impedance")
    return LoopGain(resp)


def rho(z_net_old: FrequencyResponse, z_new: FrequencyResponse) -> FrequencyResponse:
    """Impedance ratio Z_net,old / Z_new of the newly paralleled plant."""
    return _quotient(z_net_old, z_new, "rho", "new PPM impedance")


def one_plus(ratio: FrequencyResponse) -> FrequencyResponse:
    """The curve 1 + rho, interpolated as a curve in its own right.

    Margin decomposition and the r = |1+rho| diagnostic must interpolate
    1+rho itself (not add 1 to interpolated rho) to stay consistent with
    the factored loop-gain curve between grid points. Built afresh on each
    call and kept nowhere: the decompositions and the limit curve each
    build their own. The loop-gain update forms 1+rho block by block and
    neither builds nor reads it.
    """
    return _derived(ratio, ratio, 1.0 + ratio.samples, "1+rho")


def update_loop_gain(l_old: FrequencyResponse, ratio: FrequencyResponse) -> LoopGain:
    """Updated loop gain L_old * (1 / (1 + rho)).

    Formed one block of frequencies at a time straight into one output
    array, with the bits of the whole-grid product. Raises
    ``SingularSensitivity`` naming the first grid frequency where |1+rho|
    falls to 1e-12 or below.
    """
    _require_same_grid(l_old, ratio)
    f = l_old.grid.points
    samples = np.empty(f.size, dtype=complex)
    for block in _blocks(f.size):
        opr = 1.0 + ratio.samples[block]
        small = np.abs(opr) <= _SENSITIVITY_ATOL
        if small.any():
            raise SingularSensitivity(f"|1+rho| vanishes at {f[block][np.argmax(small)]} Hz")
        np.divide(1.0, opr, out=opr)  # its reciprocal, in place
        np.multiply(l_old.samples[block], opr, out=samples[block])
        del opr, small  # before the next block builds its own
    return LoopGain(_derived(l_old, ratio, samples, "L_new"))


def consistency_error(
    z_net_old: FrequencyResponse,
    z_ppm: FrequencyResponse,
    z_new: FrequencyResponse,
    l_factored: FrequencyResponse,
) -> float:
    """Worst pointwise relative deviation of the factored loop gain from
    the direct one, L_direct = (Z_net,old || Z_new) / Z_ppm.

    max over frequency of |direct - factored| / max(|direct|, 1e-30); the
    floor keeps the metric defined where the loop gain is near zero.
    L_direct is built one block of frequencies at a time, with the guards
    of ``par``, of curve samples and of ``loop_gain``. Blocks meet faults
    in frequency order, so a fault is met again on the whole grid, which
    raises the error the whole-grid construction meets first.
    """
    for curve in (z_ppm, z_new, l_factored):
        _require_same_grid(z_net_old, curve)
    f = z_net_old.grid.points

    def worst(block) -> float:
        direct = par(z_net_old.samples[block], z_new.samples[block], f[block])
        _require_finite(direct)
        _require_nonzero(z_ppm.samples[block], "PPM impedance")
        direct /= z_ppm.samples[block]
        _require_finite(direct)
        num = np.abs(direct - l_factored.samples[block])
        num /= np.maximum(np.abs(direct), _REL_FLOOR)
        return float(np.max(num))

    try:
        return max(worst(block) for block in _blocks(f.size))
    except MarginGateError:
        return worst(slice(None))
