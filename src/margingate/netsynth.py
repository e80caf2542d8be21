"""Impedance algebra and synthetic network generation.

Composable element trees (R, L, C, rational, Thevenin, series, parallel)
evaluate to ``FrequencyResponse`` curves. These provide analytic oracles
and reproducible test fixtures standing in for vendor impedance models.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (
    GenerationFailed,
    ResonanceSingular,
    SingularAtFrequency,
)
from .freqresp import (
    FrequencyGrid,
    FrequencyResponse,
    _blocks,
    _frozen,
    _phase_steps_deg,
    log_grid,
)

__all__ = [
    "NetworkElement",
    "Resistor",
    "Inductor",
    "Capacitor",
    "Rational",
    "Thevenin",
    "Series",
    "Parallel",
    "ROLES",
    "CASE_LABELS",
    "CaseFixture",
    "eval_network",
    "par",
    "random_case",
    "scale_network",
    "network_to_obj",
    "network_from_obj",
    "network_to_json",
    "network_from_json",
]

_NOMINAL_HZ = 50.0  # Thevenin X/R split is anchored at nominal grid frequency
_SINGULAR_RTOL = 1e-12


class NetworkElement:
    """Base class for impedance tree nodes."""


def _check_positive(name: str, value: float) -> None:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


class _Lumped(NetworkElement):
    """An R, L, C or Thevenin leaf: every field is a positive finite
    number, and its impedance has a closed form (``_parts``)."""

    def __post_init__(self):
        for fld in fields(self):
            _check_positive(fld.name, getattr(self, fld.name))


@dataclass(frozen=True)
class Resistor(_Lumped):
    r_ohm: float


@dataclass(frozen=True)
class Inductor(_Lumped):
    l_henry: float


@dataclass(frozen=True)
class Capacitor(_Lumped):
    c_farad: float


@dataclass(frozen=True)
class Rational(NetworkElement):
    """gain * prod(s - z) / prod(s - p) evaluated on s = j*2*pi*f.

    Complex zeros and poles must appear in conjugate pairs so the response
    is realizable with real coefficients. Non-passive responses are
    allowed deliberately (converter-like negative-resistance bands).
    """

    gain: float
    zeros_rad_s: tuple[complex, ...] = ()
    poles_rad_s: tuple[complex, ...] = ()

    def __post_init__(self):
        if isinstance(self.gain, bool) or not (math.isfinite(self.gain) and self.gain != 0):
            raise ValueError("rational gain must be finite and nonzero")
        for name in ("zeros", "poles"):
            roots = tuple(complex(r) for r in getattr(self, f"{name}_rad_s"))
            object.__setattr__(self, f"{name}_rad_s", roots)
            off_axis = [r for r in roots if r.imag != 0.0]
            unpaired = Counter(off_axis) - Counter(r.conjugate() for r in off_axis)
            if unpaired:
                raise ValueError(
                    f"rational {name} must come in conjugate pairs: {next(iter(unpaired))}"
                )


@dataclass(frozen=True)
class Thevenin(_Lumped):
    """Grid equivalent sized from short-circuit power.

    |Z| = V^2 / S_sc, split into a series R-L so that X/R at 50 Hz equals
    the given ratio: R = |Z| / sqrt(1 + XR^2), X(50 Hz) = R * XR.
    """

    v_ll_volt: float
    s_sc_va: float
    xr: float

    @property
    def r_ohm(self) -> float:
        zmag = self.v_ll_volt**2 / self.s_sc_va
        return zmag / math.sqrt(1.0 + self.xr**2)

    @property
    def l_henry(self) -> float:
        return self.r_ohm * self.xr / (2.0 * math.pi * _NOMINAL_HZ)


@dataclass(frozen=True)
class _Branches(NetworkElement):
    """Two or more child elements, stored as a tuple."""

    children: tuple[NetworkElement, ...]

    def __post_init__(self):
        kids = tuple(self.children)
        if len(kids) < 2:
            raise ValueError("series/parallel need at least two children")
        for k in kids:
            if not isinstance(k, NetworkElement):
                raise ValueError(f"child is not a NetworkElement: {k!r}")
        object.__setattr__(self, "children", kids)


class Series(_Branches):
    """Children in series: their impedances add."""


class Parallel(_Branches):
    """Children in parallel: their admittances add (``_par_sum``)."""


# the element table: an element's JSON type tag is its class name in lower case
_TYPES = {
    cls.__name__.lower(): cls
    for cls in (Resistor, Inductor, Capacitor, Thevenin, Rational, Series, Parallel)
}
_TAGS = {cls: tag for tag, cls in _TYPES.items()}


def _tag(desc: NetworkElement) -> str:
    """The element's JSON type tag; raises for an element not in ``_TYPES``."""
    if type(desc) not in _TAGS:
        raise ValueError(f"unknown network element {type(desc).__name__}")
    return _TAGS[type(desc)]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _par_sum(branches, f=None):
    """Impedance 1 / sum_k Y_k of parallel branches.

    ``branches`` yields each impedance as (real, imag) parts, floats or
    arrays of one shape (``f`` gives the shape where the first reactance is
    a float), and may be a generator, as ``Parallel`` nodes hand them over:
    each admittance Y_k = conj(Z_k) / |Z_k|^2 is added in real arithmetic
    (r/d and x/d, d = r^2 + x^2) as its branch arrives. The operands are
    never written to.

    Raises ``ResonanceSingular`` where |sum_k Y_k| <= 1e-12 * max_k |Y_k|
    (genuine antiresonance, not rounding) or where some |Z_k|^2 is zero;
    given the sample frequencies ``f``, the message names the first bad
    one. |Z_k| must lie within about 1e-154..1e154 ohm for |Z_k|^2 to be a
    float64.
    """
    g = None
    for r, x in branches:
        if g is None:
            # a float reactance is a resistor's +0.0: f gives the shape
            g, s, d_min, d, t = np.empty((5,) + (x if isinstance(x, np.ndarray) else f).shape)
            g.fill(-0.0)  # -0.0 + y is y, signed zeros included
            s.fill(-0.0)
            d_min.fill(np.inf)
        np.multiply(x, x, out=d)
        d += np.square(r)
        np.minimum(d_min, d, out=d_min)
        with np.errstate(divide="ignore", invalid="ignore"):  # d = 0 fails the guard
            g += np.divide(r, d, out=t)
            s += np.divide(x, d, out=t)
    # |sum Y|^2 * min_k |Z_k|^2 is (|sum Y| / max_k |Y_k|)^2; a NaN fails too
    np.multiply(g, g, out=d)
    d += np.multiply(s, s, out=t)
    with np.errstate(invalid="ignore"):
        ok = np.multiply(d, d_min, out=t) > _SINGULAR_RTOL**2
    if not ok.all():
        i = int(np.argmin(ok))
        near = "" if f is None else f" near {np.ravel(f)[i]} Hz"
        if d_min[i] == 0.0:
            raise ResonanceSingular(f"parallel branch has |Z| ~ 0{near}")
        raise ResonanceSingular(f"parallel branches cancel: |sum of 1/Z| ~ 0{near}")
    # 1 / (g - js) = (g + js) / (g^2 + s^2)
    out = np.empty(g.shape, dtype=complex)
    np.divide(g, d, out=out.real)
    np.divide(s, d, out=out.imag)
    return out


def par(z1, z2, f=None):
    """Parallel combination of two impedances: the guarded admittance sum
    ``_par_sum`` that ``Parallel`` nodes use.

    Raises ``ResonanceSingular`` where |1/Z1 + 1/Z2| <= 1e-12 *
    max(1/|Z1|, 1/|Z2|), in exact arithmetic |Z1+Z2| <= 1e-12 *
    max(|Z1|, |Z2|), or where an operand is zero; given the sample
    frequencies ``f``, the message names the first bad one. The operands
    are never written to.
    """
    zs = np.broadcast_arrays(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex))
    out = _par_sum(((z.real, z.imag) for z in map(np.atleast_1d, zs)), f)
    return complex(out[0]) if zs[0].ndim == 0 else out


def _parts(desc: NetworkElement, f: np.ndarray, w: np.ndarray):
    """The (real, imag) parts of ``desc`` at ``f`` (``w = 2*pi*f``), each a
    float or a fresh array that the caller may write to.

    Leaves are closed forms with the bits of numpy's complex arithmetic:
    R is r + 0j, j*w*L is 0 + j*fl(w*L) and 1/(j*w*C) is +0 - j/fl(w*C).
    A float reactance is a resistor's +0.0, and no array is built for it.
    A Series sums its children's parts in child order, in place; numpy's
    complex addition is componentwise, so these are the bits of the complex
    sum. A +0.0 reactance changes only a sum of -0.0, which needs every
    term -0.0 (w*C overflowing) and so no inductive one: it is added once,
    at the end, to a Series with no Inductor or Thevenin child. A Parallel
    hands its children's parts to ``_par_sum``, and a Rational returns its
    numerator's.
    """
    kind = _tag(desc)
    if kind == "resistor":
        return float(desc.r_ohm), 0.0
    if kind == "capacitor":
        x = w * desc.c_farad
        return 0.0, np.divide(-1.0, x, out=x)
    if kind in ("inductor", "thevenin"):
        return float(getattr(desc, "r_ohm", 0.0)), w * desc.l_henry
    if kind == "parallel":
        try:
            z = _par_sum((_parts(c, f, w) for c in desc.children), f)
        except ResonanceSingular as exc:
            raise SingularAtFrequency(str(exc)) from None
        return z.real, z.imag
    if kind == "rational":
        s = 1j * w
        den = np.ones(f.size, dtype=complex)
        for p in desc.poles_rad_s:
            d = s - p
            # |s| = w exactly: hypot(0, w)
            close = np.abs(d) <= _SINGULAR_RTOL * np.maximum(w, abs(p))
            if np.any(close):
                f_bad = f[np.argmax(close)]
                raise SingularAtFrequency(
                    f"rational pole {p} on the evaluated axis near {f_bad} Hz"
                )
            den *= d
        num = np.full(f.size, desc.gain, dtype=complex)
        for z in desc.zeros_rad_s:
            num *= s - z
        num /= den
        return num.real, num.imag
    re = im = None
    zero = False
    for child in desc.children:
        r, x = _parts(child, f, w)
        if re is None:
            re = r
        elif isinstance(r, np.ndarray) and not isinstance(re, np.ndarray):
            r += re  # a + b is b + a, bit for bit
            re = r
        else:
            re += r
        if not isinstance(x, np.ndarray):
            zero = True  # a resistor's +0.0 reactance, added below if it matters
        elif im is None:
            im = x
        else:
            im += x
    if im is None:
        return re, 0.0
    if zero and not any(isinstance(c, (Inductor, Thevenin)) for c in desc.children):
        im += 0.0
    return re, im


def eval_network(
    desc: NetworkElement, grid: FrequencyGrid, label: str = ""
) -> FrequencyResponse:
    """Evaluate an element tree to an impedance curve on the grid.

    The tree is evaluated one block of frequencies at a time
    (``freqresp._blocks``), so every temporary, w = 2*pi*f included, is a
    cache-sized block, and each block is written into one output array; the
    bits are those of a whole-grid evaluation. Blocks meet faults in
    frequency order, so a singular tree is evaluated again on the whole
    grid, which raises for the first faulty node in evaluation order at its
    first bad frequency.
    """
    f = grid.points
    samples = np.empty(f.size, dtype=complex)
    try:
        for block in _blocks(f.size):
            fb = f[block]
            samples.real[block], samples.imag[block] = _parts(desc, fb, 2.0 * math.pi * fb)
    except SingularAtFrequency:
        samples.real, samples.imag = _parts(desc, f, 2.0 * math.pi * f)
    return FrequencyResponse(grid=grid, samples=_frozen(samples), unit="ohm", label=label)


# scale_network's rule per field; the fields not named keep their value
_SCALED = {
    "r_ohm": lambda v, k: v * k,
    "l_henry": lambda v, k: v * k,
    "c_farad": lambda v, k: v / k,
    "v_ll_volt": lambda v, k: v * math.sqrt(k),  # |Z| = V^2 / S_sc
    "gain": lambda v, k: v * k,
    "children": lambda v, k: tuple(scale_network(c, k) for c in v),
}


def scale_network(desc: NetworkElement, k: float) -> NetworkElement:
    """Scale the impedance of a tree by k > 0 (R,L *= k; C /= k)."""
    _check_positive("scale factor", k)
    cls = _TYPES[_tag(desc)]
    values = {fld.name: getattr(desc, fld.name) for fld in fields(cls)}
    return cls(**{n: _SCALED[n](v, k) if n in _SCALED else v for n, v in values.items()})


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_ROOT_FIELDS = ("zeros_rad_s", "poles_rad_s")  # complex roots as [re, im] pairs


def network_to_obj(desc: NetworkElement):
    obj = {"type": _tag(desc)}
    for fld in fields(desc):
        v = getattr(desc, fld.name)
        if fld.name == "children":
            v = [network_to_obj(c) for c in v]
        elif fld.name in _ROOT_FIELDS:
            v = [[r.real, r.imag] for r in v]
        obj[fld.name] = v
    return obj


def network_from_obj(obj) -> NetworkElement:
    """Element tree from its JSON object.

    Malformed input raises ``ValueError`` naming the element and the key.
    """
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _TYPES:
        raise ValueError(f"not a known network element: {obj!r}")
    kwargs = {}
    for fld in fields(_TYPES[kind]):
        if fld.name not in obj and fld.default is not MISSING:
            continue
        v = obj.get(fld.name)
        if fld.name == "children":
            if not isinstance(v, list):
                raise ValueError(f"{kind} element: 'children' must be a list, got {v!r}")
            kwargs["children"] = tuple(network_from_obj(c) for c in v)
            continue
        try:
            parts = [x for pair in v for x in pair] if fld.name in _ROOT_FIELDS else [v]
            if any(isinstance(x, bool) for x in parts):  # float(true) would be 1.0
                raise TypeError(v)
            kwargs[fld.name] = (
                tuple(complex(re, im) for re, im in v) if fld.name in _ROOT_FIELDS else float(v)
            )
        except (TypeError, ValueError):
            raise ValueError(f"{kind} element: bad or missing {fld.name!r}: {v!r}") from None
    return _TYPES[kind](**kwargs)


def network_to_json(desc: NetworkElement) -> bytes:
    return (json.dumps(network_to_obj(desc), indent=2) + "\n").encode("utf-8")


def network_from_json(data: bytes) -> NetworkElement:
    return network_from_obj(json.loads(data.decode("utf-8")))


# ---------------------------------------------------------------------------
# random fixtures
# ---------------------------------------------------------------------------

# a study case's three roles, in input order, and the curve label of each
ROLES = ("z_ppm_existing", "z_net_old", "z_ppm_new")
CASE_LABELS = ("Z_ppm_existing", "Z_net_old", "Z_ppm_new")


@dataclass(frozen=True)
class CaseFixture:
    """Synthetic stand-in for one interconnection study case."""

    z_ppm_existing: NetworkElement
    z_net_old: NetworkElement
    z_ppm_new: NetworkElement
    grid: FrequencyGrid

    def responses(self) -> tuple[FrequencyResponse, FrequencyResponse, FrequencyResponse]:
        trees = (self.z_ppm_existing, self.z_net_old, self.z_ppm_new)
        return tuple(eval_network(d, self.grid, label=lb) for d, lb in zip(trees, CASE_LABELS))


def _rand_string_branch(rng) -> NetworkElement:
    # aggregated wind string: series R-L, sometimes with inter-array C
    r = Resistor(rng.uniform(0.5, 3.0))
    l = Inductor(rng.uniform(1.0, 8.0) * 1e-3)
    if rng.random() < 0.5:
        return Series((r, l, Capacitor(rng.uniform(50.0, 400.0) * 1e-6)))
    return Series((r, l))


def _rand_ppm_tree(rng) -> NetworkElement:
    # transformer R-L in front of a damped shunt tank; inductive at both ends
    r_s = Resistor(rng.uniform(0.3, 1.0))
    l_s = Inductor(rng.uniform(1.0, 5.0) * 1e-3)
    tank = Parallel(
        (
            Series((Resistor(rng.uniform(0.3, 2.0)), Inductor(rng.uniform(1.0, 6.0) * 1e-3))),
            Capacitor(rng.uniform(2.0, 20.0) * 1e-6),
        )
    )
    parts: list[NetworkElement] = [r_s, l_s, tank]
    if rng.random() < 0.3:
        # converter-like biquad wiggle, stable poles, conjugate pairs
        wn = 2.0 * math.pi * rng.uniform(200.0, 1500.0)
        zp = rng.uniform(0.1, 0.6)
        zz = rng.uniform(0.1, 0.6)
        wz = wn * rng.uniform(0.6, 1.6)
        poles = (
            complex(-zp * wn, wn * math.sqrt(1 - zp**2)),
            complex(-zp * wn, -wn * math.sqrt(1 - zp**2)),
        )
        zeros = (
            complex(-zz * wz, wz * math.sqrt(1 - zz**2)),
            complex(-zz * wz, -wz * math.sqrt(1 - zz**2)),
        )
        gain = rng.uniform(0.2, 1.0) * (wn / wz) ** 2
        parts.append(Rational(gain, zeros, poles))
    return Series(tuple(parts))


def _build_case(rng, n_strings: int, grid: FrequencyGrid) -> CaseFixture:
    z_grid = Thevenin(66e3, rng.uniform(4e8, 2e9), rng.uniform(3.0, 12.0))
    strings = tuple(_rand_string_branch(rng) for _ in range(n_strings))
    z_net_old = Parallel((z_grid,) + strings)
    znet = eval_network(z_net_old, grid).samples

    ppm_raw = _rand_ppm_tree(rng)
    zppm_raw = eval_network(ppm_raw, grid).samples
    l_raw = np.abs(znet) / np.abs(zppm_raw)
    # center |L_old| geometrically around 1 so a gain crossover exists
    k_ppm = math.sqrt(float(l_raw.max()) * float(l_raw.min()))
    if float(l_raw.max() / l_raw.min()) < 4.0:
        raise ResonanceSingular("flat |L|; retry")
    z_ppm = scale_network(ppm_raw, k_ppm)

    new_raw = _rand_ppm_tree(rng)
    znew_raw = eval_network(new_raw, grid).samples
    rho_raw = np.abs(znet) / np.abs(znew_raw)
    k_new = math.exp(float(np.mean(np.log(rho_raw)))) * rng.uniform(0.3, 3.0)
    z_new = scale_network(new_raw, 1.0 / k_new)

    # conditioning guards: bounded rho, no near-cancellation of 1+rho,
    # well-sampled phases (keeps factored/direct identities in float range)
    rho = znet / eval_network(z_new, grid).samples
    if float(np.abs(rho).min()) < 2e-3 or float(np.abs(rho).max()) > 2e2:
        raise ResonanceSingular("ill-conditioned rho; retry")
    one_plus = 1.0 + rho
    if float(np.abs(one_plus).min()) < 2e-2:
        raise ResonanceSingular("1+rho near zero; retry")
    l_old = znet / eval_network(z_ppm, grid).samples
    for z in (l_old, one_plus):
        if np.max(np.abs(_phase_steps_deg(np.degrees(np.angle(z))))) > 90.0:
            raise ResonanceSingular("under-sampled phase; retry")

    return CaseFixture(z_ppm, z_net_old, z_new, grid)


def random_case(
    seed: int, n_strings: int, span: tuple[float, float]
) -> CaseFixture:
    """Deterministic random study-case fixture.

    Generates passive RLC (plus occasional stable rational) trees for the
    existing PPM, the pre-connection network and the new PPM, scaled so the
    old loop gain crosses unit magnitude. Evaluation is non-singular on a
    2000-point log grid over ``span``. Identical seeds reproduce identical
    fixtures; generation retries with recorded sub-seeds before failing.
    """
    if n_strings < 1:
        raise ValueError("n_strings must be >= 1")
    lo, hi = float(span[0]), float(span[1])
    if not (0 < lo < hi):
        raise ValueError(f"invalid span {span!r}")
    grid = log_grid(lo, hi, 2000)

    tried: list[int] = []
    for sub in range(16):
        rng = np.random.default_rng([int(seed), sub])
        try:
            return _build_case(rng, n_strings, grid)
        except (SingularAtFrequency, ResonanceSingular):
            tried.append(sub)
    raise GenerationFailed(
        f"no usable fixture for seed {seed} after sub-seeds {tried}"
    )
