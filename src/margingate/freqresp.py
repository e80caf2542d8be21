"""Complex frequency-response curves.

Data model, text-table I/O, log-frequency interpolation, grid alignment and
phase unwrapping. Everything downstream (impedances, loop gains, ratios)
is a ``FrequencyResponse``; the ``unit`` field distinguishes ohm curves
from dimensionless ones.

Objects are immutable after construction and safe to share across threads.
A curve or grid holds only arrays that nobody else can write: it takes
over an array that ``np.asarray`` had to make, or one given read-only that
owns its memory, and copies any other. Every producer in the package marks
the array it has just built read-only (``_frozen``) and hands it over
without a copy; whoever gives a read-only array that owns its memory must
not make it writable again, nor keep a writable view of it.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DisjointSpans,
    EmptyTable,
    NonFiniteValue,
    NonMonotonicFrequency,
    OutOfRange,
    UnknownHeader,
    ZeroMagnitudeSample,
)

__all__ = [
    "FrequencyGrid",
    "FrequencyResponse",
    "log_grid",
    "parse_response",
    "write_response",
    "value_at",
    "align",
    "unwrap_phase",
    "normalize_deg",
    "principal_angle_deg",
]

UNITS = ("ohm", "dimensionless")
SEQUENCES = ("positive", "negative", "untagged")

# header -> (unit, row form)
_HEADERS = {
    "freq_hz,re_ohm,im_ohm": ("ohm", "rect"),
    "freq_hz,mag_ohm,phase_deg": ("ohm", "polar"),
    "freq_hz,re,im": ("dimensionless", "rect"),
    "freq_hz,mag,phase_deg": ("dimensionless", "polar"),
}
_META_KEYS = ("sequence", "label", "operating_point")
_COMMA, _NEWLINE = ord(","), ord("\n")
_ROW_SEPS = np.array([_COMMA, _COMMA, _NEWLINE], dtype=np.uint8)
_BLOCK_ROWS = 2048
_BLOCK_POINTS = 16384  # frequencies per block of a blocked stage (256 KiB of complex)
_BRACKET = np.array([[1], [0]])  # hi - _BRACKET: rows of lower and upper bracket ends


def normalize_deg(angle: float) -> float:
    """Reduce an angle in degrees to the interval (-180, 180]."""
    r = math.fmod(angle + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


def principal_angle_deg(z: complex) -> float:
    """Principal angle of a complex value in degrees, in (-180, 180]."""
    return normalize_deg(math.degrees(math.atan2(z.imag, z.real)))


def _phase_steps_deg(principal: np.ndarray) -> np.ndarray:
    """Steps of a principal-phase series (degrees), wrapped to [-180, 180)
    by ``_wrap_steps_deg``."""
    return _wrap_steps_deg(np.diff(principal))


def _wrap_steps_deg(d: np.ndarray) -> np.ndarray:
    """Wrap differences of principal phases (degrees) to [-180, 180), in
    place; returns ``d``.

    A step of exactly 180 deg resolves toward the negative side
    (capacitive-to-inductive transitions wrap downward).
    """
    turns = d + 180.0
    turns /= 360.0
    np.floor(turns, out=turns)
    turns *= 360.0
    d -= turns
    return d


def _blocks(n: int):
    """Slices cutting ``range(n)`` into blocks of ``_BLOCK_POINTS``.

    Every block starts at a multiple of ``_BLOCK_POINTS``, so an elementwise
    stage run block by block meets numpy's SIMD loops with the alignment and
    the remainder elements of the whole-array run, and gives its bits.
    """
    for start in range(0, n, _BLOCK_POINTS):
        yield slice(start, min(start + _BLOCK_POINTS, n))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array just built read-only, so a curve or grid takes it over;
    returns ``a``."""
    a.setflags(write=False)
    return a


def _held(given, dtype) -> np.ndarray:
    """``given`` as a read-only ``dtype`` array, taken over when nobody else
    can write it and else copied (the rule of the module docstring)."""
    a = np.asarray(given, dtype=dtype)
    if not a.flags.owndata or (a is given and a.flags.writeable):
        a = a.copy()
    return _frozen(a)


def _require_nonzero(z: np.ndarray, name: str = "curve") -> None:
    """Raise ``ZeroMagnitudeSample``, naming ``name``, if any value of ``z`` is zero:
    the one guard of log-magnitudes, phases and quotient denominators."""
    if not z.all():
        raise ZeroMagnitudeSample(f"{name} has a zero sample")


def _require_finite(z: np.ndarray) -> None:
    """Raise ``NonFiniteValue`` unless every component of ``z`` is finite."""
    if not np.all(np.isfinite(z.real)) or not np.all(np.isfinite(z.imag)):
        raise NonFiniteValue("samples contain NaN or infinite components")


def _fields_equal(self, other):
    """The ``__eq__`` of grids and curves: every field equal, arrays by value."""
    if not isinstance(other, type(self)):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, positive frequency axis in Hz (length >= 2).

    ``points`` is held read-only: an array that ``np.asarray`` had to make,
    or one given read-only that owns its memory, is taken over as is (its
    owner must not make it writable again); any other array is copied.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _held(self.points, float)
        if pts.ndim != 1 or pts.size < 2:
            raise NonMonotonicFrequency("grid needs at least two frequencies")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteValue("grid contains non-finite frequencies")
        if pts[0] <= 0.0 or np.any(np.diff(pts) <= 0.0):
            if pts[0] <= 0.0:
                where = f"point 1 ({float(pts[0])!r} Hz) is not positive"
            else:
                k = int(np.argmax(np.diff(pts) <= 0.0)) + 2  # 1-based point index
                where = (f"point {k} ({float(pts[k - 1])!r} Hz) is not above "
                         f"point {k - 1} ({float(pts[k - 2])!r} Hz)")
            raise NonMonotonicFrequency(
                f"frequencies must be positive and strictly increasing; {where}"
            )
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    __eq__ = _fields_equal
    __hash__ = None


def log_grid(start_hz: float, stop_hz: float, points: int) -> FrequencyGrid:
    """Logarithmically spaced grid with exact endpoints."""
    pts = np.geomspace(start_hz, stop_hz, points)
    # slices, not indices: an empty grid must reach FrequencyGrid's check
    pts[:1], pts[-1:] = start_hz, stop_hz
    return FrequencyGrid(_frozen(pts))


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """A complex-valued curve over a frequency grid.

    Houses impedances (unit ``ohm``) and loop gains / impedance ratios
    (unit ``dimensionless``). ``sequence`` carries positive/negative
    sequence tagging as metadata only; ``operating_point`` is free text
    such as ``P=1 pu, Q=0 pu``. ``samples`` is held read-only by the rule
    of ``FrequencyGrid.points``: taken over when nobody else can write it,
    else copied.
    """

    grid: FrequencyGrid
    samples: np.ndarray
    unit: str = "ohm"
    sequence: str = "untagged"
    label: str = ""
    operating_point: str = ""

    def __post_init__(self):
        z = _held(self.samples, complex)
        if z.ndim != 1 or z.size != len(self.grid):
            raise NonFiniteValue("samples length must equal grid length")
        _require_finite(z)
        if self.unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}, got {self.unit!r}")
        if self.sequence not in SEQUENCES:
            raise ValueError(
                f"sequence must be one of {SEQUENCES}, got {self.sequence!r}"
            )
        for name in ("label", "operating_point"):
            value = getattr(self, name)
            if "\n" in value or "\r" in value:
                raise ValueError(f"{name} must be a single line")
            # surrounding whitespace would not survive the file round-trip
            object.__setattr__(self, name, value.strip())
        object.__setattr__(self, "samples", z)

    __eq__ = _fields_equal
    __hash__ = None


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def parse_response(data: bytes) -> FrequencyResponse:
    """Parse a comma-separated impedance / loop-gain table.

    Recognized headers: ``freq_hz,re_ohm,im_ohm``, ``freq_hz,mag_ohm,phase_deg``
    (unit ohm) and ``freq_hz,re,im``, ``freq_hz,mag,phase_deg``
    (dimensionless). Comment lines start with ``#`` and may carry
    ``sequence=``, ``label=`` and ``operating_point=`` metadata. Phases are
    in degrees; mag/phase rows are converted to rectangular form. The
    bytes are UTF-8; a leading byte-order mark is dropped.

    Cells are converted in bulk; a row-by-row walk runs only to name the
    first bad row.
    """
    text = data.decode("utf-8-sig")
    meta: dict[str, str] = {}
    header: tuple[str, str] | None = None
    rows: list[str] = []

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep and key.strip() in _META_KEYS:
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            key = ",".join(tok.strip() for tok in line.split(","))
            if key not in _HEADERS:
                raise UnknownHeader(f"unrecognized header {line!r}")
            header = _HEADERS[key]
            continue
        rows.append(line)

    if header is None:
        raise EmptyTable("no table content found")
    if not rows:
        raise EmptyTable("no data rows after header")

    freqs, x, y = _parse_rows(rows)  # x, y: re, im or mag, phase
    unit, form = header
    if form == "polar":
        ph = np.radians(y)
        samples = x * np.cos(ph) + 1j * x * np.sin(ph)
    else:
        samples = np.empty(len(rows), dtype=complex)
        samples.real, samples.imag = x, y

    return FrequencyResponse(
        grid=FrequencyGrid(_frozen(freqs)), samples=_frozen(samples), unit=unit, **meta
    )


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data rows -> their three columns of finite values, each an array of
    its own.

    Rows are converted a block at a time, which bounds the memory taken by
    the cell strings. A block that fails is walked row by row to raise the
    error for its first bad row.
    """
    cols = tuple(np.empty(len(rows)) for _ in range(3))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        values = _convert_block(block)
        if values is None:
            for line in block:
                _check_row(line)
            raise AssertionError("bulk row conversion failed but no row is bad")
        for k, col in enumerate(cols):
            col[start:start + len(block)] = values[k::3]
    return cols


def _convert_block(rows: list[str]) -> np.ndarray | None:
    """All cells of rows of exactly three finite cells, else None."""
    text = "\n".join(rows)
    # the separators must read ",,\n" per row, without a final newline;
    # neither byte occurs inside a multi-byte UTF-8 sequence
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    seps = raw[(raw == _COMMA) | (raw == _NEWLINE)]
    if not np.array_equal(seps, np.tile(_ROW_SEPS, len(rows))[:-1]):
        return None
    try:
        # accepts exactly the spellings float() accepts (np.loadtxt does not)
        values = np.array(text.replace("\n", ",").split(","), dtype=float)
    except ValueError:
        return None
    return values if np.all(np.isfinite(values)) else None


def _check_row(line: str) -> None:
    """Raise the error for one bad data row; return if the row is good."""
    parts = line.split(",")
    if len(parts) != 3:
        raise NonFiniteValue(f"malformed row {line!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise NonFiniteValue(f"unparseable row {line!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise NonFiniteValue(f"non-finite value in row {line!r}")


def write_response(resp: FrequencyResponse) -> bytes:
    """Serialize to the rectangular table form.

    Values are printed with 17 significant digits, which round-trips IEEE
    doubles exactly. Output is deterministic: two writes of the same
    response are byte-identical. Rows are formatted one block of
    frequencies at a time, so no text of the whole table is held.
    """
    defaults = {fld.name: fld.default for fld in fields(resp)}
    lines = [
        f"# {key}={getattr(resp, key)}"
        for key in _META_KEYS
        if getattr(resp, key) != defaults[key]
    ]
    lines.append("freq_hz,re_ohm,im_ohm" if resp.unit == "ohm" else "freq_hz,re,im")
    out = io.BytesIO()
    out.write(("\n".join(lines) + "\n").encode("utf-8"))
    f, z = resp.grid.points, resp.samples
    for block in _blocks(f.size):
        table = np.column_stack((f[block], z.real[block], z.imag[block]))
        out.write((("%.17g,%.17g,%.17g\n" * len(table)) % tuple(table.ravel().tolist())).encode())
    return out.getvalue()


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def value_at(resp: FrequencyResponse, freqs) -> np.ndarray:
    """The curve read at each of ``freqs`` Hz, as a fresh complex array.

    A scalar frequency is taken as a one-element sequence. A grid point
    returns its stored sample bit for bit. Between points, log-magnitude
    and phase are interpolated linearly in log-frequency (Bode-plot
    behavior) and recombined; the phase runs from the lower sample's
    principal phase by the step ``_phase_steps_deg`` takes to the upper
    one. No extrapolation: the first frequency outside the span (or NaN)
    is named by ``OutOfRange``.

    Each frequency reads only the two samples around it: the cost is
    O(K log N) for K frequencies on N points, and only a zero-magnitude
    sample at either end of a bracket that is interpolated raises
    ``ZeroMagnitudeSample``. In exact arithmetic this is the interpolant on
    log|Z| and the ``unwrap_phase`` series over log f, whose phase differs
    from the bracket's by whole turns.
    """
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    g = resp.grid.points
    inside = (f >= g[0]) & (f <= g[-1])
    if not inside.all():
        raise OutOfRange(f"{float(f[~inside][0])} Hz outside span [{g[0]}, {g[-1]}] Hz")
    idx = g.searchsorted(f)  # < g.size: every f is in the span
    out = resp.samples[idx]  # a fresh array
    miss = g[idx] != f
    if miss.any():
        out[miss] = _bracket_values(resp, f[miss], idx[miss])
    return out


def _bracket_values(resp: FrequencyResponse, f: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The interpolant at each ``f`` strictly inside (g[hi - 1], g[hi]), by
    the formula ``np.interp`` applies to the tables:
    y_lo + (y_hi - y_lo) / (u_hi - u_lo) * (u - u_lo), with u = log f.

    Whole-array calls on (2, K) arrays only, so one frequency costs a fixed
    number of numpy calls."""
    ends = hi - _BRACKET
    z = resp.samples[ends]
    mag = np.abs(z)
    _require_nonzero(mag)
    u = np.log(resp.grid.points[ends])
    # rows: log|z| and principal phase (deg); columns: lower and upper end
    y = np.empty((2,) + z.shape)
    np.log(mag, out=y[0])
    np.degrees(np.arctan2(z.imag, z.real), out=y[1])
    step = y[:, 1] - y[:, 0]
    _wrap_steps_deg(step[1])
    step /= u[1] - u[0]
    step *= np.log(f) - u[0]
    step += y[:, 0]
    m = np.exp(step[0])
    p = np.radians(step[1])
    out = np.empty(f.size, dtype=complex)
    np.multiply(m, np.cos(p), out=out.real)
    np.multiply(m, np.sin(p), out=out.imag)
    return out


def align(responses: list[FrequencyResponse]) -> list[FrequencyResponse]:
    """Resample responses onto a shared grid.

    The target grid is the union of all grid points restricted to the
    common span, so no measured point inside the overlap is discarded.
    Responses already on a common grid are returned unchanged; the
    operation is idempotent.
    """
    if not responses:
        return []
    grids = [r.grid.points for r in responses]
    first = grids[0]
    if all(g.size == first.size and np.array_equal(g, first) for g in grids[1:]):
        return list(responses)

    lo = max(g[0] for g in grids)
    hi = min(g[-1] for g in grids)
    if lo > hi:
        raise DisjointSpans(f"no common span (intersection [{lo}, {hi}] Hz)")
    densest = max(grids, key=lambda g: g.size)
    if int(np.count_nonzero((densest >= lo) & (densest <= hi))) < 2:
        raise DisjointSpans(
            "common span holds fewer than two points of the densest grid"
        )

    union = np.unique(np.concatenate(grids))
    union = union[(union >= lo) & (union <= hi)]
    target = FrequencyGrid(_frozen(union))

    out: list[FrequencyResponse] = []
    for r in responses:
        if np.array_equal(r.grid.points, union):
            out.append(r)
        else:
            out.append(replace(r, grid=target, samples=_frozen(value_at(r, union))))
    return out


def unwrap_phase(resp: FrequencyResponse) -> np.ndarray:
    """Unwrapped phase of the curve in degrees, as a read-only array.

    Starts at the principal phase of the first sample; each subsequent
    value is chosen within +-180 deg of its predecessor by
    ``_phase_steps_deg``. This is the series the phase-crossover search
    solves on and the Bode chart draws; each call builds it afresh, and a
    zero-magnitude sample raises ``ZeroMagnitudeSample``. ``value_at``
    reads the phase of the two samples around a frequency instead, which
    agrees with this series up to whole turns and the rounding its running
    sum carries.
    """
    _require_nonzero(resp.samples)
    phase = np.angle(resp.samples)
    np.degrees(phase, out=phase)
    np.cumsum(_phase_steps_deg(phase), out=phase[1:])
    phase[1:] += phase[0]
    return _frozen(phase)
