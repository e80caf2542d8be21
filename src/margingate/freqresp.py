"""Complex frequency-response curves.

Data model, text-table I/O, log-frequency interpolation, grid alignment and
phase unwrapping. Everything downstream (impedances, loop gains, ratios)
is a ``FrequencyResponse``; the ``unit`` field distinguishes ohm curves
from dimensionless ones.

Objects are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

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
    "values_at",
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


def _unwrap_deg(principal: np.ndarray) -> np.ndarray:
    """Unwrap a principal-phase series (degrees) by its wrapped steps, in
    place; returns the series."""
    np.cumsum(_phase_steps_deg(principal), out=principal[1:])
    principal[1:] += principal[0]
    return principal


def _blocks(n: int):
    """Slices cutting ``range(n)`` into blocks of ``_BLOCK_POINTS``.

    Every block starts at a multiple of ``_BLOCK_POINTS``, so an elementwise
    stage run block by block meets numpy's SIMD loops with the alignment and
    the remainder elements of the whole-array run, and gives its bits.
    """
    for start in range(0, n, _BLOCK_POINTS):
        yield slice(start, min(start + _BLOCK_POINTS, n))


def _require_finite(z: np.ndarray) -> None:
    """Raise ``NonFiniteValue`` unless every component of ``z`` is finite."""
    if not np.all(np.isfinite(z.real)) or not np.all(np.isfinite(z.imag)):
        raise NonFiniteValue("samples contain NaN or infinite components")


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, positive frequency axis in Hz (length >= 2)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise NonMonotonicFrequency("grid needs at least two frequencies")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteValue("grid contains non-finite frequencies")
        if pts[0] <= 0.0 or np.any(np.diff(pts) <= 0.0):
            raise NonMonotonicFrequency(
                "frequencies must be positive and strictly increasing"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    @cached_property
    def _log_table(self) -> np.ndarray:
        """Natural log of the frequencies, computed once per grid. Writeable,
        because ``np.interp`` copies a read-only table in full on every call;
        it is never handed out."""
        return np.log(self.points)

    def __eq__(self, other):
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    __hash__ = None


def log_grid(start_hz: float, stop_hz: float, points: int) -> FrequencyGrid:
    """Logarithmically spaced grid with exact endpoints."""
    pts = np.geomspace(start_hz, stop_hz, points)
    pts[0], pts[-1] = start_hz, stop_hz
    return FrequencyGrid(pts)


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """A complex-valued curve over a frequency grid.

    Houses impedances (unit ``ohm``) and loop gains / impedance ratios
    (unit ``dimensionless``). ``sequence`` carries positive/negative
    sequence tagging as metadata only; ``operating_point`` is free text
    such as ``P=1 pu, Q=0 pu``.
    """

    grid: FrequencyGrid
    samples: np.ndarray
    unit: str = "ohm"
    sequence: str = "untagged"
    label: str = ""
    operating_point: str = ""

    def __post_init__(self):
        z = np.asarray(self.samples, dtype=complex)
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
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "samples", z)

    def __eq__(self, other):
        if not isinstance(other, FrequencyResponse):
            return NotImplemented
        return (
            self.grid == other.grid
            and np.array_equal(self.samples, other.samples)
            and self.unit == other.unit
            and self.sequence == other.sequence
            and self.label == other.label
            and self.operating_point == other.operating_point
        )

    __hash__ = None

    def with_samples(
        self, samples, unit: str | None = None, label: str | None = None
    ) -> "FrequencyResponse":
        """Same grid and metadata, new sample values."""
        return replace(
            self,
            samples=samples,
            unit=self.unit if unit is None else unit,
            label=self.label if label is None else label,
        )

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-curve tables: (log f, log |Z|, unwrapped phase deg).

        Built on first use by the crossover search and the Bode chart, the
        readers that need every sample; ``values_at`` reads only brackets.
        Writeable, because ``np.interp`` copies a read-only table in full on
        every call; the tables are never handed out, so no caller can change
        the crossover search.
        """
        mag = np.abs(self.samples)
        if np.any(mag == 0.0):
            raise ZeroMagnitudeSample(
                "curve has a zero-magnitude sample; log interpolation undefined"
            )
        principal = np.angle(self.samples)
        np.degrees(principal, out=principal)
        return self.grid._log_table, np.log(mag, out=mag), _unwrap_deg(principal)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def parse_response(data: bytes) -> FrequencyResponse:
    """Parse a comma-separated impedance / loop-gain table.

    Recognized headers: ``freq_hz,re_ohm,im_ohm``, ``freq_hz,mag_ohm,phase_deg``
    (unit ohm) and ``freq_hz,re,im``, ``freq_hz,mag,phase_deg``
    (dimensionless). Comment lines start with ``#`` and may carry
    ``sequence=``, ``label=`` and ``operating_point=`` metadata. Phases are
    in degrees; mag/phase rows are converted to rectangular form.

    Cells are converted in bulk; a row-by-row walk runs only to name the
    first bad row.
    """
    text = data.decode("utf-8")
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

    cols = _parse_rows(rows)
    unit, form = header
    freqs = cols[0]
    if form == "polar":
        mag = cols[1]
        ph = np.radians(cols[2])
        samples = mag * np.cos(ph) + 1j * mag * np.sin(ph)
    else:
        samples = np.empty(len(rows), dtype=complex)
        samples.real, samples.imag = cols[1], cols[2]

    return FrequencyResponse(grid=FrequencyGrid(freqs), samples=samples, unit=unit, **meta)


def _parse_rows(rows: list[str]) -> np.ndarray:
    """Data rows -> contiguous (3, N) array of finite values.

    Rows are converted a block at a time, which bounds the memory taken by
    the cell strings. A block that fails is walked row by row to raise the
    error for its first bad row.
    """
    out = np.empty((len(rows), 3))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        values = _convert_block(block)
        if values is None:
            for line in block:
                _check_row(line)
            raise AssertionError("bulk row conversion failed but no row is bad")
        out[start:start + len(block)] = values.reshape(-1, 3)
    return out.T.copy()


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
    response are byte-identical.
    """
    defaults = {fld.name: fld.default for fld in fields(resp)}
    lines = [
        f"# {key}={getattr(resp, key)}"
        for key in _META_KEYS
        if getattr(resp, key) != defaults[key]
    ]
    lines.append("freq_hz,re_ohm,im_ohm" if resp.unit == "ohm" else "freq_hz,re,im")
    table = np.column_stack((resp.grid.points, resp.samples.real, resp.samples.imag))
    body = ("%.17g,%.17g,%.17g\n" * len(table)) % tuple(table.ravel().tolist())
    return ("\n".join(lines) + "\n" + body).encode("utf-8")


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def value_at(resp: FrequencyResponse, f: float) -> complex:
    """Evaluate the curve at ``f`` Hz.

    Returns the stored sample bit-for-bit when ``f`` is a grid point.
    Between points, log-magnitude and phase are interpolated linearly in
    log-frequency (Bode-plot behavior) and recombined; the phase runs from
    the lower sample's principal phase by the step ``_phase_steps_deg``
    takes to the upper one. No extrapolation: ``f`` outside the grid span
    raises ``OutOfRange``.
    """
    return complex(values_at(resp, [f])[0])


def values_at(resp: FrequencyResponse, freqs) -> np.ndarray:
    """Vectorized ``value_at``; the first frequency outside the span (or NaN) is named.

    A scalar frequency is taken as a one-element sequence. Each frequency
    reads only the two samples around it: the cost is O(K log N) for K
    frequencies on N points, and only a zero-magnitude sample at either
    end of a bracket that is interpolated raises ``ZeroMagnitudeSample``.
    In exact arithmetic this is the interpolant on the whole-curve tables
    (``FrequencyResponse._tables``), whose unwrapped phase differs from the
    bracket's by whole turns.
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
    if not mag.all():
        raise ZeroMagnitudeSample(
            "curve has a zero-magnitude sample; log interpolation undefined"
        )
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
    target = FrequencyGrid(union)

    out: list[FrequencyResponse] = []
    for r in responses:
        if np.array_equal(r.grid.points, union):
            out.append(r)
        else:
            out.append(replace(r, grid=target, samples=values_at(r, union)))
    return out


def unwrap_phase(resp: FrequencyResponse) -> np.ndarray:
    """Unwrapped phase of the curve in degrees, as a read-only array.

    Starts at the principal phase of the first sample; each subsequent
    value is chosen within +-180 deg of its predecessor by
    ``_phase_steps_deg``. This is a copy of the phase table the crossover
    search solves on. ``values_at`` reads the phase of the two samples
    around a frequency instead, which agrees with this table up to whole
    turns and the rounding the table's running sum carries.
    """
    phase = resp._tables[2].copy()  # raises ZeroMagnitudeSample
    phase.setflags(write=False)
    return phase
