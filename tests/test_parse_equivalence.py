"""``parse_response`` against a per-row reference parser.

The reference is the straightforward row-at-a-time parser: split each data
line, convert each cell with ``float()`` and test it. Over generated tables
the bulk parser must return an equal response (bit for bit) or raise the
same exception type with the same message.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from margingate import freqresp
from margingate.errors import EmptyTable, NonFiniteValue, UnknownHeader
from margingate.freqresp import (
    _HEADERS,
    _META_KEYS,
    FrequencyGrid,
    FrequencyResponse,
    parse_response,
)


def reference_parse(data: bytes) -> FrequencyResponse:
    text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    meta: dict[str, str] = {}
    header = None
    rows: list[tuple[float, float, float]] = []

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
        parts = line.split(",")
        if len(parts) != 3:
            raise NonFiniteValue(f"malformed row {line!r}")
        try:
            f, a, b = (float(p) for p in parts)
        except ValueError as exc:
            raise NonFiniteValue(f"unparseable row {line!r}") from exc
        if not (math.isfinite(f) and math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteValue(f"non-finite value in row {line!r}")
        rows.append((f, a, b))

    if header is None:
        raise EmptyTable("no table content found")
    if not rows:
        raise EmptyTable("no data rows after header")

    unit, form = header
    freqs = np.array([r[0] for r in rows])
    if form == "polar":
        mag = np.array([r[1] for r in rows])
        ph = np.radians([r[2] for r in rows])
        samples = mag * np.cos(ph) + 1j * mag * np.sin(ph)
    else:
        samples = np.array([complex(r[1], r[2]) for r in rows])

    return FrequencyResponse(
        grid=FrequencyGrid(freqs),
        samples=samples,
        unit=unit,
        sequence=meta.get("sequence", "untagged"),
        label=meta.get("label", ""),
        operating_point=meta.get("operating_point", ""),
    )


def outcome(parser, data: bytes):
    try:
        r = parser(data)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return (
        "parsed",
        r.grid.points.tobytes(),
        r.samples.tobytes(),
        r.unit,
        r.sequence,
        r.label,
        r.operating_point,
    )


HEADERS = list(_HEADERS) + [" freq_hz , mag_ohm ,phase_deg", "frequency,real,imag"]
ODD_CELLS = ["nan", "inf", "-inf", "1e400", "-1e400", "1_0", "abc", "", "0x10",
             "\u0661\u0662", "+1.5E3", "1e", "1.5.2", "Infinity"]
PADS = ["", " ", "\t", "  ", "\u2003"]
COMMENTS = ["#", "# note", "# label=probe A", "#sequence=positive", "# sequence = negative",
            "# operating_point=P=1 pu, Q=0 pu", "# sequence=bogus", "#label"]


def number(x: float, style: int) -> str:
    return (repr(x), "%.17g" % x, "%.6e" % x, str(int(x)))[style]


@st.composite
def tables(draw) -> bytes:
    n = draw(st.integers(0, 10))
    freqs = sorted(draw(st.lists(
        st.floats(1e-3, 1e6), min_size=n, max_size=n, unique=True)))
    disorder = draw(st.sampled_from(["none", "none", "duplicate", "swap"]))
    if n >= 2 and disorder == "duplicate":
        i = draw(st.integers(1, n - 1))
        freqs[i] = freqs[i - 1]
    elif n >= 2 and disorder == "swap":
        i = draw(st.integers(1, n - 1))
        freqs[i - 1], freqs[i] = freqs[i], freqs[i - 1]
    values = st.floats(-1e6, 1e6)
    rows = [[number(f, draw(st.integers(0, 2)))]
            + [number(draw(values), draw(st.integers(0, 3))) for _ in range(2)]
            for f in freqs]

    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        damage = draw(st.sampled_from(["cell", "two columns", "four columns"]))
        if damage == "cell":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_CELLS))
        elif damage == "two columns":
            del rows[i][-1]
        else:
            rows[i].append(number(draw(values), 0))

    pad = st.sampled_from(PADS)
    lines = [draw(st.sampled_from(HEADERS))]
    for cells in rows:
        lines.append(",".join(draw(pad) + c + draw(pad) for c in cells))
    extra = draw(st.lists(
        st.tuples(st.integers(0, len(lines)), st.sampled_from(COMMENTS + ["", "   "])),
        max_size=4))
    for pos, line in sorted(extra, reverse=True):
        lines.insert(pos, line)

    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if draw(st.integers(0, 3)) == 3:
        text = "\ufeff" + text
    return text.encode("utf-8")


# blocks of 3 rows put the generated tables across block boundaries
@pytest.mark.parametrize("block_rows", [freqresp._BLOCK_ROWS, 3])
@settings(max_examples=300, deadline=None)
@given(tables())
@example(b"freq_hz,re_ohm,im_ohm\r\n1,2,3\r\n\r\n# label=x\r\n2, 4 ,5\r\n")
@example("\ufefffreq_hz,re,im\n1,1,0\n2,1,0\n".encode("utf-8"))
@example(b"freq_hz,mag_ohm,phase_deg\n1,2,90\n# mid-table comment\n\n2,1_0,-45\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,nan,0\n2,1,0\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,1e400,0\n2,1,0\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,1,0\n2,abc,0\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,1\n2,1,0,0\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,1,0,7\n2,1\n")
@example(b"freq_hz,re_ohm,im_ohm\n2,1,0\n1,1,0\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,1,0\n1,1,0\n")
@example(b"freq_hz,re_ohm,im_ohm\n1,-0.0,1.5\n2,-0,-0.0\n")
def test_bulk_parser_matches_reference(block_rows, data):
    with mock.patch.object(freqresp, "_BLOCK_ROWS", block_rows):
        assert outcome(parse_response, data) == outcome(reference_parse, data)


@pytest.mark.parametrize(
    "damage",
    [{}, {0: "1,abc,0"}, {2047: "1,2"}, {2048: "1,inf,0"}, {4999: "1,2,3,4"},
     {10: "1,2", 11: "3,4,5,6"}, {2047: "1,2", 2048: "3,4,5,6"},
     {100: "1,2,3,4", 3000: "nan,1,1"}],
)
def test_large_table_matches_reference(damage):
    rows = [f"{1.0 + i:.17g},{0.5 * i:.17g},{-0.25 * i:.17g}" for i in range(5000)]
    for i, row in damage.items():
        rows[i] = row
    data = ("freq_hz,re_ohm,im_ohm\n" + "\n".join(rows) + "\n").encode()
    assert freqresp._BLOCK_ROWS < len(rows)
    assert outcome(parse_response, data) == outcome(reference_parse, data)
