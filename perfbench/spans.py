"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the module functions that ``margingate.cli``
calls (and the ``one_plus`` / ``value_at`` names that ``margins`` and
``speclimit`` use) with wrappers that record spans and counters. Nothing
under ``src/`` knows about it. Spans and counters are recorded only while
an op is open, so input generation and output checks stay untraced.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span, or -1 at the top of an op. Spans stay in memory and
are written out once, when the run ends. A span's self time is its
duration minus that of its direct children.
"""
from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, span name); the span name is the layer metric prefix
_SPANNED = (
    ("margingate.cli", "run_assessment", "cli.run_assessment"),
    ("margingate.cli", "_write_outputs", "cli.write_outputs"),
    ("margingate.cli", "parse_response", "freqresp.parse_response"),
    ("margingate.cli", "write_response", "freqresp.write_response"),
    ("margingate.cli", "align", "freqresp.align"),
    ("margingate.cli", "eval_network", "netsynth.eval_network"),
    ("margingate.cli", "loop_gain", "loopgain.loop_gain"),
    ("margingate.cli", "rho", "loopgain.rho"),
    ("margingate.cli", "update_loop_gain", "loopgain.update_loop_gain"),
    ("margingate.cli", "consistency_error", "loopgain.consistency_error"),
    ("margingate.cli", "summarize_margins", "margins.summarize"),
    ("margingate.cli", "decompose_margins", "margins.decompose"),
    ("margingate.cli", "limit_curve", "speclimit.limit_curve"),
    ("margingate.cli", "check_compliance", "speclimit.check_compliance"),
    ("margingate.cli", "winding_number", "regions.winding"),
    ("margingate.cli", "build_report", "report.build"),
    ("margingate.cli", "render", "report.render"),
    ("margingate.report", "render", "report.render"),
    ("margingate.fixtures", "write_bundled_case", "fixtures.write_bundled_case"),
    ("margingate.fixtures", "bundled_case", "fixtures.bundled_case"),
    ("margingate.fixtures", "eval_network", "netsynth.eval_network"),
    ("margingate.fixtures", "write_response", "freqresp.write_response"),
)

# (module, attribute, counter) wrapped for call counts only
_COUNTED = (
    ("margingate.margins", "one_plus", "loopgain.one_plus_calls"),
    ("margingate.speclimit", "one_plus", "loopgain.one_plus_calls"),
    ("margingate.margins", "value_at", "freqresp.value_at_calls"),
    ("margingate.speclimit", "value_at", "freqresp.value_at_calls"),
)

_SVG_FORMATS = ("nyquist_svg", "bode_svg")

# per-layer metric -> span names whose self time it sums
TIME_METRICS = {
    "cli.import_s": ("cli.import",),
    "cli.self_s": ("cli.run_assessment",),
    "cli.io_write_s": ("cli.write_outputs", "fixtures.write_bundled_case"),
    "fixtures.bundled_case_s": ("fixtures.bundled_case",),
    "freqresp.parse_response_s": ("freqresp.parse_response",),
    "freqresp.write_response_s": ("freqresp.write_response",),
    "freqresp.align_s": ("freqresp.align",),
    "netsynth.eval_network_s": ("netsynth.eval_network",),
    "loopgain.s": (
        "loopgain.loop_gain",
        "loopgain.rho",
        "loopgain.update_loop_gain",
        "loopgain.consistency_error",
    ),
    "margins.summarize_s": ("margins.summarize",),
    "margins.decompose_s": ("margins.decompose",),
    "speclimit.limit_curve_s": ("speclimit.limit_curve",),
    "speclimit.check_compliance_s": ("speclimit.check_compliance",),
    "regions.winding_s": ("regions.winding",),
    "report.build_s": ("report.build",),
    "report.render_json_s": ("report.render.json",),
    "report.render_markdown_s": ("report.render.markdown",),
    "report.render_nyquist_svg_s": ("report.render.nyquist_svg",),
    "report.render_bode_svg_s": ("report.render.bode_svg",),
}

COUNT_METRICS = (
    "cli.io_bytes",
    "freqresp.parse_response_calls",
    "freqresp.parse_rows",
    "freqresp.write_rows",
    "freqresp.value_at_calls",
    "loopgain.one_plus_calls",
    "netsynth.eval_points",
    "margins.gain_crossovers",
    "margins.phase_crossovers",
    "margins.decompose_calls",
    "regions.locus_vertices",
    "speclimit.limit_freqs",
    "report.svg_renders",
    "report.svg_bytes",
)

# shares of the op that a workload is claimed to stress (see README.md)
TEXT_LAYER_METRICS = (
    "cli.import_s",
    "cli.io_write_s",
    "freqresp.parse_response_s",
    "freqresp.write_response_s",
    "report.render_nyquist_svg_s",
    "report.render_bode_svg_s",
)
MARGINS_METRICS = ("margins.summarize_s", "margins.decompose_s")

DERIVED_METRICS = (
    "trace.op_s",
    "trace.unattributed_s",
    "trace.text_layers_frac",
    "trace.margins_frac",
)


def _measure(name: str, args, kwargs, out, parent_name: str | None):
    """Counters that one call of a spanned function adds to its op."""
    if name == "freqresp.parse_response":
        data = args[0] if args else kwargs["data"]
        yield "freqresp.parse_response_calls", 1
        yield "freqresp.parse_rows", len(out.grid)
        yield "cli.io_bytes", len(data)
    elif name == "freqresp.write_response":
        resp = args[0] if args else kwargs["resp"]
        yield "freqresp.write_rows", len(resp.grid)
        yield "cli.io_bytes", len(out)
    elif name == "netsynth.eval_network":
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        yield "netsynth.eval_points", len(grid)
    elif name == "margins.summarize":
        curve = args[0] if args else kwargs["l"]
        if curve.label == "L_new":
            kinds = [cp.kind for cp in out.crossovers]
            yield "margins.gain_crossovers", kinds.count("gain")
            yield "margins.phase_crossovers", kinds.count("phase")
    elif name == "margins.decompose":
        yield "margins.decompose_calls", 1
    elif name == "regions.winding":
        curve = args[0] if args else kwargs["l"]
        yield "regions.locus_vertices", 2 * len(curve.grid)
    elif name == "speclimit.limit_curve":
        yield "speclimit.limit_freqs", len(out.freqs)
    elif name.startswith("report.render."):
        if name[len("report.render."):] in _SVG_FORMATS:
            yield "report.svg_renders", 1
            yield "report.svg_bytes", len(out)
        if parent_name == "cli.write_outputs":
            yield "cli.io_bytes", len(out)


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op: int, root: bool = True) -> int:
        """Open op ``op``; with ``root``, its spans nest under a root span.

        Returns the root span index (-1 without a root, as in a child
        process whose spans the parent re-parents on ``merge``).
        """
        self.op = op
        self._stack = []
        if not root:
            return -1
        idx = self.add_span("op", 0.0, 0.0, -1, op)
        self._stack.append(idx)
        return idx

    def end_op(self, root: int, start: float, end: float) -> None:
        """Close the op, giving its root span the op's own timing."""
        if root >= 0:
            self.spans[root] = ("op", start, end, -1, self.op)
        self.op = None
        self._stack = []

    def add_span(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    # -- wrappers ------------------------------------------------------------
    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_name = name
            if name == "report.render":
                fmt = args[1] if len(args) > 1 else kwargs["format"]
                span_name = f"report.render.{fmt}"
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = tracer.add_span(span_name, 0.0, 0.0, parent, tracer.op)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (span_name, start, end, parent, tracer.op)
            parent_name = tracer.spans[parent][0] if parent >= 0 else None
            counts = tracer.counts[tracer.op]
            for key, value in _measure(span_name, args, kwargs, out, parent_name):
                counts[key] += value
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[tracer.op][key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the functions listed above; ``uninstall`` restores them."""
        for table, make in ((_SPANNED, self._spanned), (_COUNTED, self._counted)):
            for mod_name, attr, label in table:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._installed.append((mod, attr, original))
                setattr(mod, attr, make(label, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    # -- export --------------------------------------------------------------
    def to_obj(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }

    def merge(self, obj: dict, op: int, parent: int) -> None:
        """Add spans and counts written by a child process to ``op``.

        The child's top-level spans are re-parented under ``parent``; span
        clocks agree because ``perf_counter`` is system-wide monotonic.
        """
        base = len(self.spans)
        for name, start, end, p, _ in obj["spans"]:
            self.add_span(name, start, end, parent if p < 0 else base + p, op)
        for counts in obj["counts"].values():
            for key, value in counts.items():
                self.counts[op][key] += value


def op_layers(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-op layer metrics from the recorded spans and counters."""
    op_spans = {
        op: idx
        for idx, (name, _, _, parent, op) in enumerate(tracer.spans)
        if name == "op" and parent < 0
    }
    children_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            children_time[parent] += end - start

    by_op: dict[int, dict[str, float]] = {op: defaultdict(float) for op in op_spans}
    roots = set(op_spans.values())
    for idx, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op not in by_op or idx in roots:
            continue
        self_s = (end - start) - children_time[idx]
        by_op[op]["span:" + name] += self_s

    out: dict[int, dict[str, float]] = {}
    for op, root in op_spans.items():
        name, start, end, _, _ = tracer.spans[root]
        op_s = end - start
        selfs = by_op[op]
        row = {
            metric: sum(selfs.get("span:" + n, 0.0) for n in names)
            for metric, names in TIME_METRICS.items()
        }
        counts = tracer.counts.get(op, {})
        row.update({key: counts.get(key, 0) for key in COUNT_METRICS})
        row["trace.op_s"] = op_s
        row["trace.unattributed_s"] = op_s - children_time[root]
        row["trace.text_layers_frac"] = sum(row[m] for m in TEXT_LAYER_METRICS) / op_s
        row["trace.margins_frac"] = sum(row[m] for m in MARGINS_METRICS) / op_s
        out[op] = row
    return out


def median_layers(rows: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over ops of every per-op layer metric (the lower median for counts)."""
    out = {}
    for key in list(TIME_METRICS) + list(COUNT_METRICS) + list(DERIVED_METRICS):
        median = statistics.median_low if key in COUNT_METRICS else statistics.median
        out[key] = median(r[key] for r in rows.values()) if rows else 0
    return out
