"""Exception hierarchy shared across the package.

Every contract violation raises one of these; plain ValueError is reserved
for programming errors (bad enum strings, wrong argument types).
"""


class MarginGateError(Exception):
    """Base class for all margin-gate errors."""


# -- frequency-response data -------------------------------------------------

class UnknownHeader(MarginGateError):
    """Table header is not one of the recognized column sets."""


class NonMonotonicFrequency(MarginGateError):
    """Frequency column is not strictly increasing and positive."""


class NonFiniteValue(MarginGateError):
    """A numeric field is NaN, infinite, or unparseable."""


class EmptyTable(MarginGateError):
    """File contains no data rows."""


class OutOfRange(MarginGateError):
    """Requested frequency lies outside the measured span."""


class DisjointSpans(MarginGateError):
    """Grids share no usable common frequency span."""


class ZeroMagnitudeSample(MarginGateError):
    """A curve has a zero sample where a log-magnitude, phase or quotient needs none."""


# -- network synthesis -------------------------------------------------------

class SingularAtFrequency(MarginGateError):
    """Network evaluation hits a pole or exact antiresonance on the grid."""


class ResonanceSingular(MarginGateError):
    """Parallel combination of impedances that sum to (numerically) zero."""


class GenerationFailed(MarginGateError):
    """Random fixture generation exhausted its retry budget."""


# -- loop-gain algebra -------------------------------------------------------

class GridMismatch(MarginGateError):
    """Pointwise operation on responses with different grids."""


class SingularSensitivity(MarginGateError):
    """|1 + rho| vanished; the loop-gain update is undefined there."""


# -- margins and limits ------------------------------------------------------

class KindMismatch(MarginGateError):
    """Crossover value inconsistent with the requested margin kind."""


class NonpositiveImpedanceMagnitude(MarginGateError):
    """Impedance limit requested for a non-positive |Z_net|."""


# -- Nyquist regions ---------------------------------------------------------

class CriticalPointOnLocus(MarginGateError):
    """A locus sample coincides with the critical point -1+0j."""


class AmbiguousWinding(MarginGateError):
    """Angle sum does not resolve to an integer winding number."""


# -- reporting / CLI ---------------------------------------------------------

class UnsupportedFormat(MarginGateError):
    """Requested report format is not implemented."""


class InconsistentInputs(MarginGateError):
    """Inputs or report parts disagree (grids, policies, record counts, sequence tags)."""
