"""Impedance-based stability margin assessment for paralleled power park modules."""

from .errors import (
    AmbiguousWinding,
    CriticalPointOnLocus,
    DisjointSpans,
    EmptyTable,
    GenerationFailed,
    GridMismatch,
    InconsistentInputs,
    KindMismatch,
    MarginGateError,
    NonFiniteValue,
    NonMonotonicFrequency,
    NonpositiveImpedanceMagnitude,
    OutOfRange,
    ResonanceSingular,
    SingularAtFrequency,
    SingularSensitivity,
    UnknownHeader,
    UnsupportedFormat,
    ZeroMagnitudeSample,
)
from .freqresp import (
    FrequencyGrid,
    FrequencyResponse,
    align,
    log_grid,
    parse_response,
    unwrap_phase,
    value_at,
    write_response,
)
from .loopgain import (
    LoopGain,
    consistency_error,
    loop_gain,
    one_plus,
    rho,
    update_loop_gain,
)
from .margins import (
    CrossoverPoint,
    MarginDecomposition,
    MarginPolicy,
    MarginSummary,
    decompose_margins,
    find_crossovers,
    pm_deg,
    summarize_margins,
)
from .netsynth import (
    Capacitor,
    CaseFixture,
    Inductor,
    NetworkElement,
    Parallel,
    Rational,
    Resistor,
    Series,
    Thevenin,
    eval_network,
    network_from_json,
    network_to_json,
    par,
    random_case,
    scale_network,
)
from .regions import EncirclementResult, winding_number
from .report import (
    AssessmentReport,
    build_report,
    parse_report,
    render,
)
from .speclimit import (
    ComplianceRecord,
    LimitCurve,
    check_compliance,
    impedance_limit,
    limit_curve,
)

__version__ = "0.1.0"
