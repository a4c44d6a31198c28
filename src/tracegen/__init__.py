"""Uniform random generation of traces in trace monoids.

The package splits into a small algebra core (monoid, mobius), exact
samplers for the finite multiplicative laws and the boundary measure
(sampler, boundary), and a brute force oracle with statistical suites
used to verify the samplers (oracle, verify).
"""

from .monoid import (
    IndependenceModel,
    Trace,
    UNIT,
    build_model,
    cliques,
    concat,
    format_trace,
    is_left_divisor,
    is_pyramidal,
    left_divide,
    left_divisors,
    left_quotient,
    link,
    load_model,
    max_letters,
    model_from_dict,
    model_to_dict,
    normalize,
    normalize_indices,
    pyramidal_decompose,
    restrict,
    trace_from_lists,
    trace_to_lists,
    word_of,
)
from .mobius import (
    MobiusPolynomial,
    MobiusTable,
    NotIrreducibleError,
    RootNotFoundError,
    expected_length,
    is_irreducible,
    mobius_eval,
    mobius_polynomial,
    occurrence_probability,
    recurrence_residual_coefficients,
    smallest_root,
)
from .sampler import (
    RandomStream,
    SamplerParams,
    StepCounter,
    sample,
    sample_geometric,
    sample_many,
    sample_trace,
)
from .boundary import (
    BlockStream,
    GapViolationError,
    open_stream,
    parallel_run,
)
from .oracle import (
    EnumerationIndex,
    chi_square,
    count_traces,
    enumerate_traces,
    exact_probability,
    check_series_identity,
    series_coefficients,
    series_tail_bound,
    tv_distance,
)
from .verify import (
    TestReport,
    run_suite,
    verify_cylinders,
    verify_decomposition_law,
)

__version__ = "0.1.0"

__all__ = [
    "IndependenceModel", "Trace", "UNIT", "build_model", "cliques", "concat",
    "format_trace", "is_left_divisor", "is_pyramidal", "left_divide",
    "left_divisors", "left_quotient", "link", "load_model", "max_letters",
    "model_from_dict", "model_to_dict", "normalize", "normalize_indices",
    "pyramidal_decompose", "restrict", "trace_from_lists", "trace_to_lists",
    "word_of",
    "MobiusPolynomial", "MobiusTable", "NotIrreducibleError",
    "RootNotFoundError", "expected_length", "is_irreducible", "mobius_eval",
    "mobius_polynomial", "occurrence_probability",
    "recurrence_residual_coefficients", "smallest_root",
    "RandomStream", "SamplerParams", "StepCounter", "sample",
    "sample_geometric", "sample_many", "sample_trace",
    "BlockStream", "GapViolationError", "open_stream", "parallel_run",
    "EnumerationIndex", "chi_square", "count_traces", "enumerate_traces",
    "exact_probability", "check_series_identity", "series_coefficients",
    "series_tail_bound", "tv_distance",
    "TestReport", "run_suite", "verify_cylinders", "verify_decomposition_law",
]
