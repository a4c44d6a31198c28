"""Uniform random generation of traces in trace monoids.

The package splits into a small algebra core (monoid, mobius) and exact
samplers for the finite multiplicative laws and the boundary measure
(sampler, boundary); importing it loads only these.  The brute force
oracle and the statistical suites that verify the samplers live in
``tracegen.oracle`` and ``tracegen.verify``, and their names are imported
from there.
"""

from .monoid import (
    IndependenceModel,
    Trace,
    UNIT,
    build_model,
    concat,
    format_trace,
    is_left_divisor,
    is_pyramidal,
    left_divisors,
    left_quotient,
    link,
    load_model,
    max_letters,
    model_from_dict,
    normalize,
    normalize_indices,
    pyramidal_decompose,
    trace_to_lists,
)
from .mobius import (
    MobiusPolynomial,
    MobiusTable,
    NotIrreducibleError,
    expected_length,
    is_irreducible,
    mobius_polynomial,
    recurrence_residual_coefficients,
    smallest_root,
)
from .sampler import (
    RandomStream,
    SamplerParams,
    StepCounter,
    sample_many,
)
from .boundary import (
    BlockStream,
    open_stream,
    parallel_run,
)

__version__ = "0.1.0"

# The CLI's default seed, also the suites' default, and the names of the
# suites in tracegen.verify; kept here so that the CLI offers them
# without loading the suites.
DEFAULT_SEED = 20070919
SUITES = ("mobius", "finite", "boundary", "all")

__all__ = [
    "IndependenceModel", "Trace", "UNIT", "build_model", "concat",
    "format_trace", "is_left_divisor", "is_pyramidal", "left_divisors",
    "left_quotient", "link", "load_model", "max_letters", "model_from_dict",
    "normalize", "normalize_indices", "pyramidal_decompose", "trace_to_lists",
    "MobiusPolynomial", "MobiusTable", "NotIrreducibleError",
    "expected_length", "is_irreducible", "mobius_polynomial",
    "recurrence_residual_coefficients", "smallest_root",
    "RandomStream", "SamplerParams", "StepCounter", "sample_many",
    "BlockStream", "open_stream", "parallel_run",
]
