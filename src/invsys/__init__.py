"""Exact inverse systems: contraction duality, limit systems, reconstruction."""

from .errors import (
    ContextMismatchError,
    DegenerateInputError,
    InputSyntaxError,
    InvalidDivisorError,
    InvsysError,
    PipelineError,
    SearchExhaustedError,
    UnboundedQuotientError,
)
from .field import QQ, PrimeField, Rationals, field_from_name
from .groebner import (
    ArtinianQuotient,
    HilbertData,
    Ideal,
    artinian_bound,
    artinian_form,
    buchberger,
    exact_divide,
    find_linear_regular_sequence,
    hilbert_data,
    ideal_colon,
    ideal_intersect,
    is_regular,
)
from .ring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    RingContext,
    context_from_names,
    elimination_order,
    order_from_name,
    parse_polynomial,
    render_polynomial,
)

__version__ = "0.1.0"
