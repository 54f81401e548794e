"""Exception hierarchy shared by all modules."""


class InvsysError(Exception):
    """Base class for all mathematical and usage errors raised by invsys."""


class ContextMismatchError(InvsysError):
    """Operands live over different ring contexts."""


class InputSyntaxError(InvsysError):
    """Malformed expression or file; carries line/column when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class UnboundedQuotientError(InvsysError):
    """The quotient is not Artinian (no power of the maximal ideal fits)."""


class TruncationLimitError(UnboundedQuotientError):
    """The quotient is finite, but no power of the maximal ideal up to the
    degree ceiling lies in the ideal.

    limit names the ceiling.  Finiteness is decided first, from lead
    monomials, so a quotient with infinitely many standard monomials raises
    UnboundedQuotientError itself.
    """

    def __init__(self, message, limit):
        self.limit = limit
        super().__init__(message)


class OffOriginError(TruncationLimitError):
    """The quotient is finite, but no power of the maximal ideal lies in the
    ideal at all: P/I has points away from the origin.

    A local Artinian quotient of length L has m^L = 0, so this is decided
    once every degree up to L = dim P/I has failed; limit names that length.
    """


class InvalidDivisorError(InvsysError):
    """Colon by zero requested."""


class DegenerateInputError(InvsysError):
    """Input violates a precondition, e.g. testing regularity of an ideal member."""


class SearchExhaustedError(InvsysError):
    """A randomized search used all its trials without success."""


class PipelineError(InvsysError):
    """A pipeline stage received data outside the theory's hypotheses."""
