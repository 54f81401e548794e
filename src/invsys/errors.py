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
    """No truncation bound was certified within the affordable degrees.

    limit names what stopped the search: the degree ceiling, or the local
    kernel's cap on the monomials of one degree.  The quotient may still be
    Artinian.
    """

    def __init__(self, message, limit):
        self.limit = limit
        super().__init__(message)


class InvalidDivisorError(InvsysError):
    """Colon by zero requested."""


class DegenerateInputError(InvsysError):
    """Input violates a precondition, e.g. testing regularity of an ideal member."""


class SearchExhaustedError(InvsysError):
    """A randomized search used all its trials without success."""


class PipelineError(InvsysError):
    """A pipeline stage received data outside the theory's hypotheses."""
