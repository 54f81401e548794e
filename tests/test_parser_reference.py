"""The expression parser against a test-local copy of its polynomial-product form.

The parser accumulates a sum into one term dict and folds a run of
name[^int] and number factors into one coefficient and exponent.  The
reference below builds a Polynomial for every atom and every partial sum, as
the parser once did.  On fuzzed token strings and on rendered random
polynomials both must give the same polynomial, with its terms in the same
order, or the same InputSyntaxError text.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import GREVLEX, LEX, context_from_names
from invsys.errors import InputSyntaxError
from invsys.ring import (
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_TERM_PRODUCTS,
    _power_bits,
    _tokenize,
    parse_polynomial,
)


class _ReferenceParser:
    """Recursive descent for sums of products of powers, with parentheses.

    It refuses a power and a coefficient by the parser's size caps, at the
    same token: fuzzed digits can spell an exponent such as 12^3012.
    """

    def __init__(self, ctx, tokens):
        self.ctx = ctx
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise InputSyntaxError(message, col=tok[2] + 1)

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail(f"unexpected {tok[1]!r}")
        return p

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        start = self.peek()
        p = self.term()
        if negate:
            p = -p
        self.check_size(p, p, start)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                start = self.peek()
                q = self.term()
                p = p - q if val == "-" else p + q
                self.check_size(p, q, start)
            else:
                return p

    def check_size(self, p, q, tok):
        """Refuse, at tok, a coefficient of p at a term of q over MAX_POWER_BITS bits."""
        if self.ctx.field.char == 0:
            for e in q.terms:
                c = p.terms.get(e, 0)
                if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_POWER_BITS:
                    self.fail(f"a coefficient has more than {MAX_POWER_BITS} bits", tok)

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                self.fail("exponent must be a natural number", tok)
            k, t = int(tok[1]), len(base.terms)
            if t > 1 and k > 1 and math.comb(t + (k + 1) // 2 - 1, t - 1) ** 2 > MAX_TERM_PRODUCTS:
                self.fail(
                    f"the power {k} of a {t}-term sum needs more than "
                    f"{MAX_TERM_PRODUCTS} term products to expand",
                    tok,
                )
            bits = _power_bits(base.terms.values(), k)
            if k > 1 and self.ctx.field.char == 0 and bits > MAX_POWER_BITS:
                self.fail(
                    f"the power {k} may need {bits} bits per coefficient, more than {MAX_POWER_BITS}",
                    tok,
                )
            return base ** k
        return base

    def atom(self):
        tok = self.take()
        kind, val, start = tok
        if kind == "int":
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self.take()
                if den[0] != "int":
                    self.fail("expected integer denominator", den)
                return self.ctx.constant(self.ctx.field.parse(f"{val}/{den[1]}"))
            return self.ctx.constant(self.ctx.field.parse(val))
        if kind == "name":
            if val not in self.ctx.index:
                self.fail(f"unknown variable {val!r}", tok)
            return self.ctx.variable(val)
        if kind == "op" and val in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)
            if val == "(":
                p = self.expr()
                close = self.take()
                if close[:2] != ("op", ")"):
                    self.fail("expected ')'", close)
            else:
                p = -self.factor()
            self.depth -= 1
            return p
        self.fail(f"unexpected {val!r}" if val else "unexpected end of input", tok)


def _outcome(parse, ctx, text):
    try:
        p = parse(ctx, text)
    except InputSyntaxError as exc:
        return "error", str(exc)
    return "ok", list(p.terms.items())


def _reference(ctx, text):
    return _ReferenceParser(ctx, _tokenize(text)).parse()


CONTEXTS = [context_from_names("x,y,z", field=f) for f in ("Q", "F7")]

# exponents stay small: a power of a sum is expanded in full
_TOKENS = (
    "x", "y", "z", "q", "0", "1", "2", "7", "12", "1/2", "3/0", "2/7", "14/3", "+", "-", "*",
    "^", "^0", "^1", "^2", "^3", "(", ")", "/", " ", "x^2", "y*z", "-x", "--", "(x+y)", "²", "1.5",
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CONTEXTS), st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join))
def test_parser_agrees_with_the_reference_on_fuzzed_text(ctx, text):
    assert _outcome(parse_polynomial, ctx, text) == _outcome(_reference, ctx, text)


_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 3),
    st.sampled_from([1, -1, 2, -3, 5]) | st.fractions(min_value=-9, max_value=9, max_denominator=6),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONTEXTS), _TERMS, st.sampled_from([GREVLEX, LEX]))
def test_parser_agrees_with_the_reference_on_rendered_polynomials(ctx, terms, order):
    try:
        p = ctx.from_terms(terms)
    except ZeroDivisionError:  # a denominator that vanishes mod 7
        return
    text = p.render(order)
    assert _outcome(parse_polynomial, ctx, text) == _outcome(_reference, ctx, text)
    assert parse_polynomial(ctx, text) == p
