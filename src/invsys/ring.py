"""Sparse multivariate polynomials over an exact field, with monomial orders.

Exponents are plain tuples of naturals, one entry per ring variable.
Polynomials are immutable term maps exponent -> nonzero coefficient.
A RingContext fixes the field, the variable names, the computation mode
(graded polynomial ring vs. local power-series ring, the latter handled
through explicit truncation downstream) and the partition of the variables
into a y-block and a z-block.  Every context has a dual context whose
variables index the dual "divided power" monomials.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import ContextMismatchError, InputSyntaxError
from .field import QQ, field_from_name
from .linalg import KeyTable

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# exponent helpers


def e_add(a, b):
    return tuple(map(operator.add, a, b))


def e_sub(a, b):
    return tuple(map(operator.sub, a, b))


def e_lcm(a, b):
    return tuple(map(max, a, b))


def e_divides(a, b):
    """True when a <= b componentwise, i.e. x^a divides x^b."""
    return all(map(operator.le, a, b))


def e_unit(n, i, k=1):
    """Exponent of x_i^k among n variables."""
    return tuple(k if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """A total multiplicative order on exponent tuples.

    kind is one of 'grevlex', 'lex' or 'block'.  A block order compares the
    first `block` variables with the base kind, then the rest; it eliminates
    the first block.  An optional permutation reorders variables before
    comparison (perm[0] is the most significant variable index).
    """

    __slots__ = ("kind", "block", "base", "perm")

    def __init__(self, kind="grevlex", block=0, base="grevlex", perm=None):
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        if base not in ("grevlex", "lex"):
            raise ValueError(f"unknown base order {base!r}")
        self.kind = kind
        self.block = block
        self.base = base
        self.perm = tuple(perm) if perm is not None else None

    @staticmethod
    def _grevlex_key(e):
        return (sum(e), tuple(map(operator.neg, reversed(e))))

    def key(self, e):
        """Sort key; larger key means larger monomial."""
        if self.perm is not None:
            e = tuple(e[i] for i in self.perm)
        if self.kind == "grevlex":
            return self._grevlex_key(e)
        if self.kind == "lex":
            return e
        head, tail = e[: self.block], e[self.block :]
        sub = self._grevlex_key if self.base == "grevlex" else (lambda t: t)
        return (sub(head), sub(tail))

    def weights(self, n, radix):
        """w such that w.e is injective, additive and increasing in this
        order on the exponents of degree below radix, in n variables.

        key is a lexicographic tuple of linear forms in e: the permuted
        entries for lex, the degree and then the negated permuted entries
        from the last for grevlex, a block's forms and then the rest's for a
        block order.  A grevlex block's first entry is fixed by the forms
        before it and is dropped, leaving at most n forms.  Below degree
        radix each form takes values in a range of width below radix, so
        w.e = sum of form_j(e) * radix^(L-1-j) compares as the forms do
        lexicographically: a later form's difference never outweighs an
        earlier one's.
        """
        perm = self.perm if self.perm is not None else tuple(range(n))
        if self.kind == "block":
            blocks = ((perm[: self.block], self.base), (perm[self.block :], self.base))
        else:
            blocks = ((perm, self.kind),)
        forms = []
        for idx, kind in blocks:
            if kind == "lex":
                forms += [{i: 1} for i in idx]
            elif idx:
                forms.append(dict.fromkeys(idx, 1))
                forms += [{i: -1} for i in reversed(idx[1:])]
        w = [0] * n
        for form in forms:
            w = [radix * x for x in w]
            for i, c in form.items():
                w[i] += c
        return tuple(w)

    def compare(self, a, b):
        """Return -1, 0 or 1 as a <, =, > b in this order."""
        if len(a) != len(b):
            raise ValueError("exponent length mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def signature(self):
        return (self.kind, self.block, self.base, self.perm)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder(block={self.block}, base={self.base!r})"
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(nfirst, base="grevlex"):
    """Block order eliminating the first `nfirst` variables."""
    return MonomialOrder("block", block=nfirst, base=base)


def order_from_name(name):
    if name == "grevlex":
        return GREVLEX
    if name == "lex":
        return LEX
    raise InputSyntaxError(f"unknown order {name!r}")


# ---------------------------------------------------------------------------
# ring contexts


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class RingContext:
    """Field, named variables, mode and y/z-block partition."""

    field: object = QQ
    names: tuple = ()
    mode: str = "graded"  # 'graded' or 'local'
    zvars: tuple = ()
    _dual_of: object = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("graded", "local"):
            raise ValueError(f"unknown ring mode {self.mode!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for n in self.names:
            if not _NAME_RE.match(n):
                raise ValueError(f"bad variable name {n!r}")
        unknown = [z for z in self.zvars if z not in self.names]
        if unknown:
            raise ValueError(f"zvars {unknown} not among ring variables")

    @property
    def nvars(self):
        return len(self.names)

    @cached_property
    def index(self):
        return {n: i for i, n in enumerate(self.names)}

    @cached_property
    def zindices(self):
        return tuple(self.index[z] for z in self.zvars)

    @cached_property
    def dual(self):
        """The dual context; its variables pair with this ring's monomials."""
        if self._dual_of is not None:
            return self._dual_of
        duals = []
        for n in self.names:
            cand = n.upper() if n.upper() != n else "D" + n
            duals.append(cand)
        if len(set(duals)) != len(duals):
            duals = ["D" + n for n in self.names]
        zdual = tuple(duals[i] for i in self.zindices)
        return RingContext(self.field, tuple(duals), "graded", zdual, _dual_of=self)

    def same_as(self, other):
        return (
            isinstance(other, RingContext)
            and self.field == other.field
            and self.names == other.names
            and self.mode == other.mode
            and self.zvars == other.zvars
        )

    def check_same(self, other, what="operands"):
        if not self.same_as(other):
            raise ContextMismatchError(f"{what} live over different ring contexts")

    # -- polynomial constructors ------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def constant(self, c):
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name_or_index):
        i = name_or_index if isinstance(name_or_index, int) else self.index[name_or_index]
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def monomial(self, exponent, coeff=1):
        exponent = tuple(exponent)
        if len(exponent) != self.nvars or any(x < 0 for x in exponent):
            raise ValueError(f"bad exponent {exponent} for {self.nvars} variables")
        c = self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {exponent: c})

    def from_terms(self, terms):
        return Polynomial(self, dict(terms))

    def parse(self, text):
        return parse_polynomial(self, text)

    # -- monomial enumeration ---------------------------------------------

    def exponents_of_degree(self, d, indices=None):
        """All exponents of total degree d supported on the given indices.

        Without indices the answer is an immutable tuple, built once per
        process, number of variables and degree; with indices the exponents
        are enumerated afresh.
        """
        if indices is not None:
            return _exponents_of_degree(self.nvars, d, tuple(indices))
        return _degree_table(self.nvars, d)

    def exponents_upto(self, d):
        for k in range(d + 1):
            yield from self.exponents_of_degree(k)

    def packing(self, N, order):
        """The Packing of the exponents below degree N in order.

        Its radix is the least power of two >= N, and it is built once per
        process, number of variables, radix and order signature.
        """
        radix = 1 << (N - 1).bit_length()
        name = (self.nvars, radix, order.signature())
        pk = _PACKINGS.get(name)
        if pk is None:
            pk = _PACKINGS.setdefault(name, Packing(self.nvars, radix, order))
        return pk

    # -- order keys -----------------------------------------------------------

    def order_key(self, order):
        """order.key as a lookup in the process-wide table for the order.

        A key depends only on the exponent and the order, so every context,
        its dual included, shares one table per order signature: each
        exponent's key is computed once per process.
        """
        return _key_table(order.signature(), order.key)

    def sort_key(self, key):
        """A sort key on exponents as a lookup in the process-wide table for it.

        key must be a module-level function: the table is kept per key
        function for the life of the process, shared, as order_key's are,
        by every caller that passes it.
        """
        return _key_table(key, key)

    def __repr__(self):
        return f"RingContext({self.field!r}, {','.join(self.names)}, {self.mode}, z={','.join(self.zvars) or '-'})"


# (number of variables, degree) -> tuple of all exponents of that degree
_DEGREE_TABLES = {}
# (number of variables, radix, order signature) -> Packing
_PACKINGS = {}
# order signature, or a sort key function -> KeyTable of that key
_KEY_TABLES = {}


def _degree_table(n, d):
    exps = _DEGREE_TABLES.get((n, d))
    if exps is None:
        exps = tuple(_exponents_of_degree(n, d, range(n)))
        exps = _DEGREE_TABLES.setdefault((n, d), exps)
    return exps


class Packing:
    """The exponents of degree below radix as the integers w.e in one order.

    w = order.weights(nvars, radix), so x^a x^e packs to a + e and packed
    exponents compare as the order compares the exponents.  of_degree(d)
    packs exponents_of_degree(d), in its order, on first use; unpack maps
    every exponent packed so far back to its tuple.
    """

    __slots__ = ("nvars", "radix", "weights", "levels", "unpack")

    def __init__(self, nvars, radix, order):
        self.nvars = nvars
        self.radix = radix
        self.weights = order.weights(nvars, radix)
        self.levels = {}  # degree -> packed exponents_of_degree(degree)
        self.unpack = {}

    def pack(self, e):
        return sum(map(operator.mul, self.weights, e))

    def of_degree(self, d):
        packed = self.levels.get(d)
        if packed is None:
            exps = _degree_table(self.nvars, d)
            packed = tuple(map(self.pack, exps))
            self.unpack.update(zip(packed, exps))
            packed = self.levels.setdefault(d, packed)
        return packed


def _key_table(name, key):
    table = _KEY_TABLES.get(name)
    if table is None:
        table = _KEY_TABLES.setdefault(name, KeyTable(key))
    return table.__getitem__


def _exponents_of_degree(n, d, idx):
    """Exponents of total degree d among n variables, supported on idx."""
    if d == 0:
        yield (0,) * n
        return
    if not idx:
        return
    for comb in itertools.combinations_with_replacement(idx, d):
        e = [0] * n
        for i in comb:
            e[i] += 1
        yield tuple(e)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial; no stored coefficient is zero."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _clean=True):
        self.ring = ring
        if _clean:
            fld = ring.field
            zero = fld.zero
            cleaned = {}
            for e, c in terms.items():
                c = fld.coerce(c)
                if c != zero:
                    cleaned[tuple(e)] = c
            terms = cleaned
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_on(self, indices):
        """Max total degree counting only the given variable indices."""
        if not self.terms:
            return NEG_INF
        return max(sum(e[i] for i in indices) for e in self.terms)

    def order_of_vanishing(self):
        """Min total degree of a term; NEG_INF for zero."""
        if not self.terms:
            return NEG_INF
        return min(sum(e) for e in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def lead(self, order=GREVLEX):
        """(exponent, coefficient) of the largest term in the order."""
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        e = max(self.terms, key=self.ring.order_key(order))
        return e, self.terms[e]

    def sorted_terms(self, order=GREVLEX):
        key = self.ring.order_key(order)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            self.ring.check_same(other.ring)
            return other
        return self.ring.constant(other)

    def __add__(self, other):
        other = self._coerce_other(other)
        fld = self.ring.field
        res = dict(self.terms)
        fld.row_sub(res, fld.neg(fld.one), other.terms.items())  # res += other
        return Polynomial(self.ring, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {e: fld.neg(c) for e, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            fld = self.ring.field
            c = fld.coerce(other)
            if c == fld.zero:
                return self.ring.zero()
            return Polynomial(
                self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()}, _clean=False
            )
        self.ring.check_same(other.ring)
        fld = self.ring.field
        res = {}
        terms = other.terms.items()
        for e1, c1 in self.terms.items():
            fld.row_sub(res, fld.neg(c1), [(e_add(e1, e2), c2) for e2, c2 in terms])
        return Polynomial(self.ring, res, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        fld = self.ring.field
        # over Q, expand (D p)^n on integers, D the lcm of the denominators,
        # and divide by D^n at the end: the same terms in the same order, as
        # every intermediate coefficient is scaled by a power of D
        D = math.lcm(*(c.denominator for c in self.terms.values())) if fld.char == 0 else 1
        result = self.ring.one()
        base = self if D == 1 else self * D
        k = n
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        if D == 1:
            return result
        Dn = D**n
        terms = {e: fld.div(c, Dn) for e, c in result.terms.items()}
        return Polynomial(self.ring, terms, _clean=False)

    def mul_term(self, exponent, coeff):
        """Multiply by coeff * x^exponent (no coercion checks, hot path)."""
        fld = self.ring.field
        if coeff == fld.zero:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            {e_add(e, exponent): fld.mul(c, coeff) for e, c in self.terms.items()},
            _clean=False,
        )

    def monic(self, order=GREVLEX):
        e, c = self.lead(order)
        if c == self.ring.field.one:
            return self
        inv = self.ring.field.inv(c)
        return self.mul_term((0,) * self.ring.nvars, inv)

    def truncate(self, bound):
        """Drop all terms of total degree >= bound."""
        if bound <= 0:
            return self.ring.zero()
        kept = {e: c for e, c in self.terms.items() if sum(e) < bound}
        if len(kept) == len(self.terms):
            return self
        return Polynomial(self.ring, kept, _clean=False)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring.same_as(other.ring) and self.terms == other.terms
        try:
            return self.terms == self.ring.constant(other).terms
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self, order=GREVLEX):
        return render_polynomial(self, order)

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# canonical text rendering


def _render_monomial(names, e):
    parts = []
    for n, k in zip(names, e):
        if k == 1:
            parts.append(n)
        elif k > 1:
            parts.append(f"{n}^{k}")
    return "*".join(parts)


def render_polynomial(p, order=GREVLEX):
    """Canonical rendering: descending terms, '*' products, '^' powers."""
    if p.is_zero():
        return "0"
    fld = p.ring.field
    names = p.ring.names
    out = []
    for i, (e, c) in enumerate(p.sorted_terms(order)):
        mono = _render_monomial(names, e)
        cs = fld.render(c)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if i == 0:
            out.append(("-" if negative else "") + body)
        else:
            out.append(("- " if negative else "+ ") + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# expression parsing (the same grammar the canonical renderer emits)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise InputSyntaxError(f"unexpected character {text[pos]!r}", col=pos + 1)
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


MAX_NESTING = 100  # parentheses plus unary minus signs; each level costs <= 4 frames
# Most term products one polynomial product of the parser may make.  A
# product of parenthesised factors makes one per pair of terms.  Expanding p^k
# multiplies two powers of p of exponent <= h = ceil(k/2), and a t-term p^h
# has at most C(t+h-1, h) terms, so it is held to C(t+h-1, h)^2 products:
# (x+y+z)^80 stays in with 741,321, (x+y+z)^120 and (x+y)^2000 are refused.
MAX_TERM_PRODUCTS = 10**6
# Most bits a coefficient of a power the parser takes over Q may need, by the
# bound of _power_bits, checked before the power is computed: 2^5000 and
# 3^5000 stay in, 2^5001 and 2^1000000000 are refused.  The numerator and
# the denominator of every coefficient of a parsed sum are held to it as
# well, so 2^5000*2^5000 is refused.  Each stays below Python's 4,300-digit
# limit on converting an int to text.  Over F_p a power costs O(log k) field
# products and is not bounded.
MAX_POWER_BITS = 10**4


class _ExprParser:
    """Recursive descent for sums of products of powers, with parentheses.

    A sum accumulates into one term dict, and a run of name[^int] and number
    factors folds into one coefficient and exponent; only parenthesised and
    negated factors are multiplied as polynomials.
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
        return Polynomial(self.ctx, p, _clean=False)

    def expr(self):
        """The term dict of a sum; acc -= sign * term adds or subtracts."""
        fld = self.ctx.field
        plus = fld.neg(fld.one)
        sign = plus
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = fld.one if val == "-" else plus
        acc = {}
        while True:
            start = self.peek()
            terms = self.term()
            fld.row_sub(acc, sign, terms.items())
            self.check_size(acc, terms, start)
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return acc
            self.take()
            sign = fld.one if val == "-" else plus

    def term(self):
        """The term dict of a product."""
        ctx = self.ctx
        fld = ctx.field
        coef = fld.one
        exp = [0] * ctx.nvars
        poly = None
        while True:
            tok = self.peek()
            if tok[0] == "name":
                self.take()
                i = ctx.index.get(tok[1])
                if i is None:
                    self.fail(f"unknown variable {tok[1]!r}", tok)
                exp[i] += self.power()
            elif tok[0] == "int":
                self.take()
                c = self.number(tok[1])
                at = self.i + 1  # the exponent's token, when a '^' follows
                k = self.power()
                self.check_bits([c], k, at)
                coef = fld.mul(coef, _field_pow(fld, c, k))
            else:
                p = self.factor()
                if poly is not None:
                    a, b = len(poly.terms), len(p.terms)
                    self.check_products(a * b, f"a product of {a}- and {b}-term factors", tok)
                    p = poly * p
                poly = p
            kind, val, _ = self.peek()
            if kind != "op" or val != "*":
                break
            self.take()
        if poly is not None:
            return poly.mul_term(tuple(exp), coef).terms
        return {tuple(exp): coef} if coef != fld.zero else {}

    def power(self):
        """The exponent after an optional '^'; 1 without one."""
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                self.fail("exponent must be a natural number", tok)
            return int(tok[1])
        return 1

    def number(self, val):
        """The value of the literal INT or INT/INT whose first INT, val, was taken."""
        nxt = self.peek()
        if nxt[0] == "op" and nxt[1] == "/":
            self.take()
            den = self.take()
            if den[0] != "int":
                self.fail("expected integer denominator", den)
            val = f"{val}/{den[1]}"
        return self.ctx.field.parse(val)

    def factor(self):
        p = self.atom()
        at = self.i + 1  # the exponent's token, when a '^' follows
        k = self.power()
        t = len(p.terms)
        if t > 1 and k > 1:
            count = math.comb(t + (k + 1) // 2 - 1, t - 1) ** 2
            self.check_products(count, f"the power {k} of a {t}-term sum", self.tokens[at])
        self.check_bits(p.terms.values(), k, at)
        return p ** k

    def check_products(self, count, what, tok):
        """Refuse, at tok, a product of more than MAX_TERM_PRODUCTS term products."""
        if count > MAX_TERM_PRODUCTS:
            self.fail(f"{what} needs more than {MAX_TERM_PRODUCTS} term products to expand", tok)

    def check_bits(self, values, k, at):
        """Refuse, at token at, a power k over Q of a polynomial with the
        coefficients values whose own coefficients may pass MAX_POWER_BITS bits."""
        if k > 1 and self.ctx.field.char == 0:
            bits = _power_bits(values, k)
            if bits > MAX_POWER_BITS:
                self.fail(
                    f"the power {k} may need {bits} bits per coefficient, "
                    f"more than {MAX_POWER_BITS}",
                    self.tokens[at],
                )

    def check_size(self, acc, exps, tok):
        """Refuse, at tok, a coefficient of acc at one of exps over Q whose
        numerator or denominator has more than MAX_POWER_BITS bits."""
        if self.ctx.field.char == 0:
            for e in exps:
                c = acc.get(e, 0)
                if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_POWER_BITS:
                    self.fail(f"a coefficient has more than {MAX_POWER_BITS} bits", tok)

    def atom(self):
        tok = self.take()
        kind, val, start = tok
        if kind == "int":
            return self.ctx.constant(self.number(val))
        if kind == "name":
            if val not in self.ctx.index:
                self.fail(f"unknown variable {val!r}", tok)
            return self.ctx.variable(val)
        if kind == "op" and val in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)
            if val == "(":
                p = Polynomial(self.ctx, self.expr(), _clean=False)
                close = self.take()
                if close[:2] != ("op", ")"):
                    self.fail("expected ')'", close)
            else:
                p = -self.factor()
            self.depth -= 1
            return p
        self.fail(f"unexpected {val!r}" if val else "unexpected end of input", tok)


def _power_bits(values, k):
    """An upper bound on the bits of every coefficient of p^k, for p over Q
    with the nonzero coefficients values.

    With D the product of their denominators, p = (1/D) sum A_i x^(a_i) for
    integers A_i, and the l1 norm is submultiplicative, so each coefficient
    of p^k is an integer of size at most (sum |A_i|)^k over a divisor of D^k.
    A numerator sum or a D of 1 adds no bits.
    """
    values = list(values)
    D = math.prod(c.denominator for c in values)
    num = sum(abs(c.numerator) * (D // c.denominator) for c in values)
    return k * sum(x.bit_length() for x in (num, D) if x > 1)


def _field_pow(fld, c, n):
    """c^n by squaring, as Polynomial.__pow__ computes it."""
    result = fld.one
    while n:
        if n & 1:
            result = fld.mul(result, c)
        n >>= 1
        if n:
            c = fld.mul(c, c)
    return result


def parse_polynomial(ctx, text):
    return _ExprParser(ctx, _tokenize(text)).parse()


def context_from_names(names, field=QQ, mode="graded", zvars=()):
    """Convenience constructor from 'x,y,z' style strings."""
    if isinstance(names, str):
        names = tuple(n.strip() for n in names.split(",") if n.strip())
    if isinstance(zvars, str):
        zvars = tuple(n.strip() for n in zvars.split(",") if n.strip())
    if isinstance(field, str):
        field = field_from_name(field)
    return RingContext(field, tuple(names), mode, tuple(zvars))
