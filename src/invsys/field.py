"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

All polynomial and linear algebra is generic over the small field interface
below.  A rational value is a plain int when it is integral and a
`fractions.Fraction` (lowest terms, positive denominator) only when it is
not; the arithmetic stays exact either way, and never yields a float.
Prime-field values are plain ints in [0, p).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputSyntaxError


def _canonical(q):
    """An exact rational in canonical form: the int itself, or its Fraction."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


class Rationals:
    """The rational numbers.

    Values are ints when integral and Fractions otherwise.  The two forms
    agree on ==, hash and str for integral values, so callers never need to
    tell them apart, but integer work stays off Fraction's slow arithmetic.
    Every operation returns a value in this canonical form.
    """

    name = "Q"
    char = 0
    zero = 0
    one = 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return _canonical(x)
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    # add, sub and mul inline _canonical: they are the echelon's inner loop
    def add(self, a, b):
        c = a + b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def sub(self, a, b):
        c = a - b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def mul(self, a, b):
        c = a * b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            # never a / b, which is a float
            q, r = divmod(a, b)
            return q if r == 0 else Fraction(a, b)
        return _canonical(a / b)

    def neg(self, a):
        return _canonical(-a)

    def inv(self, a):
        if type(a) is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        num, den = a.numerator, a.denominator
        return den * num if num == 1 or num == -1 else Fraction(den, num)

    def parse(self, text):
        try:
            return _canonical(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputSyntaxError(f"bad rational literal {text!r}") from exc

    def render(self, a):
        return str(a)

    def signature(self):
        return ("Q",)

    def __eq__(self, other):
        return isinstance(other, (Rationals, PrimeField)) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Deterministic primality; ValueError when n is beyond the exact range."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for an exact primality test (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p prime; elements are ints reduced mod p."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into F{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return a * pow(b, self.p - 2, self.p) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return self.div(1, a)

    def parse(self, text):
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputSyntaxError(f"bad field literal {text!r}") from exc

    def render(self, a):
        return str(a % self.p)

    def signature(self):
        return ("F", self.p)

    def __eq__(self, other):
        return isinstance(other, (Rationals, PrimeField)) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def field_from_name(name):
    """Build a field from a descriptor such as 'Q', 'F7' or 'fp:7'.

    A descriptor that names no field, or a modulus that is not an integer
    or not a prime this module can certify, raises InputSyntaxError.
    """
    if not isinstance(name, str):
        raise InputSyntaxError(f"field descriptor {name!r} is not a string")
    text = name.strip()
    if text in ("Q", "q", "QQ"):
        return QQ
    if text.lower().startswith("fp:"):
        modulus = text[3:]
    elif text[:1] in ("F", "f") and text[1:].isdigit():
        modulus = text[1:]
    else:
        raise InputSyntaxError(f"unknown field descriptor {name!r}")
    try:
        p = int(modulus)
    except ValueError:
        raise InputSyntaxError(f"field modulus {modulus!r} is not an integer") from None
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise InputSyntaxError(str(exc)) from exc
