"""Order functions, monoid-ideal socles, and graded-dimension identities.

The Rees map sends polynomial generators of degree one onto the initial
forms of a filtration-defining sequence; when the sequence is regular the
map is an isomorphism, which pins down the dimensions of all graded pieces.
These checks measure both sides inside Artinian truncations so every count
is a finite exact integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import DegenerateInputError, InvalidDivisorError
from .groebner import DEFAULT_CEILING, Ideal, artinian_form, is_regular
from .duality import socle_basis
from .linalg import Echelon
from .ring import GREVLEX, e_unit


# ---------------------------------------------------------------------------
# monoid ideals in N^t


@dataclass(frozen=True)
class MonoidIdeal:
    """Finitely generated up-set in N^t, given by its generator exponents."""

    t: int
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.t:
                raise ValueError(f"generator {g} does not live in N^{self.t}")
            if any(x < 0 for x in g):
                raise ValueError(f"generator {g} has a negative entry")
            if not any(g):
                raise ValueError("monoid ideal generators must be nonzero")

    def contains(self, n):
        return any(all(gi <= ni for gi, ni in zip(g, n)) for g in self.generators)

    def socle(self):
        """All n outside the ideal with every positive translate inside.

        For a socle element n, n + e_i lies over some generator g that n
        does not, so g_i = n_i + 1: each n_i is some g_i - 1 with g_i >= 1,
        and only those candidates are scanned, in sorted order.
        """
        if not self.generators:
            return []
        units = [e_unit(self.t, i) for i in range(self.t)]
        slots = [sorted({g[i] - 1 for g in self.generators if g[i]}) for i in range(self.t)]
        return [
            n
            for n in itertools.product(*slots)
            if not self.contains(n)
            and all(self.contains(tuple(a + b for a, b in zip(n, e))) for e in units)
        ]


def diagonal_monoid_ideal(m):
    """The monoid ideal generated by the coordinate multiples m_i e_i."""
    t = len(m)
    return MonoidIdeal(t, tuple(e_unit(t, i, m[i]) for i in range(t)))


# ---------------------------------------------------------------------------
# filtration orders


@dataclass(frozen=True)
class FiltrationOrder:
    value: object  # int, or None for the zero element (infinite order)
    exact: bool

    def __str__(self):
        if self.value is None:
            return "infinity"
        return str(self.value) if self.exact else f">={self.value}"


class FiltrationContext:
    """An ideal-adic filtration with cached ideal powers."""

    def __init__(self, ideal):
        self.ideal = ideal
        self._powers = {1: ideal}

    def power(self, k):
        if k < 1:
            raise ValueError("only positive powers are cached")
        J = self._powers.get(k)
        if J is None:
            gens = [
                _product(self.ideal.ring, combo)
                for combo in itertools.combinations_with_replacement(self.ideal.gens, k)
            ]
            J = Ideal(self.ideal.ring, gens)
            self._powers[k] = J
        return J

    def ord(self, p, cap=16):
        """max{k : p in J^k}; exact below the cap, flagged at or above it."""
        if cap < 0:
            raise ValueError(f"cap {cap} must be at least 0")
        if p.is_zero():
            return FiltrationOrder(None, False)
        k = 0
        while k < cap:
            if not self.power(k + 1).contains(p):
                return FiltrationOrder(k, True)
            k += 1
        return FiltrationOrder(cap, False)


def _product(ring, polys):
    out = ring.one()
    for p in polys:
        out = out * p
    return out


def filtration_order(I, p, cap=16):
    return FiltrationContext(I).ord(p, cap)


# ---------------------------------------------------------------------------
# the Rees dimension check


@dataclass
class ReesCheckRow:
    level: int
    graded_dim: int
    expected: int

    @property
    def ok(self):
        return self.graded_dim == self.expected


@dataclass
class ReesCheckReport:
    regular: bool
    reason: str = ""
    rows: list = dc_field(default_factory=list)

    @property
    def passed(self):
        return self.regular and all(r.ok for r in self.rows)


def _sequence_regular(seq, I, order):
    """(True, "") for a regular sequence, else (False, the reason), which
    names the failing element rendered in order."""
    current = I
    for f in seq:
        try:
            if not is_regular(f, current):
                return False, f"{f.render(order)} is a zerodivisor modulo the previous part"
        except DegenerateInputError:
            return False, f"{f.render(order)} lies in the ideal generated by the previous part"
        current = current.plus([f])
    return True, ""


def rees_dimension_check(seq, I, level, degcap=3, order=GREVLEX):
    """Compare graded pieces of the sequence-adic filtration with their model.

    For each l <= level the dimension of J^l / (J^(l+1) + m^degcap J^l) over
    P/I is compared with (number of degree-l monomials in len(seq) letters)
    times dim of P/(I + <seq> + m^degcap).  Equality for every l is what the
    Rees isomorphism predicts for a regular sequence; a non-regular sequence
    is rejected up front and the comparison is skipped.

    Every count runs in GREVLEX; order only renders the element that a
    rejection names.  Local-mode inputs are measured on polynomial
    representatives, with the same caveat as the regularity test.
    """
    if level < 0:
        raise ValueError(f"level {level} must be at least 0")
    ring = I.ring
    if not seq:
        raise InvalidDivisorError("empty sequence")
    ok, reason = _sequence_regular(seq, I, order)
    if not ok:
        return ReesCheckReport(False, reason)
    t = degcap
    base = I.plus(list(seq)).truncated(t)
    base_dim = base.quotient().length
    one = ring.field.one
    report = ReesCheckReport(True)
    # the generators of J^(l+1) are those of J^l times each f with index at
    # least their last factor's: combinations with replacement, each built once
    G_next = [(ring.one(), 0)]
    for l in range(level + 1):
        G_l = G_next
        G_next = [(g * seq[i], i) for g, last in G_l for i in range(last, len(seq))]
        denom_gens = list(I.gens) + [g for g, _ in G_next]
        for w in ring.exponents_of_degree(t):
            denom_gens.extend(g.mul_term(w, one) for g, _ in G_l)
        denom = Ideal(ring, denom_gens)
        ech = Echelon(ring.field, ring.order_key(GREVLEX))
        for g, _ in G_l:
            for v in ring.exponents_upto(t - 1):
                nf = denom.normal_form(g.mul_term(v, one))
                if nf:
                    ech.insert(nf.terms)
        report.rows.append(ReesCheckRow(l, ech.rank, len(G_l) * base_dim))
    return report


# ---------------------------------------------------------------------------
# the socle product identity


@dataclass
class SocleProductReport:
    regular: bool
    reason: str = ""
    socle_dim: int = 0
    base_socle_dim: int = 0
    monoid_socle_size: int = 0
    product_basis_ok: bool = False

    @property
    def passed(self):
        return (
            self.regular
            and self.product_basis_ok
            and self.socle_dim == self.base_socle_dim * self.monoid_socle_size
        )


def socle_product_check(I, seq, M, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """Check dim soc(R/<h^M>) = |soc M| * dim soc(R/<h>) with its product basis.

    R = P/I, h = seq maps to a regular sequence.  The predicted socle basis
    consists of the products (base socle representative) * h^m over socle
    exponents m of the monoid ideal; the check verifies these are socle
    members, linearly independent, and of the full predicted count, all
    in GREVLEX; order only renders the element that a rejection names.
    """
    ring = I.ring
    if len(seq) != M.t:
        raise ValueError("sequence length does not match the monoid-ideal dimension")
    ok, reason = _sequence_regular(seq, I, order)
    if not ok:
        return SocleProductReport(False, reason)
    power_ideal = I.plus([
        _product(ring, [f for f, k in zip(seq, row) for _ in range(k)])
        for row in M.generators
    ])
    big, _ = artinian_form(power_ideal, ceiling)
    small, _ = artinian_form(I.plus(list(seq)), ceiling)
    soc_m = M.socle()
    big_socle = socle_basis(big, GREVLEX, ceiling)
    base_socle = socle_basis(small, GREVLEX, ceiling)
    report = SocleProductReport(
        True,
        socle_dim=len(big_socle),
        base_socle_dim=len(base_socle),
        monoid_socle_size=len(soc_m),
    )
    aq = big.quotient()
    variables = [ring.variable(i) for i in range(ring.nvars)]
    ech = Echelon(ring.field, ring.order_key(GREVLEX))
    ok_products = True
    for m in soc_m:
        hm = _product(ring, [f for f, k in zip(seq, m) for _ in range(k)])
        for rep in base_socle:
            prod = rep * hm
            if any(aq.nf_vector(v * prod) for v in variables):
                ok_products = False
                continue
            vec = aq.nf_vector(prod)
            if not vec or ech.insert(vec) is None:
                ok_products = False
    report.product_basis_ok = ok_products and ech.rank == len(soc_m) * len(base_socle)
    return report
