"""Buchberger on inputs with redundant monomials, and the Rees check built on it.

buchberger keeps only the minimal monomial generators before forming any
pair, so a monomial that another divides, or a copy of one, must change
neither the reduced basis nor anything read off it.  The Rees check builds
each power of the sequence ideal once and its monomial multiples by exponent
shifts; a test-local copy of the earlier formulation is the reference.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invsys import GREVLEX, LEX, Ideal, context_from_names
from invsys import groebner
from invsys.groebner import buchberger
from invsys.io import parse_ideal_file
from invsys.linalg import Echelon
from invsys.rees import ReesCheckReport, ReesCheckRow, _product, _sequence_regular, rees_dimension_check
from invsys.ring import e_add, e_divides

try:
    import sympy
except ImportError:  # the sympy cross-check is optional
    sympy = None

CI_D2 = Path(__file__).resolve().parent / "golden" / "ci_d2.ideal"
ORDERS = {"grevlex": GREVLEX, "lex": LEX}
FIELDS = ("Q", "F32003")

# ---------------------------------------------------------------------------
# property: redundant monomials change no reduced basis

_EXPONENT = st.tuples(*[st.integers(0, 2)] * 3)
_COEFF = st.sampled_from([-2, -1, 1, 2, 3])
_POLY = st.lists(st.tuples(_EXPONENT, _COEFF), min_size=1, max_size=3)


def _poly(ctx, terms):
    p = ctx.zero()
    for e, c in terms:
        p = p + ctx.monomial(e, c)
    return p


def _sympy_basis(ctx, gens, order_name):
    """sympy's reduced basis of <gens>, rendered, monic, in the same order."""
    syms = sympy.symbols(ctx.names)
    exprs = [
        sympy.Add(*(sympy.Rational(str(c)) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
                    for e, c in g.terms.items()))
        for g in gens
    ]
    options = {"domain": "QQ"} if ctx.field.char == 0 else {"modulus": ctx.field.char}
    G = sympy.groebner(exprs, *syms, order=order_name, **options)
    out = set()
    for g in G.exprs:
        terms = {}
        for e, c in sympy.Poly(g, *syms, domain="QQ").terms():
            c = sympy.Rational(c)
            terms[tuple(e)] = Fraction(int(c.p), int(c.q))
        out.add(ctx.from_terms(terms).monic(ORDERS[order_name]).render(ORDERS[order_name]))
    return out


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    order_name=st.sampled_from(sorted(ORDERS)),
    polys=st.lists(_POLY, min_size=0, max_size=2),
    monos=st.lists(_EXPONENT, min_size=1, max_size=3),
    shifts=st.lists(st.tuples(st.integers(0, 10), _EXPONENT), max_size=4),
    copies=st.lists(st.tuples(st.integers(0, 10), _COEFF), max_size=3),
    positions=st.randoms(use_true_random=False),
)
def test_redundant_monomials_leave_the_reduced_basis_unchanged(
    field, order_name, polys, monos, shifts, copies, positions
):
    ctx = context_from_names("x,y,z", field=field)
    order = ORDERS[order_name]
    base = [_poly(ctx, p) for p in polys] + [ctx.monomial(e) for e in monos]
    # multiples of input monomials, and copies with other coefficients
    extra = [ctx.monomial(e_add(monos[i % len(monos)], a)) for i, a in shifts]
    extra += [ctx.monomial(monos[i % len(monos)], c) for i, c in copies]
    padded = base + extra
    positions.shuffle(padded)
    reference = buchberger(ctx, base, order)
    assert buchberger(ctx, padded, order) == reference
    if sympy is not None:
        assert _sympy_basis(ctx, base, order_name) == {g.render(order) for g in reference}


# ---------------------------------------------------------------------------
# one pair update per minimal generator or S-pair remainder


def _denominator(field, level, degcap):
    """I + J^(level+1) + m^degcap J^level for the ci instance, J = <z0, z1>."""
    ctx, I = parse_ideal_file(CI_D2.read_text(), field_override=field)
    seq = [ctx.variable(z) for z in ctx.zvars]
    power = lambda k: [_product(ctx, c) for c in itertools.combinations_with_replacement(seq, k)]
    gens = list(I.gens) + power(level + 1)
    for w in ctx.exponents_of_degree(degcap):
        gens.extend(ctx.monomial(w) * g for g in power(level))
    return ctx, gens


def test_pair_updates_follow_the_minimal_generators(monkeypatch):
    ctx, gens = _denominator("F32003", 4, 3)
    monic = {frozenset(g.monic().terms.items()): g for g in gens}
    monos = sorted({e for g in gens if len(g.terms) == 1 for e in g.terms}, key=sum)
    minimal = [e for e in monos if not any(m != e and e_divides(m, e) for m in monos)]
    others = [fp for fp, g in monic.items() if len(g.terms) > 1]
    calls = {"update": 0, "remainders": 0}
    pending = []
    update, s_poly, reduce = groebner._gm_update, groebner.s_poly_terms, groebner.reduce_terms

    def counted_update(*args):
        calls["update"] += 1
        return update(*args)

    def marked_s_poly(*args):
        pending.append(True)
        return s_poly(*args)

    def counted_reduce(*args):
        rem = reduce(*args)
        if pending:
            pending.clear()
            calls["remainders"] += bool(rem)
        return rem

    monkeypatch.setattr(groebner, "_gm_update", counted_update)
    monkeypatch.setattr(groebner, "s_poly_terms", marked_s_poly)
    monkeypatch.setattr(groebner, "reduce_terms", counted_reduce)
    basis = buchberger(ctx, gens)
    assert len(monos) > len(minimal) + 10  # the input is mostly redundant
    assert calls["update"] <= len(minimal) + len(others) + calls["remainders"]
    assert len(basis) == 13


# ---------------------------------------------------------------------------
# the Rees check against its earlier formulation


def _reference_rees_check(seq, I, level, degcap, order=GREVLEX):
    """rees_dimension_check as it was before exponent shifts: every power of
    <seq> rebuilt from its products, every monomial multiple a product."""
    ring = I.ring
    ok, reason = _sequence_regular(seq, I, order)
    if not ok:
        return ReesCheckReport(False, reason)
    t = degcap
    base = I.plus(list(seq)).truncated(t)
    base_dim = base.quotient(order).length
    report = ReesCheckReport(True)
    for l in range(level + 1):
        G_l = [_product(ring, c) for c in itertools.combinations_with_replacement(seq, l)]
        G_next = [_product(ring, c) for c in itertools.combinations_with_replacement(seq, l + 1)]
        denom_gens = list(I.gens) + G_next
        for w in ring.exponents_of_degree(t):
            wm = ring.monomial(w)
            denom_gens.extend(wm * g for g in G_l)
        denom = Ideal(ring, denom_gens)
        ech = Echelon(ring.field, ring.order_key(order))
        for g in G_l:
            for v in ring.exponents_upto(t - 1):
                nf = denom.normal_form(ring.monomial(v) * g, order)
                if nf:
                    ech.insert(nf.terms)
        report.rows.append(ReesCheckRow(l, ech.rank, len(G_l) * base_dim))
    return report


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("degcap", (2, 3))
def test_rees_check_matches_its_reference_on_the_ci_instance(field, degcap):
    ctx, I = parse_ideal_file(CI_D2.read_text(), field_override=field)
    seq = [ctx.variable(z) for z in ctx.zvars]
    for level in range(5):
        new = rees_dimension_check(seq, I, level, degcap)
        assert new.passed
        assert new == _reference_rees_check(seq, I, level, degcap)


PLANTED = (
    (("x", "x*y"), ()),
    (("x*y",), ("x^2",)),
    (("y", "x*y"), ()),
    (("x + y", "(x + y)*x"), ()),
    (("x", "x^2"), ()),
    (("y^2", "x*y^2"), ()),
)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seq_text, ideal_text", PLANTED)
def test_rees_check_rejects_planted_sequences_as_its_reference_does(field, seq_text, ideal_text):
    ctx = context_from_names("x,y", field=field)
    seq = [ctx.parse(f) for f in seq_text]
    I = Ideal(ctx, [ctx.parse(g) for g in ideal_text])
    new = rees_dimension_check(seq, I, 2, 2)
    assert not new.regular and new.reason
    assert new == _reference_rees_check(seq, I, 2, 2)
