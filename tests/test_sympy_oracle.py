"""Differential cross-check of the Artinian machinery against sympy.groebner.

On seeded random m-primary ideals, in grevlex and lex, in both the graded
and the local context, three computations must agree with sympy:

* the reduced Groebner basis of I + m^N, for N below, at and above the bound;
* normal forms of random polynomials modulo that ideal;
* the Hilbert profile dim (I + m^k) / (I + m^(k+1)), together with the bound.

On seeded random local ideals over Q and F_32003, Artinian or not, the
bound and the length read off lead monomials must agree with sympy, and a
non-Artinian one must be refused as such before any kernel is built.

On seeded random positive-dimensional ideals, the nonzerodivisor test must
agree with the colon sympy computes: I & (f) by elimination, then divided
by f.

sympy only ever sees polynomial ideals that contain a power of the maximal
ideal, where the polynomial and the power-series quotients agree.  Its
profile is L(k+1) - L(k) with L(k) = dim P/(I + m^k) counted from its
standard monomials; the bound is the first k with L(k) = L(k+1), which is
Nakayama's criterion m^k <= I + m^(k+1).
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from invsys import (  # noqa: E402
    GREVLEX,
    LEX,
    DegenerateInputError,
    Ideal,
    artinian_bound,
    artinian_form,
    context_from_names,
    hilbert_data,
    is_regular,
)
from invsys import groebner  # noqa: E402
from invsys.errors import UnboundedQuotientError  # noqa: E402

ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def _symbols(ctx):
    return sympy.symbols(ctx.names)


def _to_sympy(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        mono = sympy.Integer(1)
        for s, k in zip(syms, e):
            mono *= s**k
        expr += sympy.Rational(c.numerator, c.denominator) * mono
    return expr


def _from_sympy(ctx, expr, syms):
    poly = sympy.Poly(expr, *syms, domain="QQ")
    terms = {}
    for e, c in poly.terms():
        c = sympy.Rational(c)
        terms[tuple(e)] = Fraction(int(c.p), int(c.q))
    return ctx.from_terms(terms)


def _monic_from_sympy(ctx, expr, syms, order):
    return _from_sympy(ctx, expr, syms).monic(order)


def _sympy_basis(ctx, gens, N, order_name):
    """sympy's reduced basis of <gens> + m^N (m^N omitted when N is None)."""
    syms = _symbols(ctx)
    exprs = [_to_sympy(g, syms) for g in gens]
    if N is not None:
        exprs += [_to_sympy(ctx.monomial(e), syms) for e in ctx.exponents_of_degree(N)]
    domain = {"domain": "QQ"} if ctx.field.name == "Q" else {"modulus": ctx.field.p}
    return sympy.groebner(exprs, *syms, order=order_name, **domain)


def _colength(ctx, gens, k, order_name):
    """L(k) = dim P/(<gens> + m^k), from sympy's standard monomials."""
    if k == 0:
        return 0
    G = _sympy_basis(ctx, gens, k, order_name)
    syms = _symbols(ctx)
    lms = [sympy.Poly(g, *syms).monoms(order=order_name)[0] for g in G.exprs]
    return sum(
        1
        for e in ctx.exponents_upto(k - 1)
        if not any(all(a <= b for a, b in zip(m, e)) for m in lms)
    )


def _oracle_profile(ctx, gens, order_name, ceiling=12):
    L = [_colength(ctx, gens, 0, order_name)]
    for k in range(ceiling + 1):
        L.append(_colength(ctx, gens, k + 1, order_name))
        if L[k] == L[k + 1]:
            return k, [L[j + 1] - L[j] for j in range(k)]
    raise AssertionError("oracle found no bound below its ceiling")


def _random_terms(ctx, rng, lo, hi, count):
    p = ctx.zero()
    pool = [e for e in ctx.exponents_upto(hi) if sum(e) >= lo]
    for _ in range(count):
        p = p + ctx.monomial(rng.choice(pool), rng.choice([-3, -2, -1, 1, 2, Fraction(1, 2)]))
    return p


def _graded_ideal(seed):
    """Pure powers make it m-primary; the random tails make the basis nontrivial."""
    rng = random.Random(seed)
    ctx = context_from_names("x,y,z" if seed % 2 else "x,y")
    gens = [ctx.variable(i) ** rng.randint(3, 5) for i in range(ctx.nvars)]
    for _ in range(rng.randint(1, 2)):
        gens.append(_random_terms(ctx, rng, 1, 3, rng.randint(2, 3)))
    return ctx, gens


def _local_ideal(seed):
    """x_i^d_i plus strictly higher-order terms: m-primary only locally."""
    rng = random.Random(seed)
    three = seed % 3 == 0
    ctx = context_from_names("x,y,z" if three else "x,y", mode="local")
    gens = []
    for i in range(ctx.nvars):
        d = 2 if three else rng.randint(2, 3)
        gens.append(ctx.variable(i) ** d + _random_terms(ctx, rng, d + 1, d + 1 + (not three), rng.randint(1, 3)))
    if rng.random() < 0.5:
        gens.append(_random_terms(ctx, rng, 2, 3, 2))
    return ctx, gens


CASES = [(mode, name, seed) for mode in ("graded", "local") for name in ORDERS for seed in (1, 2, 3)]


@pytest.mark.parametrize("mode,order_name,seed", CASES)
def test_reduced_bases_normal_forms_and_profiles(mode, order_name, seed):
    ctx, gens = (_graded_ideal if mode == "graded" else _local_ideal)(seed)
    order = ORDERS[order_name]
    syms = _symbols(ctx)
    rng = random.Random(100 + seed)
    I = Ideal(ctx, gens)

    bound, profile = _oracle_profile(ctx, gens, order_name)
    assert artinian_bound(I) == bound
    assert list(hilbert_data(I).values) == profile

    if mode == "graded":
        G = _sympy_basis(ctx, gens, None, order_name)
        assert sorted(map(str, I.groebner(order))) == sorted(
            str(_monic_from_sympy(ctx, g, syms, order)) for g in G.exprs
        )

    for N in sorted({max(bound - 1, 1), bound, bound + 2}):
        J = I.truncated(N)
        G = _sympy_basis(ctx, gens, N, order_name)
        ours = J.groebner(order)
        theirs = [_monic_from_sympy(ctx, g, syms, order) for g in G.exprs]
        assert sorted(map(str, ours)) == sorted(map(str, theirs))
        for _ in range(4):
            p = _random_terms(ctx, rng, 0, N + 1, rng.randint(2, 6))
            nf = J.normal_form(p, order)
            expected = _from_sympy(ctx, G.reduce(_to_sympy(p, syms))[1], syms)
            assert nf == expected


def _local_case(seed):
    """A seeded local ideal in two or three variables over Q or F_32003, an
    order, and whether P^/I is Artinian.

    Artinian: x_i^d_i times a unit or plus higher terms, so the tangent cone
    holds x_i^d_i, and random extras; every eighth seed adds a unit (N = 0).
    Not Artinian: combinations of x_i - phi_i(t), t the last variable, all
    vanishing on the curve x_i = phi_i(t) through the origin.
    """
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    field = rng.choice(["Q", "F32003"])
    ctx = context_from_names(",".join(f"x{i}" for i in range(n)), field=field, mode="local")
    order_name = rng.choice(sorted(ORDERS))
    if seed % 10 < 3:
        t = ctx.variable(n - 1)
        curve = [
            ctx.variable(i) - sum((t**k * rng.choice([-2, -1, 1, 3]) for k in rng.sample([1, 2, 3], 2)), ctx.zero())
            for i in range(n - 1)
        ]
        gens = []
        for _ in range(rng.randint(1, n)):
            g = sum((_random_terms(ctx, rng, 0, 2, rng.randint(1, 2)) * c for c in curve), ctx.zero())
            gens.append(g if not g.is_zero() else curve[0])
        return ctx, gens, order_name, False
    gens = []
    for i in range(n):
        d = rng.randint(2, 4 - (n == 3))
        if rng.random() < 0.5:
            gens.append(ctx.variable(i) ** d * (ctx.one() + _random_terms(ctx, rng, 1, 2, rng.randint(1, 2))))
        else:
            gens.append(ctx.variable(i) ** d + _random_terms(ctx, rng, d + 1, d + 2, rng.randint(1, 3)))
    if rng.random() < 0.5:
        gens.append(_random_terms(ctx, rng, 2, 3, 2))
    if seed % 8 == 7:
        gens.append(_random_terms(ctx, rng, 0, 2, 2) + 1)
    return ctx, gens, order_name, True


LOCAL_SEEDS = range(60)


def test_local_cases_cover_fields_orders_and_verdicts():
    kinds = set()
    for seed in LOCAL_SEEDS:
        ctx, _, order_name, artinian = _local_case(seed)
        kinds.add((ctx.field.name, order_name, artinian))
    assert len(kinds) == 8


@pytest.mark.parametrize("seed", LOCAL_SEEDS)
def test_local_bound_and_length_match_sympy(seed, monkeypatch):
    # the bound and the length come from the leads of a standard basis;
    # a non-Artinian input is refused by them, before any kernel is built
    ctx, gens, order_name, artinian = _local_case(seed)
    order = ORDERS[order_name]
    built = []
    init = groebner.ArtinianQuotient.__init__
    monkeypatch.setattr(groebner.ArtinianQuotient, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    I = Ideal(ctx, gens)
    if not artinian:
        with pytest.raises(UnboundedQuotientError) as exc:
            artinian_form(I)
        assert type(exc.value) is UnboundedQuotientError
        assert "infinitely many standard monomials" in str(exc.value)
        assert built == []
        return
    bound, profile = _oracle_profile(ctx, gens, order_name)
    J, N = artinian_form(I)
    assert (N, J.quotient(order).length) == (bound, sum(profile))
    assert len(built) == 1


@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_local_bound_beyond_the_hint(order_name, monkeypatch):
    # the one kernel at the hint certifies nothing, so the bound comes from
    # the leads of a standard basis instead, and one more kernel is built
    ctx = context_from_names("x,y", mode="local")
    x, y = ctx.variable(0), ctx.variable(1)
    gens = [x**4 + y**5 + x**3 * y**2, y**3 + x**5 - x**2 * y**2]
    order = ORDERS[order_name]
    bound, profile = _oracle_profile(ctx, gens, order_name)
    assert bound >= 4
    truncations = []
    init = groebner.ArtinianQuotient.__init__
    monkeypatch.setattr(
        groebner.ArtinianQuotient, "__init__", lambda self, I, *a: truncations.append(I.trunc) or init(self, I, *a)
    )
    I = Ideal(ctx, gens)
    assert artinian_bound(I, hint=1) == bound
    J, N = artinian_form(I)
    assert N == bound
    G = _sympy_basis(ctx, gens, N, order_name)
    assert sorted(map(str, J.groebner(order))) == sorted(
        str(_monic_from_sympy(ctx, g, _symbols(ctx), order)) for g in G.exprs
    )
    assert truncations == [2, bound]
    assert list(hilbert_data(I).values) == profile


def _sympy_regular(ctx, gens, f):
    """(I : f) = I by sympy: I & (f) eliminating t from t*I + (1 - t)*f in
    lex, each element divided by f, each quotient tested for membership."""
    syms = _symbols(ctx)
    t = sympy.Symbol("t")
    exprs = [_to_sympy(g, syms) for g in gens]
    F = _to_sympy(f, syms)
    G = sympy.groebner([t * g for g in exprs] + [(1 - t) * F], t, *syms, order="lex", domain="QQ")
    GI = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    for g in G.exprs:
        if g.has(t):
            continue
        q, r = sympy.div(g, F, *syms, domain="QQ")
        assert r == 0
        if not GI.contains(q):
            return False
    return True


def _regularity_case(seed):
    """A small ideal in two or three variables, and a variable, a linear
    form or another polynomial to test; a common factor every third seed."""
    rng = random.Random(seed)
    ctx = context_from_names("x,y,z" if seed % 2 else "x,y")
    gens = [_random_terms(ctx, rng, 1, 2, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    if seed % 3 == 0:
        h = _random_terms(ctx, rng, 1, 1, 2)
        gens = [g * h for g in gens]
    gens = [g for g in gens if not g.is_zero()]
    kind = seed % 4
    if kind < 2:
        f = ctx.variable(rng.randrange(ctx.nvars)) * (1 if kind == 0 else rng.choice([2, -3]))
    elif kind == 2:
        f = _random_terms(ctx, rng, 1, 1, 2)
    else:
        f = _random_terms(ctx, rng, 0, 2, 2)
    return ctx, gens, f


@pytest.mark.parametrize("seed", range(24))
def test_is_regular_matches_the_sympy_colon(seed):
    ctx, gens, f = _regularity_case(seed)
    I = Ideal(ctx, gens)
    if f.is_zero() or I.contains(f):
        with pytest.raises(DegenerateInputError):
            is_regular(f, I)
        return
    assert is_regular(f, I) == _sympy_regular(ctx, gens, f)
