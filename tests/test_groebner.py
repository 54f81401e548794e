import random

import pytest
from hypothesis import given, settings, strategies as st

from invsys import (
    GREVLEX,
    LEX,
    DegenerateInputError,
    Ideal,
    InvalidDivisorError,
    MonomialOrder,
    UnboundedQuotientError,
    artinian_bound,
    artinian_form,
    context_from_names,
    exact_divide,
    find_linear_regular_sequence,
    hilbert_data,
    ideal_colon,
    ideal_intersect,
    is_regular,
)
from invsys.errors import TruncationLimitError
from invsys.groebner import ArtinianQuotient

from oracles import equal_as_artinian, monomial_in_monomial_ideal


@pytest.fixture
def ctx2():
    return context_from_names("x,y")


@pytest.fixture
def ctx3():
    return context_from_names("x,y,z")


def test_normal_form_membership(ctx2):
    x = ctx2.variable(0)
    assert Ideal(ctx2, [x]).normal_form(x ** 2).is_zero()


def test_normal_form_linear(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    nf = Ideal(ctx2, [x - y]).normal_form(x + y, MonomialOrder("lex"))
    assert nf == 2 * y


def test_normal_form_curve_generator(curve):
    ctx, I = curve
    assert I.normal_form(ctx.parse("y^5 - x^4*z")).is_zero()


def test_buchberger_monomial_ideal(ctx3):
    x, y = ctx3.variable(0), ctx3.variable(1)
    gb = Ideal(ctx3, [x ** 2, x * y, y ** 2]).groebner()
    assert [g.render() for g in gb] == ["y^2", "x*y", "x^2"]


def test_buchberger_twisted_cubic_elimination(ctx3):
    x, y, z = (ctx3.variable(i) for i in range(3))
    lex_zyx = MonomialOrder("lex", perm=(2, 1, 0))
    I = Ideal(ctx3, [y - x ** 2, z - x ** 3])
    gb = I.groebner(lex_zyx)
    rendered = {g.render(lex_zyx) for g in gb}
    assert "y - x^2" in rendered and "z - x^3" in rendered
    # eliminants are reachable by reduction
    assert I.normal_form(y ** 3 - z ** 2, lex_zyx).is_zero()
    assert I.normal_form(x * z - y ** 2, lex_zyx).is_zero()


def test_buchberger_idempotent(ctx2):
    x = ctx2.variable(0)
    assert Ideal(ctx2, [x, x]).groebner() == Ideal(ctx2, [x]).groebner()


def test_buchberger_generator_permutation_invariance(ctx3):
    rng = random.Random(3)
    x, y, z = (ctx3.variable(i) for i in range(3))
    gens = [x ** 2 - y * z, x * y - z ** 2, y ** 3 - x * z, z ** 3 - x]
    reference = Ideal(ctx3, gens).groebner()
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert Ideal(ctx3, shuffled).groebner() == reference


def test_intersect_examples(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert ideal_intersect(Ideal(ctx2, [x]), Ideal(ctx2, [y])).equals(Ideal(ctx2, [x * y]))
    assert ideal_intersect(Ideal(ctx2, [x ** 2]), Ideal(ctx2, [x ** 3])).equals(
        Ideal(ctx2, [x ** 3])
    )


def test_intersect_against_membership_oracle(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    A = Ideal(ctx2, [x ** 2, y])
    B = Ideal(ctx2, [x, y ** 2])
    C = ideal_intersect(A, B)
    assert C.equals(Ideal(ctx2, [x ** 2, x * y, y ** 2]))
    # brute force: check all monomials up to degree 4 both ways
    ga, gb = [(2, 0), (0, 1)], [(1, 0), (0, 2)]
    for e in ctx2.exponents_upto(4):
        both = monomial_in_monomial_ideal(e, ga) and monomial_in_monomial_ideal(e, gb)
        assert C.contains(ctx2.monomial(e)) == both


def test_colon_examples(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert ideal_colon(Ideal(ctx2, [x ** 2]), x).equals(Ideal(ctx2, [x]))
    assert ideal_colon(Ideal(ctx2, [x * y]), Ideal(ctx2, [x])).equals(Ideal(ctx2, [y]))
    with pytest.raises(InvalidDivisorError):
        ideal_colon(Ideal(ctx2, [x]), ctx2.zero())


def test_colon_curve_regular_element(curve):
    ctx, I = curve
    x = ctx.variable(0)
    assert ideal_colon(I, x).equals(I)


def test_normal_form_matches_divisibility_oracle(ctx2):
    # membership in a monomial ideal is exactly generator divisibility
    rng = random.Random(13)
    for _ in range(5):
        gens = {tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(3)}
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        I = Ideal(ctx2, [ctx2.monomial(g) for g in gens])
        for e in ctx2.exponents_upto(4):
            expected = monomial_in_monomial_ideal(e, gens)
            assert I.normal_form(ctx2.monomial(e)).is_zero() == expected


def test_colon_galois_identities(ctx2):
    rng = random.Random(5)
    x, y = ctx2.variable(0), ctx2.variable(1)
    pool = [x, y, x + y, x - y, x * y, x ** 2 + y]
    for _ in range(6):
        I = Ideal(ctx2, [rng.choice(pool) * rng.choice(pool), rng.choice(pool)])
        J = Ideal(ctx2, [rng.choice(pool)])
        f, g = rng.choice(pool), rng.choice(pool)
        inter = ideal_intersect(I, J)
        assert all(I.contains(h) for h in inter.groebner())
        cf = ideal_colon(I, f)
        assert all(I.contains(h * f) for h in cf.groebner())
        assert ideal_colon(cf, g).equals(ideal_colon(I, f * g))


def test_exact_divide(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    p = (x + y) * (x ** 2 - y)
    assert exact_divide(p, x + y) == x ** 2 - y
    with pytest.raises(ValueError):
        exact_divide(x ** 2 + y, x)


def test_hilbert_examples(ctx2, ctx3):
    x3, y3, z3 = (ctx3.variable(i) for i in range(3))
    assert hilbert_data(Ideal(ctx3, [x3, y3, z3])).values == (1,)
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert hilbert_data(Ideal(ctx2, [x, y])).values == (1,)
    hd = hilbert_data(Ideal(ctx2, [x ** 2, x * y, y ** 2]))
    assert hd.values == (1, 2)
    assert hd.length == 3


def test_hilbert_length_counts_agree(ctx2):
    # two independent counts: rank telescoping vs standard monomials
    x, y = ctx2.variable(0), ctx2.variable(1)
    for gens in ([x ** 3, y ** 2], [x ** 2 + y, y ** 3], [x ** 2 - y ** 2, x * y ** 2, y ** 4]):
        I = Ideal(ctx2, gens)
        hd = hilbert_data(I)
        aq = ArtinianQuotient(I)
        assert hd.length == aq.length


def test_hilbert_rejects_positive_dimension(ctx2):
    x = ctx2.variable(0)
    with pytest.raises(UnboundedQuotientError):
        hilbert_data(Ideal(ctx2, [x]))


def test_is_regular(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert is_regular(x, Ideal(ctx2, [y]))
    assert not is_regular(x, Ideal(ctx2, [x * y]))
    with pytest.raises(DegenerateInputError):
        is_regular(x, Ideal(ctx2, [x]))


def test_is_regular_curve(curve):
    ctx, I = curve
    assert is_regular(ctx.variable(0), I)


def _colon_regular(f, I, order):
    """The reference verdict: (I : f) inside I, by the colon's reduced basis in order."""
    if I.contains(f):
        raise DegenerateInputError("regularity test of an element of the ideal")
    C = ideal_colon(I, f)
    return all(I.contains(g) for g in C.groebner(order))


def _verdict(test, f, I, *order):
    try:
        return test(f, Ideal(I.ring, I.gens, trunc=I.trunc), *order)
    except DegenerateInputError:
        return "member"


_COEFFS = st.sampled_from([1, -1, 2, -3, 5])


@st.composite
def _regularity_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    ctx = context_from_names(
        ",".join(f"x{i}" for i in range(n)),
        field=draw(st.sampled_from(["Q", "F32003"])),
        mode=draw(st.sampled_from(["graded", "local"])),
    )
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 0 < sum(e) <= 3)
    poly = st.dictionaries(exps, _COEFFS, min_size=1, max_size=3).map(ctx.from_terms)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    trunc = draw(st.sampled_from([None, None, 2, 3, 4]))
    kind = draw(st.sampled_from(["variable", "scaled", "polynomial", "unit part"]))
    if kind in ("variable", "scaled"):
        f = ctx.variable(draw(st.integers(0, n - 1))) * (draw(_COEFFS) if kind == "scaled" else 1)
    else:
        f = draw(poly) + (1 if kind == "unit part" else 0)
    I = Ideal(ctx, gens) if trunc is None else Ideal(ctx, gens).truncated(trunc)
    return f, I, draw(st.sampled_from([GREVLEX, LEX]))


@settings(max_examples=150, deadline=None)
@given(_regularity_cases())
def test_is_regular_matches_the_colon_reference(case):
    f, I, order = case
    assert _verdict(is_regular, f, I) == _verdict(_colon_regular, f, I, order)


# cases of the strategy above on which Buchberger, pairing by lcm degree
# alone, ran for minutes: a lex elimination for the colon, and
# is_regular's grevlex basis with u - f adjoined
_NON_HOMOGENEOUS_CASES = [
    ("F32003", "graded", LEX, "5*x0*x1^2 + 2*x0",
     ["2*x1^3 + 5*x0^2*x2 + 5*x2^2", "x0*x1^2 + 5*x1^3 + 32000*x0*x2^2"], True),
    ("Q", "local", GREVLEX, "5*x1^3 - x0*x1*x2 + x1^2",
     ["-x0^2*x2 - 3*x1^2*x2 + 5*x0*x2^2", "-x0^2*x1 + x0*x1^2 + 5*x1^2*x2",
      "x0^2*x2 + x2^3 + x1^2"], False),
    ("F32003", "local", LEX, "32000*x1^3 + 32000*x0*x1 + 2*x1 + 1",
     ["2*x0^3 + 32000*x0*x1*x2", "5*x0^2", "x0*x1^2 + 32002*x0 + 32000*x2"], True),
    ("Q", "local", LEX, "2*x0^2 + 1",
     ["5*x0*x1*x2 + 2*x2^3 + 5*x2", "2*x1^3 - x1*x2^2 + 5*x2^3",
      "5*x0^2*x2 + 2*x2^3 - 3*x1"], True),
]


@pytest.mark.parametrize("field, mode, order, f, gens, regular", _NON_HOMOGENEOUS_CASES)
def test_buchberger_by_sugar_keeps_non_homogeneous_bases_small(
    field, mode, order, f, gens, regular, monkeypatch
):
    # the cost is counted in monomial products (every reduction step makes
    # one per term of its reducer's tail), not timed: at most 15k here,
    # and by lcm degree the first case passed 200k within two seconds
    from invsys import groebner

    cap, count = 100_000, [0]
    real = groebner.e_add

    def counted(a, b):
        count[0] += 1
        assert count[0] <= cap, "Buchberger ran past its monomial budget"
        return real(a, b)

    monkeypatch.setattr(groebner, "e_add", counted)
    ctx = context_from_names("x0,x1,x2", field=field, mode=mode)
    I = Ideal(ctx, [ctx.parse(g) for g in gens])
    for test, args in ((is_regular, ()), (_colon_regular, (order,))):
        count[0] = 0
        assert _verdict(test, ctx.parse(f), I, *args) is regular


def test_is_regular_builds_one_homogeneous_basis(ctx2, monkeypatch):
    # no colon or intersection: a variable costs one Buchberger run past
    # the ideal's own basis, any other polynomial one more for u - f
    from invsys import groebner

    calls = []

    def counted(name):
        real = getattr(groebner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("ideal_colon", "ideal_intersect", "buchberger"):
        monkeypatch.setattr(groebner, name, counted(name))
    x, y = ctx2.variable(0), ctx2.variable(1)
    I = Ideal(ctx2, [x * y + y**2])
    I.groebner(GREVLEX)
    for f, runs in ((x, 1), (3 * y, 1), (x + y, 2), (x**2 + 1, 2)):
        del calls[:]
        is_regular(f, I)
        assert calls == ["buchberger"] * runs, f


def test_find_linear_regular_sequence(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    I = Ideal(ctx2, [x * y])
    seq = find_linear_regular_sequence(I, 1, seed=0)
    assert len(seq) == 1
    f = seq[0]
    # colon-test oracle: (I : f) = I certified by mutual membership
    C = ideal_colon(I, f)
    assert C.equals(I)
    # Artinian quotient needs an empty sequence
    assert find_linear_regular_sequence(Ideal(ctx2, [x ** 2, y ** 2]), 0) == []


def test_find_linear_regular_sequence_curve(curve):
    ctx, I = curve
    seq = find_linear_regular_sequence(I, 1, seed=0)
    assert seq[0] == ctx.variable(0)  # x is probed first and accepted


def test_artinian_bound_examples(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert artinian_bound(Ideal(ctx2, [x, y])) == 1
    assert artinian_bound(Ideal(ctx2, [x ** 2, x * y, y ** 2])) == 2
    with pytest.raises(UnboundedQuotientError):
        artinian_bound(Ideal(ctx2, [x]), ceiling=16)


def test_artinian_bound_curve_reduction(curve):
    # the reduction by x has profile (1,2,2,1): the bound is 4, one past the
    # last nonzero degree, matching the independently enumerated quotient
    ctx, I = curve
    I1 = I.plus([ctx.variable(0)])
    assert artinian_bound(I1) == 4


def test_artinian_bound_local_nonartinian(curve):
    ctx, I = curve
    with pytest.raises(UnboundedQuotientError):
        artinian_bound(I, ceiling=12)


def _bound_outcome(ideal, ceiling, **kwargs):
    """artinian_bound and artinian_form's bound, or the failure they raise:
    its type, and the limit a TruncationLimitError names."""
    try:
        return artinian_bound(ideal, ceiling, **kwargs), artinian_form(ideal, ceiling, **kwargs)[1]
    except Exception as exc:
        return type(exc), getattr(exc, "limit", None)


def _bound_cases():
    """(id, fresh copy maker, keyword arguments, bound N) for a graded
    ideal, a local ideal with hints that do and do not certify, and a
    truncated ideal."""
    graded = context_from_names("x,y")
    x, y = graded.variable(0), graded.variable(1)
    local = context_from_names("x,y", mode="local")
    u, v = local.variable(0), local.variable(1)
    yield "graded", lambda: Ideal(graded, [x ** 6, y ** 6]), {}, 11
    for hint in (2, 4, 5, 9):
        yield f"local-hint{hint}", lambda: Ideal(local, [u ** 2 - v ** 3 + u * v ** 3, u * v]), {"hint": hint}, 4
    yield "truncated", lambda: Ideal(graded, [x ** 2, x * y ** 3], trunc=7), {}, 7


@pytest.mark.parametrize("make, kwargs, N", [pytest.param(*case[1:], id=case[0]) for case in _bound_cases()])
def test_a_cached_bound_answers_as_a_fresh_copy(make, kwargs, N):
    # the bound is cached on the ideal once certified; a later call with a
    # ceiling below it, or one that is not a degree, must fail as it does
    # on a fresh copy of the ideal
    cached = make()
    assert artinian_bound(cached, **kwargs) == N
    for ceiling in (1, 3, N - 1, N, N + 1, 64, "lex"):
        got = _bound_outcome(cached, ceiling, **kwargs)
        assert got == _bound_outcome(make(), ceiling, **kwargs), ceiling
        if ceiling == "lex":
            assert got == (TypeError, None)
        else:
            assert got == ((N, N) if ceiling >= N else (TruncationLimitError, f"the degree ceiling {ceiling}"))


def test_local_truncation_consistency(curve):
    # the same reduction computed at two truncation levels agrees
    ctx, I = curve
    I1 = I.plus([ctx.variable(0)])
    assert equal_as_artinian(I1.truncated(4), I1.truncated(7))
