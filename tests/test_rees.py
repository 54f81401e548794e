import itertools
import random

import pytest

from invsys import Ideal, context_from_names
from invsys.rees import (
    FiltrationContext,
    MonoidIdeal,
    diagonal_monoid_ideal,
    filtration_order,
    rees_dimension_check,
    socle_product_check,
)

from oracles import monoid_socle_oracle


@pytest.fixture
def ctx2():
    return context_from_names("x,y")


def test_ord_examples(ctx2):
    ctx1 = context_from_names("x")
    x1 = ctx1.variable(0)
    o = filtration_order(Ideal(ctx1, [x1]), x1 ** 3)
    assert (o.value, o.exact) == (3, True)

    x, y = ctx2.variable(0), ctx2.variable(1)
    o = filtration_order(Ideal(ctx2, [x, y]), x ** 2 + y ** 5)
    assert (o.value, o.exact) == (2, True)

    f = x ** 2 - y
    o = filtration_order(Ideal(ctx2, [f]), f * f * x)
    assert (o.value, o.exact) == (2, True)


def test_ord_flags(ctx2):
    x = ctx2.variable(0)
    o = filtration_order(Ideal(ctx2, [x]), ctx2.zero())
    assert o.value is None
    o = filtration_order(Ideal(ctx2, [x]), x ** 9, cap=4)
    assert (o.value, o.exact) == (4, False)


def test_ord_refuses_a_negative_cap(ctx2):
    # a negative cap would flag >=cap, a bound that says nothing
    x = ctx2.variable(0)
    for p in (x ** 2, ctx2.zero()):
        with pytest.raises(ValueError, match=r"^cap -1 must be at least 0$"):
            filtration_order(Ideal(ctx2, [x]), p, cap=-1)
    o = filtration_order(Ideal(ctx2, [x]), x ** 2, cap=0)
    assert (o.value, o.exact) == (0, False)


def test_ord_superadditive(ctx2):
    rng = random.Random(12)
    x, y = ctx2.variable(0), ctx2.variable(1)
    J = FiltrationContext(Ideal(ctx2, [x ** 2, y]))
    pool = [x, y, x ** 2, x * y + 1, y ** 2 - x, x ** 3 + y]
    for _ in range(12):
        p, q = rng.choice(pool), rng.choice(pool)
        op, oq, opq = J.ord(p, 8), J.ord(q, 8), J.ord(p * q, 8)
        if op.exact and oq.exact:
            assert (opq.value if opq.value is not None else 99) >= op.value + oq.value


def test_monoid_socle_examples():
    assert MonoidIdeal(2, ((2, 0), (0, 2))).socle() == [(1, 1)]
    assert MonoidIdeal(1, ((1,),)).socle() == [(0,)]
    assert diagonal_monoid_ideal((3, 4)).socle() == [(2, 3)]


def test_monoid_socle_diagonal_closed_form():
    for t in (1, 2, 3):
        for m in itertools.product(range(1, 6), repeat=t):
            assert diagonal_monoid_ideal(m).socle() == [tuple(k - 1 for k in m)]


def test_monoid_socle_against_flood_oracle():
    rng = random.Random(17)
    for _ in range(50):
        t = rng.choice([1, 2, 3])
        gens = set()
        while len(gens) < rng.randint(1, 4):
            g = tuple(rng.randint(0, 4) for _ in range(t))
            if any(g):
                gens.add(g)
        M = MonoidIdeal(t, tuple(sorted(gens)))
        assert M.socle() == monoid_socle_oracle(M.generators, t)


def test_monoid_socle_matches_the_box_scan():
    # the candidates g_i - 1 give what the scan of the whole box gives,
    # also where some coordinate has no positive generator entry
    rng = random.Random(18)
    sizes = set()
    for _ in range(400):
        t = rng.choice([1, 2, 3])
        gens = set()
        while len(gens) < rng.randint(1, 5):
            g = tuple(rng.choice([0, 0, 1, 2, 3, 5, 6]) for _ in range(t))
            if any(g):
                gens.add(g)
        M = MonoidIdeal(t, tuple(sorted(gens)))
        socle = M.socle()
        assert socle == monoid_socle_oracle(M.generators, t), M
        sizes.add(len(socle))
    assert {0, 1, 2, 3} <= sizes


def test_monoid_socle_scans_only_the_candidates(monkeypatch):
    # the box of <x^3000, y^3000> has 9 million points; one is a candidate
    calls = []
    contains = MonoidIdeal.contains
    monkeypatch.setattr(MonoidIdeal, "contains", lambda self, n: calls.append(n) or contains(self, n))
    assert MonoidIdeal(2, ((3000, 0), (0, 3000))).socle() == [(2999, 2999)]
    assert len(calls) == 3


def test_monoid_socle_disjoint_and_bordering():
    rng = random.Random(23)
    for _ in range(20):
        t = rng.choice([2, 3])
        gens = {tuple(rng.randint(0, 5) for _ in range(t)) for _ in range(3)}
        gens = tuple(g for g in gens if any(g)) or ((1,) * t,)
        M = MonoidIdeal(t, gens)
        units = [tuple(1 if j == i else 0 for j in range(t)) for i in range(t)]
        for n in M.socle():
            assert not M.contains(n)
            for e in units:
                assert M.contains(tuple(a + b for a, b in zip(n, e)))


def test_rees_check_univariate():
    ctx = context_from_names("x")
    x = ctx.variable(0)
    rep = rees_dimension_check([x], Ideal(ctx, []), 4, degcap=3)
    assert rep.passed
    assert all(row.graded_dim == 1 for row in rep.rows)


def test_rees_check_two_variables(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    rep = rees_dimension_check([x, y], Ideal(ctx2, []), 2, degcap=2)
    assert rep.passed
    assert rep.rows[2].graded_dim == 3  # matches the rank of the degree-2 model


def test_rees_check_rejects_nonregular(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    rep = rees_dimension_check([x, x * y], Ideal(ctx2, []), 2)
    assert not rep.regular and not rep.passed
    rep = rees_dimension_check([x * y], Ideal(ctx2, [x ** 2]), 2)
    assert not rep.regular


def test_rees_check_rejects_negative_level():
    ctx = context_from_names("x")
    with pytest.raises(ValueError, match="level -1"):
        rees_dimension_check([ctx.variable(0)], Ideal(ctx, []), -1)


def test_socle_product_examples():
    ctxz = context_from_names("z")
    z = ctxz.variable(0)
    rep = socle_product_check(Ideal(ctxz, []), [z], MonoidIdeal(1, ((3,),)))
    assert rep.passed and rep.socle_dim == 1

    ctxz2 = context_from_names("z1,z2")
    rep = socle_product_check(
        Ideal(ctxz2, []),
        [ctxz2.variable(0), ctxz2.variable(1)],
        diagonal_monoid_ideal((2, 2)),
    )
    assert rep.passed and rep.socle_dim == 1 and rep.monoid_socle_size == 1

    ctxyz = context_from_names("y,z")
    yv, zv = ctxyz.variable(0), ctxyz.variable(1)
    for m in range(1, 6):
        rep = socle_product_check(Ideal(ctxyz, [yv ** 2]), [zv], MonoidIdeal(1, ((m,),)))
        assert rep.passed and rep.socle_dim == 1


def test_socle_product_runs_no_colon(monkeypatch):
    # both socles are kernels of the one quotient matrix: no colon ideal
    import sys

    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("invsys") and hasattr(module, "ideal_colon"):
            monkeypatch.setattr(module, "ideal_colon", lambda *args: calls.append(args))
    ctx = context_from_names("y,z0,z1", field="fp:32003")
    y = ctx.variable(0)
    seq = [ctx.variable(1), ctx.variable(2)]
    for M in (diagonal_monoid_ideal((2, 3)), MonoidIdeal(2, ((2, 0), (1, 1), (0, 3)))):
        rep = socle_product_check(Ideal(ctx, [y**3 - y * seq[0] ** 2]), seq, M)
        assert rep.passed and rep.socle_dim == rep.monoid_socle_size > 0
    assert calls == []


def test_socle_product_rejects_nonregular(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    rep = socle_product_check(Ideal(ctx2, [x * y]), [x], MonoidIdeal(1, ((2,),)))
    assert not rep.regular and not rep.passed


def test_socle_product_nondiagonal():
    # a non-diagonal monoid ideal with a two-element socle
    ctxz2 = context_from_names("z1,z2")
    M = MonoidIdeal(2, ((2, 0), (1, 1), (0, 3)))
    assert len(M.socle()) == 2
    rep = socle_product_check(
        Ideal(ctxz2, []), [ctxz2.variable(0), ctxz2.variable(1)], M
    )
    assert rep.passed and rep.socle_dim == 2
