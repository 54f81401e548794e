import gc
import itertools
import operator
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invsys import (
    GREVLEX,
    LEX,
    ContextMismatchError,
    Ideal,
    MonomialOrder,
    PrimeField,
    context_from_names,
    elimination_order,
)
from invsys.duality import perp_ideal
from invsys.linalg import KeyTable
from invsys.ring import Packing


@pytest.fixture
def ctx2():
    return context_from_names("x,y")


@pytest.fixture
def ctx4():
    return context_from_names("x,y,z,w", mode="local", zvars="x")


def test_addition_cancels(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert x + y - x == y


def test_difference_of_squares(ctx2):
    x = ctx2.variable(0)
    assert (x + 1) * (x - 1) == x * x - 1


def test_generator_times_variable(ctx4):
    # hand expansion: (w - x*y) * y = w*y - x*y^2
    x, y, w = ctx4.variable(0), ctx4.variable(1), ctx4.variable(3)
    assert (w - x * y) * y == w * y - x * y ** 2


def test_truncate_examples(ctx2):
    x = ctx2.variable(0)
    p = 1 + x + x ** 3
    assert p.truncate(2) == 1 + x
    assert p.truncate(0).is_zero()


def test_truncate_mixed_degrees(ctx4):
    x, y, w = ctx4.variable(0), ctx4.variable(1), ctx4.variable(3)
    p = w * y - x * y ** 2  # term degrees 2 and 3
    assert p.truncate(3) == w * y


def test_compare_examples():
    assert GREVLEX.compare((2, 0), (1, 1)) == 1
    assert GREVLEX.compare((1, 1), (1, 1)) == 0
    assert LEX.compare((1, 5), (2, 0)) == -1


def test_compare_length_mismatch():
    with pytest.raises(ValueError):
        GREVLEX.compare((1, 0), (1, 0, 0))


ORDERS = [GREVLEX, LEX, elimination_order(1), elimination_order(2, base="lex")]


@pytest.mark.parametrize("order", ORDERS, ids=["grevlex", "lex", "block1", "block2lex"])
def test_order_axioms_exhaustive(order):
    # all exponents of total degree <= 4 in 3 variables
    exps = [e for e in context_from_names("a,b,c").exponents_upto(4)]
    for a, b in itertools.product(exps, exps):
        ca, cb = order.compare(a, b), order.compare(b, a)
        assert ca == -cb  # antisymmetry
        if a == b:
            assert ca == 0
        else:
            assert ca != 0  # totality
    # multiplicativity: a < b implies a + c < b + c
    smalls = [e for e in exps if sum(e) <= 2]
    for a, b in itertools.combinations(exps, 2):
        c = order.compare(a, b)
        for t in smalls:
            at = tuple(u + v for u, v in zip(a, t))
            bt = tuple(u + v for u, v in zip(b, t))
            assert order.compare(at, bt) == c
    # transitivity via sort consistency
    key_sorted = sorted(exps, key=order.key)
    for i in range(len(key_sorted) - 1):
        assert order.compare(key_sorted[i], key_sorted[i + 1]) == -1


def _polys(ctx, coeffs=st.integers(-4, 4)):
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    term = st.tuples(exps, coeffs)
    return st.lists(term, max_size=5).map(
        lambda ts: sum((ctx.monomial(e, c) for e, c in ts), ctx.zero())
    )


CTX_Q = context_from_names("x,y")
CTX_F7 = context_from_names("x,y", field=PrimeField(7))


@settings(max_examples=60, deadline=None)
@given(_polys(CTX_Q), _polys(CTX_Q), _polys(CTX_Q))
def test_ring_axioms_rationals(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(_polys(CTX_F7), _polys(CTX_F7))
def test_ring_axioms_prime_field(p, q):
    assert p * q == q * p
    assert (p + q) * (p - q) == p * p - q * q


@settings(max_examples=60, deadline=None)
@given(_polys(CTX_Q), _polys(CTX_Q), st.integers(0, 5))
def test_truncation_is_a_ring_map(p, q, N):
    lhs = (p * q).truncate(N)
    rhs = (p.truncate(N) * q.truncate(N)).truncate(N)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(_polys(CTX_Q), st.integers(0, 6))
def test_power_is_repeated_product(p, n):
    expected = CTX_Q.one()
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


def test_parse_huge_exponent_is_fast(ctx2):
    start = time.perf_counter()
    p = ctx2.parse("x^100000000")
    assert time.perf_counter() - start < 1.0
    assert p.terms == {(100000000, 0): 1}


@settings(max_examples=60, deadline=None)
@given(_polys(CTX_Q))
def test_render_parse_roundtrip(p):
    assert CTX_Q.parse(p.render()) == p


def test_render_canonical_examples(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    from fractions import Fraction

    p = ctx2.monomial((2, 1), Fraction(-3, 2))
    assert p.render() == "-3/2*x^2*y"
    assert (x - y).render() == "x - y"
    assert ctx2.zero().render() == "0"
    assert ctx2.one().render() == "1"


def test_parse_errors(ctx2):
    from invsys import InputSyntaxError

    with pytest.raises(InputSyntaxError):
        ctx2.parse("x + q")
    with pytest.raises(InputSyntaxError):
        ctx2.parse("x +")
    with pytest.raises(InputSyntaxError):
        ctx2.parse("x^y")


def test_parse_nesting_limit(ctx2):
    from invsys import InputSyntaxError
    from invsys.ring import MAX_NESTING

    x = ctx2.variable(0)
    assert ctx2.parse("(" * 50 + "x" + ")" * 50) == x
    assert ctx2.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == x
    assert ctx2.parse("-" * MAX_NESTING + "x") == x
    for text in ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), "-" * (2 * MAX_NESTING) + "x"):
        with pytest.raises(InputSyntaxError):
            ctx2.parse(text)


def test_parse_caps_the_expansion_of_sums():
    # a short line must not stall the parser: expanding (x+y+z)^120 or a
    # product of two big powers is refused at once, at the exponent or the
    # factor, while (x+y+z)^80 still expands in full
    from invsys import InputSyntaxError
    from invsys.ring import MAX_TERM_PRODUCTS

    ctx = context_from_names("x,y,z")
    assert len(ctx.parse("(x+y+z)^80").terms) == 3321
    for text, col, what in [
        ("1 + (x+y+z)^120", 13, "the power 120 of a 3-term sum"),
        ("-(x + y)^2000", 10, "the power 2000 of a 2-term sum"),
        ("(x+y)^100000000", 7, "the power 100000000 of a 2-term sum"),
        ("(x+y+z)^50*x*(x+y+z)^50", 14, "a product of 1326- and 1326-term factors"),
        ("(x+y+z)^50*(x+y+z)^40", 12, "a product of 1326- and 861-term factors"),
    ]:
        start = time.perf_counter()
        with pytest.raises(InputSyntaxError) as exc:
            ctx.parse(text)
        # a refused power or product is never expanded
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"{what} needs more than {MAX_TERM_PRODUCTS} term products to expand"
        assert exc.value.col == col, text


def test_cli_refuses_an_oversized_power(tmp_path, capsys):
    from invsys.cli import main

    path = tmp_path / "big.ideal"
    path.write_text("field Q\nring graded vars x,y,z\nideal:\nx^2\n(x+y+z)^120\n")
    assert main(["hilbert", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad polynomial: the power 120") and err.endswith(" (line 5, col 9)\n")
    # the column counts from the start of the line, indentation included,
    # in an ideal file and in a limit file alike
    path.write_text("field Q\nring graded vars x,y,z\nideal:\nx^2\n   (x+y+z)^120  # big\n")
    assert main(["hilbert", "-i", str(path)]) == 2
    assert capsys.readouterr().err.endswith(" (line 5, col 12)\n")
    lis = tmp_path / "big.lis"
    lis.write_text("limit-system\nfield Q\nring graded vars x,y\nd 0\nr 1\ns 1\nbound 1\nm:\n  (X+Y)^2000\n")
    assert main(["verify", "-i", str(lis)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad dual polynomial: the power 2000") and err.endswith(" (line 9, col 9)\n")


def test_parser_refuses_a_power_of_too_many_bits():
    from invsys import InputSyntaxError
    from invsys.ring import MAX_POWER_BITS

    ctx = context_from_names("x,y")
    # the largest powers of a number that stay in, at their exact values
    assert ctx.parse("2^5000*x").terms == {(1, 0): 2**5000}
    assert ctx.parse("(2/3*y)^2500").terms == {(0, 2500): Fraction(2, 3) ** 2500}
    # powers of 0 and +-1 never grow, whatever the exponent
    assert ctx.parse("1^1000000000*x - (-1)^1000000001*y + 0^1000000000").terms == {(1, 0): 1, (0, 1): 1}
    for text, col, k in [
        ("2^1000000000*x", 3, 1000000000),
        ("x + 2^5001", 7, 5001),
        ("(2)^1000000000", 5, 1000000000),
        ("y*(-3*x)^9000", 10, 9000),
        ("(2^100*x + y)^200", 15, 200),
    ]:
        start = time.perf_counter()
        with pytest.raises(InputSyntaxError) as exc:
            ctx.parse(text)
        # a refused power is never computed
        assert time.perf_counter() - start < 0.1
        assert f"the power {k} may need " in str(exc.value)
        assert str(exc.value).endswith(f" bits per coefficient, more than {MAX_POWER_BITS}")
        assert exc.value.col == col, text
    # over F_p a power costs O(log k) products and is not bounded
    fp = context_from_names("x,y", field="fp:32003")
    assert fp.parse("2^1000000000*x").terms == {(1, 0): pow(2, 10**9, 32003)}


def test_cli_refuses_a_power_of_too_many_bits(tmp_path, capsys):
    from invsys.cli import main

    path = tmp_path / "big.ideal"
    path.write_text("field Q\nring graded vars x,y\nideal:\n2^1000000000*x\ny^2\n")
    assert main(["hilbert", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad polynomial: the power 1000000000") and err.endswith(" (line 4, col 3)\n")
    assert main(["hilbert", "-i", str(path), "--field", "fp:32003"]) == 0


def test_parser_refuses_a_coefficient_of_too_many_bits(tmp_path, capsys):
    from invsys import InputSyntaxError
    from invsys.cli import main
    from invsys.ring import MAX_POWER_BITS

    ctx = context_from_names("x,y")
    assert ctx.parse("2^5000*x + 3^5000*y").terms == {(1, 0): 2**5000, (0, 1): 3**5000}
    # each power stays in; the folded product of a term, or a sum over a
    # common denominator, passes the cap, and the term that takes it there
    # is named
    for text, col in [
        ("2^5000*2^5000*2^5000*x*y + y^2", 1),
        ("x + 2^5000*3^5000", 5),
        ("1/3^5000*x + 1/2^5000*x", 14),
        ("(y + 2^5000*(2^5000*x + 1))*y", 6),
    ]:
        with pytest.raises(InputSyntaxError) as exc:
            ctx.parse(text)
        assert str(exc.value) == f"a coefficient has more than {MAX_POWER_BITS} bits"
        assert exc.value.col == col, text
    path = tmp_path / "big.ideal"
    path.write_text("field Q\nring graded vars x,y\nideal:\nx^2\n  2^5000*2^5000*2^5000*x*y + y^2\n")
    assert main(["hilbert", "-i", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad polynomial: a coefficient has more than {MAX_POWER_BITS} bits (line 5, col 3)\n"
    # over F_p a coefficient is a residue and is never refused
    assert main(["hilbert", "-i", str(path), "--field", "fp:32003"]) == 0


def _square_and_multiply(p, n):
    """p^n by squaring over p's own coefficients."""
    result, base = p.ring.one(), p
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
        max_size=4,
    ),
    st.integers(0, 9),
)
def test_power_over_integer_numerators_keeps_terms_and_order(terms, n):
    # (D p)^n over integers, divided by D^n, must be p^n term for term, in
    # the same order: the parser's output order rests on it
    p = context_from_names("x,y").from_terms(terms)
    assert list((p**n).terms.items()) == list(_square_and_multiply(p, n).terms.items())


def test_context_mismatch(ctx2, ctx4):
    with pytest.raises(ContextMismatchError):
        ctx2.variable(0) + ctx4.variable(0)


def test_dual_context(ctx4):
    dual = ctx4.dual
    assert dual.names == ("X", "Y", "Z", "W")
    assert dual.zvars == ("X",)
    assert dual.dual is ctx4


def test_degree_conventions(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    assert (x ** 2 * y).degree == 3
    assert ctx2.zero().degree == float("-inf")
    assert (x ** 2 + y).degree_on([0]) == 2
    assert (x ** 2 + y).order_of_vanishing() == 1


def test_monomial_order_permutation():
    lex_zyx = MonomialOrder("lex", perm=(2, 1, 0))
    assert lex_zyx.compare((0, 0, 1), (5, 5, 0)) == 1


def test_key_tables_are_shared_by_every_context():
    # the order itself keeps nothing per monomial
    assert MonomialOrder.__slots__ == ("kind", "block", "base", "perm")
    assert not hasattr(GREVLEX, "__dict__")

    ctx = context_from_names("x,y,z")
    table = ctx.order_key(GREVLEX).__self__
    lex = ctx.order_key(LEX).__self__
    assert type(table) is KeyTable and type(lex) is KeyTable and lex is not table
    # one table per order signature: equal contexts, other variables, other
    # fields, local mode and the dual all read it
    others = (
        context_from_names("x,y,z"),
        context_from_names("a,b", mode="local", zvars="b"),
        context_from_names("x,y,z,w", field=PrimeField(7)),
        ctx.dual,
    )
    for other in others:
        assert other.order_key(GREVLEX).__self__ is table
        assert other.order_key(MonomialOrder("grevlex")).__self__ is table
        assert other.order_key(LEX).__self__ is lex
    block = ctx.order_key(elimination_order(1)).__self__
    assert block is not table and block is not lex
    x, y, z = (ctx.variable(i) for i in range(3))
    W = perp_ideal(Ideal(ctx, [x**2 - y * z, y**3, z**3, x * y]))
    assert W.dim > 0 and len(table) > 20
    exps = list(ctx.exponents_upto(3))
    for e in exps:
        assert ctx.order_key(LEX)(e) == LEX.key(e)
    assert all(k == GREVLEX.key(e) for e, k in table.items())
    assert all(k == LEX.key(e) for e, k in lex.items())
    # a table is not freed with the contexts that filled it
    del ctx, others, x, y, z, W
    gc.collect()
    assert context_from_names("u,v,w").order_key(LEX).__self__ is lex
    assert all(e in lex for e in exps)


def test_exponent_tables_are_shared_by_contexts_with_as_many_variables():
    a = context_from_names("x,y,z")
    b = context_from_names("p,q,r", field=PrimeField(7), mode="local", zvars="r")
    for d in range(5):
        assert a.exponents_of_degree(d) is b.exponents_of_degree(d)
        assert a.dual.exponents_of_degree(d) is a.exponents_of_degree(d)
    assert context_from_names("x,y").exponents_of_degree(2) == ((2, 0), (1, 1), (0, 2))


def test_threads_sharing_a_key_table_see_one_key_per_exponent():
    # an order no other test keys, so the threads race to fill its table
    # and its packing, each through a context of its own or that context's dual
    order = MonomialOrder("grevlex", perm=(3, 1, 0, 2))
    exps = list(context_from_names("x,y,z,w").exponents_upto(6))
    seen = []
    tuples = []
    packs = []

    def work(shift):
        own = context_from_names("x,y,z,w")
        ring = own if shift % 2 else own.dual
        key = ring.order_key(order)
        seen.append(all(key(e) == order.key(e) for e in exps[shift:] + exps[:shift]))
        tuples.append((shift % 5, ring.exponents_of_degree(shift % 5)))
        pk = ring.packing(7, order)
        packs.extend((pk, d, pk.of_degree(d)) for d in (shift % 7, 6 - shift % 7))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 37,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [True] * 8
    ctx = context_from_names("x,y,z,w")
    assert all(t is ctx.exponents_of_degree(d) for d, t in tuples)
    table = ctx.order_key(order).__self__
    assert len(table) == len(exps)
    assert all(k == order.key(e) for e, k in table.items())
    # one packing, each degree packed once, and every packed exponent unpacks
    pk = ctx.packing(7, order)
    assert all(p is pk and t is pk.of_degree(d) for p, d, t in packs)
    assert pk.unpack == {k: e for d in range(7) for e, k in zip(ctx.exponents_of_degree(d), pk.of_degree(d))}


def _every_order(n):
    """Each kind on n variables under every permutation: grevlex, lex and
    the block orders of every block size over both bases."""
    for perm in itertools.permutations(range(n)):
        yield MonomialOrder("grevlex", perm=perm)
        yield MonomialOrder("lex", perm=perm)
        for block in range(n + 1):
            for base in ("grevlex", "lex"):
                yield MonomialOrder("block", block=block, base=base, perm=perm)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_exponents_sort_as_the_order_does(n):
    # the kernel packs P_{<N} with the radix ctx.packing picks for N; a
    # packing is checked once per radix, on P_{<radix}, which holds P_{<N}
    ctx = context_from_names(",".join(f"x{i}" for i in range(n)))
    radices = set()
    for N in range(9):
        radix = ctx.packing(N, GREVLEX).radix
        assert radix >= N and radix & (radix - 1) == 0, N
        radices.add(radix)
    assert sorted(radices) == [1, 2, 4, 8]
    for radix in radices:
        box = [e for d in range(radix) for e in ctx.exponents_of_degree(d)]
        units = [box.index(tuple(int(j == i) for j in range(n))) for i in range(n)] if radix > 1 else []
        for order in _every_order(n):
            pk = Packing(n, radix, order)
            packed = [k for d in range(radix) for k in pk.of_degree(d)]
            assert len(set(packed)) == len(box) and pk.unpack == dict(zip(packed, box)), order
            # increasing packed keys are increasing order keys
            keys = [order.key(box[i]) for i in sorted(range(len(box)), key=packed.__getitem__)]
            assert all(map(operator.lt, keys, keys[1:])), order
            # additive: k(e) = sum of e_i k(x_i), so k(a + e) = k(a) + k(e)
            kx = [packed[i] for i in units]
            assert all(k == sum(map(operator.mul, kx, e)) for e, k in zip(box, packed)), order
