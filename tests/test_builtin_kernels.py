"""The exponent, order-key, contraction and key-memo kernels against references.

Each reference below is the plain generator-expression form of a hot-path
helper: componentwise exponent arithmetic over zip, the grevlex key built
from a negating generator, a one-variable contraction through a unit
exponent, the pivot-cover test of the minimal leads through e_sub, and the
monomial enumeration by combinations_with_replacement.  The library versions must agree with
them exactly, dict insertion order included where the result is a dict.
"""

import itertools
from collections import Counter

from hypothesis import given, settings, strategies as st

from invsys import GREVLEX, context_from_names, elimination_order
from invsys.duality import _contract_var, contract_exp
from invsys.field import QQ
from invsys.groebner import ArtinianQuotient
from invsys.linalg import Echelon
from invsys.ring import Polynomial, e_add, e_divides, e_lcm, e_sub, e_unit
from oracles import dense_rref


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def ref_grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def ref_contract_var(n, i, terms):
    unit = tuple(1 if j == i else 0 for j in range(n))
    return {ref_sub(m, unit): b for m, b in terms.items() if ref_divides(unit, m)}


def ref_covered(rows, e):
    n = len(e)
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return any(e[i] and ref_sub(e, units[i]) in rows for i in range(n))


def ref_exponents_of_degree(n, d, indices=None):
    idx = tuple(range(n)) if indices is None else tuple(indices)
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


# ragged pairs: each side has its own length, zero-length and all-zero included
_RAGGED = st.lists(st.integers(0, 6), max_size=5).map(tuple)


def _exponent(n):
    return st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple)


def _terms(n):
    return st.dictionaries(_exponent(n), st.integers(-3, 3).filter(bool), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_RAGGED, _RAGGED)
def test_exponent_arithmetic_matches_generator_reference(a, b):
    assert e_add(a, b) == ref_add(a, b)
    assert e_sub(a, b) == ref_sub(a, b)
    assert e_lcm(a, b) == ref_lcm(a, b)
    assert e_divides(a, b) is ref_divides(a, b)
    assert GREVLEX._grevlex_key(a) == ref_grevlex_key(a)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_exponent(n), st.integers(0, n))))
def test_order_keys_match_generator_reference(case):
    e, block = case
    assert GREVLEX.key(e) == ref_grevlex_key(e)
    head, tail = e[:block], e[block:]
    assert elimination_order(block).key(e) == (ref_grevlex_key(head), ref_grevlex_key(tail))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _terms(n))))
def test_one_variable_contraction_matches_unit_contraction(case):
    n, terms = case
    names = ",".join(f"x{i}" for i in range(n))
    dual = context_from_names(names).dual
    F = Polynomial(dual, terms)
    for i in range(n):
        got = _contract_var(i, F.terms)
        assert list(got.items()) == list(ref_contract_var(n, i, F.terms).items())
        assert list(got.items()) == list(contract_exp(e_unit(n, i), F).terms.items())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.sets(_exponent(n), max_size=12))))
def test_pivot_cover_matches_generator_reference(case):
    n, pivots = case
    ring = context_from_names(",".join(f"x{i}" for i in range(n)))
    rows = {p: {p: QQ.one} for p in pivots}
    aq = ArtinianQuotient.from_rows(ring, GREVLEX, 3, rows)
    # the minimal leads: the candidates 0 and v + e_i (v standard) that
    # are a pivot or of degree N, with no pivot at any u - e_i
    near = {(0,) * n} | {ref_add(v, e_unit(n, i)) for v in aq.std for i in range(n)}
    kept = [u for u in near if (sum(u) == 3 or u in rows) and not ref_covered(rows, u)]
    assert aq.minimal_leads() == sorted(kept, key=ring.order_key(GREVLEX))


def test_exponents_of_degree_matches_combinations():
    for n in range(1, 6):
        ring = context_from_names(",".join(f"x{i}" for i in range(n)))
        for d in range(8):
            first = ring.exponents_of_degree(d)
            assert isinstance(first, tuple)
            assert list(first) == list(ref_exponents_of_degree(n, d))
            assert ring.exponents_of_degree(d) == first
            assert list(ring.exponents_upto(d)) == [
                e for k in range(d + 1) for e in ref_exponents_of_degree(n, k)
            ]
            for k in range(n + 1):
                for idx in itertools.combinations(range(n), k):
                    assert list(ring.exponents_of_degree(d, indices=idx)) == list(
                        ref_exponents_of_degree(n, d, idx)
                    )


def test_echelon_evaluates_each_column_key_once():
    calls = Counter()

    def key(c):
        calls[c] += 1
        return -c

    ncols = 7
    rows = [
        {0: 1, 2: 3, 5: -1},
        {0: 2, 1: 1, 5: 4},
        {1: 1, 2: 1, 6: 2},
        {0: 1, 1: -1, 2: 2, 6: 1},
        {3: 1, 4: 1, 5: 1},
        {2: 5, 4: -2},
        {0: 1, 3: 2, 6: -3},
    ]
    rows = [{c: QQ.coerce(v) for c, v in row.items()} for row in rows]
    ech = Echelon(QQ, key)
    for row in rows:
        ech.insert(row)
    basis = ech.basis()
    assert max(calls.values()) == 1
    assert set(calls) <= set(range(ncols))
    mat, _ = dense_rref([[row.get(c, 0) for c in range(ncols)] for row in rows], ncols)
    assert basis == [{c: v for c, v in enumerate(r) if v != 0} for r in mat]
