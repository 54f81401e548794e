from fractions import Fraction

from hypothesis import given, settings, strategies as st

from invsys.field import QQ, PrimeField
from invsys.linalg import Echelon, echelon_basis, intersect_spans, nullspace, solve_in_span
from oracles import dense_nullspace, dense_rref

KEY = lambda c: c


def test_echelon_rank_and_contains():
    ech = Echelon(QQ, KEY)
    ech.insert({0: Fraction(1), 1: Fraction(2)})
    ech.insert({0: Fraction(2), 1: Fraction(4)})  # dependent
    ech.insert({1: Fraction(1)})
    assert ech.rank == 2
    assert ech.contains({0: Fraction(3), 1: Fraction(-1)})
    assert not ech.contains({2: Fraction(1)})


def test_echelon_basis_is_canonical():
    rows1 = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    rows2 = [{0: 1, 2: -1}, {1: 1, 2: 1}, {0: 2, 1: 2}]
    b1 = echelon_basis(QQ, KEY, [{k: Fraction(v) for k, v in r.items()} for r in rows1])
    b2 = echelon_basis(QQ, KEY, [{k: Fraction(v) for k, v in r.items()} for r in rows2])
    assert b1 == b2


def test_solve_in_span():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    target = {0: Fraction(2), 1: Fraction(3)}
    assert solve_in_span(QQ, KEY, rows, [target]) == [[Fraction(2), Fraction(1)]]
    assert solve_in_span(QQ, KEY, rows, [{2: Fraction(1)}]) == [None]
    assert solve_in_span(QQ, KEY, rows, []) == []


def test_solve_in_span_several_targets():
    # the rows are dependent (2*r0 + r1 = r2): the canonical solution puts
    # zero on r0, whose combination column is a pivot of the dependency row
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(2), 1: Fraction(3)}]
    targets = [
        {0: Fraction(2), 1: Fraction(3)},
        {2: Fraction(1)},
        {},
        {1: Fraction(-5)},
        {0: Fraction(1), 2: Fraction(1)},
    ]
    sols = solve_in_span(QQ, KEY, rows, targets)
    assert sols == [
        [Fraction(0), Fraction(0), Fraction(1)],
        None,
        [Fraction(0)] * 3,
        [Fraction(0), Fraction(-5), Fraction(0)],
        None,
    ]
    # each answer is the one a single-target call gives
    for t, sol in zip(targets, sols):
        assert solve_in_span(QQ, KEY, rows, [t]) == [sol]
    for t, sol in zip(targets, sols):
        if sol is not None:
            combo = {}
            for c, row in zip(sol, rows):
                for col, v in row.items():
                    combo[col] = combo.get(col, 0) + c * v
            assert {col: v for col, v in combo.items() if v} == t


def test_nullspace():
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
    basis = nullspace(QQ, rows, [0, 1, 2], KEY)
    assert len(basis) == 2
    for v in basis:
        assert sum(v.get(c, Fraction(0)) for c in (0, 1, 2)) == 0


def test_intersect_spans():
    A = [{0: Fraction(1)}, {1: Fraction(1)}]
    B = [{1: Fraction(1)}, {2: Fraction(1)}]
    inter = intersect_spans(QQ, KEY, A, B)
    assert len(inter) == 1 and set(inter[0]) == {1}
    assert intersect_spans(QQ, KEY, A, [{2: Fraction(1)}]) == []


def _column_index(rows):
    index = {}
    for p, row in rows.items():
        for c in row:
            if c != p:
                index.setdefault(c, set()).add(p)
    return index


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_echelon_matches_dense_rref_after_every_insert(data):
    p = data.draw(st.sampled_from([None, 5]), label="p")
    field = QQ if p is None else PrimeField(p)
    ncols = data.draw(st.integers(1, 8), label="ncols")
    # a random column order: dense column j holds the j-th largest key
    dense_cols = data.draw(st.permutations(range(ncols)), label="dense_cols")
    rank_of = {c: j for j, c in enumerate(dense_cols)}
    key = lambda c: -rank_of[c]
    coef = st.integers(-3, 3).filter(bool)
    rows = data.draw(
        st.lists(st.dictionaries(st.sampled_from(range(ncols)), coef, min_size=1, max_size=4), max_size=10),
        label="rows",
    )
    rows = [{c: field.coerce(v) for c, v in row.items()} for row in rows]

    def dense(row):
        return [row.get(c, 0) for c in dense_cols]

    ech = Echelon(field, key)
    for k, row in enumerate(rows):
        rank = ech.rank
        pivot = ech.insert(row)
        assert (pivot is None) == (ech.rank == rank)
        mat, pivots = dense_rref([dense(r) for r in rows[: k + 1]], ncols, p)
        expected = {
            dense_cols[j]: {dense_cols[i]: v for i, v in enumerate(mat[at]) if v != 0}
            for j, at in pivots.items()
        }
        assert ech.rows == expected
        assert ech.index == _column_index(ech.rows)
    rebuilt = Echelon(field, key, ech.basis())
    assert rebuilt.rows == ech.rows and rebuilt.index == ech.index
    kernel = nullspace(field, rows, list(range(ncols)), key)
    oracle = dense_nullspace([dense(r) for r in rows], ncols, p)
    assert kernel == [{dense_cols[i]: v for i, v in enumerate(vec) if v != 0} for vec in oracle]
