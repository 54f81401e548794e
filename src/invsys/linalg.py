"""Exact row echelon machinery over a field, with arbitrary hashable columns.

Rows are dicts column -> nonzero coefficient.  A sort key on columns fixes
the pivot preference (the largest key in a row is its pivot), which makes
every reduced echelon basis unique and hence directly comparable.
"""

from __future__ import annotations

import functools
import itertools


class Echelon:
    """Mutable reduced row echelon form keyed by pivot column.

    Next to the rows it keeps a column index: for each free column, the set
    of pivots whose rows contain it.  An insert then clears its new pivot
    from exactly the rows that hold it, and nullspace reads each free
    column's entries without scanning the rows.  The column key is
    evaluated once per distinct column and remembered for the life of the
    echelon.
    """

    def __init__(self, field, sortkey, reduced=()):
        """An echelon holding the given rows, which must already be reduced.

        Each row's pivot is its largest column under sortkey, with
        coefficient 1, and no row may contain another row's pivot.
        """
        self.field = field
        self.sortkey = sortkey = functools.cache(sortkey)
        self.rows = {}  # pivot column -> row dict, pivot coefficient 1
        self.index = {}  # free column -> pivots of the rows that contain it
        for row in reduced:
            self._add_row(max(row, key=sortkey), dict(row))

    def _add_row(self, pivot, row):
        self.rows[pivot] = row
        index = self.index
        for c in row:
            if c != pivot:
                index.setdefault(c, set()).add(pivot)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Fully reduce a row against the basis; returns a new dict.

        In reduced form no basis row contains another's pivot, so every
        elimination only touches free columns and one pass suffices.
        """
        fld = self.field
        zero = fld.zero
        out = dict(vec)
        for hit in list(out.keys() & self.rows.keys()):
            coef = out[hit]
            for c, v in self.rows[hit].items():
                s = fld.sub(out.get(c, zero), fld.mul(coef, v))
                if s == zero:
                    out.pop(c, None)
                else:
                    out[c] = s
        return out

    def insert(self, vec):
        """Reduce and insert; returns the new pivot column or None."""
        red = self.reduce(vec)
        if not red:
            return None
        fld = self.field
        zero = fld.zero
        pivot = max(red, key=self.sortkey)
        inv = fld.inv(red[pivot])
        row = {c: fld.mul(v, inv) for c, v in red.items()}
        index = self.index
        # keep reduced form: clear the new pivot from the rows that hold it
        for p in index.pop(pivot, ()):
            other = self.rows[p]
            coef = other.pop(pivot)
            for c, v in row.items():
                if c == pivot:
                    continue
                old = other.get(c)
                if old is None:
                    other[c] = fld.neg(fld.mul(coef, v))
                    index.setdefault(c, set()).add(p)
                    continue
                s = fld.sub(old, fld.mul(coef, v))
                if s == zero:
                    # index[c] is not left empty: the new row holds c
                    del other[c]
                    index[c].discard(p)
                else:
                    other[c] = s
        self._add_row(pivot, row)
        return pivot

    def extend(self, vecs):
        for v in vecs:
            self.insert(v)
        return self

    def contains(self, vec):
        return not self.reduce(vec)

    def basis(self):
        """Rows in decreasing pivot order; canonical for a fixed column key."""
        return [self.rows[p] for p in sorted(self.rows, key=self.sortkey, reverse=True)]


def echelon_basis(field, sortkey, vecs):
    ech = Echelon(field, sortkey).extend(vecs)
    return ech.basis()


def coordinate_meet(field, sortkey, vecs, inside):
    """Canonical echelon basis, under sortkey, of span(vecs) & span{c : inside(c)}.

    The second space is spanned by columns, so echelonizing the vectors with
    every column outside it keyed above every column inside it leaves the
    rows whose pivot lies inside as a basis of the intersection.  Those rows
    hold inside columns only and none holds another's pivot, so they are
    already the reduced echelon form under sortkey.
    """
    ech = Echelon(field, lambda c: (not inside(c), sortkey(c))).extend(vecs)
    pivots = sorted((p for p in ech.rows if inside(p)), key=sortkey, reverse=True)
    return [ech.rows[p] for p in pivots]


def nested_meet_dims(field, sortkey, vecs, entry, count):
    """dim(span(vecs) & S_j) for each of count nested coordinate subspaces.

    S_0 <= S_1 <= ... <= S_(count-1) are spanned by columns, and entry(c) is
    the first j with c in S_j (count or more when c lies in none).  Keying
    each column by (entry(c), sortkey(c)) puts every column outside S_j above
    every column inside it, for all j at once, so, as in coordinate_meet, the
    rows whose pivot enters by stage j form a basis of the meet with S_j.
    One echelon gives every dimension.
    """
    ech = Echelon(field, lambda c: (entry(c), sortkey(c))).extend(vecs)
    dims = [0] * count
    for p in ech.rows:
        j = ech.sortkey(p)[0]
        if j < count:
            dims[j] += 1
    return list(itertools.accumulate(dims))


def span_equal(field, sortkey, vecs_a, vecs_b):
    ea = Echelon(field, sortkey).extend(vecs_a)
    eb = Echelon(field, sortkey).extend(vecs_b)
    if ea.rank != eb.rank:
        return False
    return all(eb.contains(r) for r in ea.basis())


def solve_in_span(field, sortkey, rows, targets):
    """For each target, coefficients c with sum(c_i * rows_i) = target, or None.

    The rows are echelonized once and every target is reduced against that
    one echelon.  Each solution is the canonical one obtained by echelon
    reduction with the rows taken in the given order (free coefficients are
    zero).
    """
    # combination-tracking columns sort below every real column
    def augkey(col):
        tag, payload = col
        if tag == "v":
            return (1, sortkey(payload))
        return (0, -payload)

    ech = Echelon(field, augkey)
    for i, row in enumerate(rows):
        aug = {("v", c): v for c, v in row.items()}
        aug[("c", i)] = field.one
        ech.insert(aug)
    out = []
    for target in targets:
        red = ech.reduce({("v", c): v for c, v in target.items()})
        if any(col[0] == "v" for col in red):
            out.append(None)
            continue
        combo = {col[1]: field.neg(v) for col, v in red.items()}
        out.append([combo.get(i, field.zero) for i in range(len(rows))])
    return out


def nullspace(field, rows, columns, sortkey):
    """Canonical basis of {x : row . x = 0 for every row}.

    `columns` lists the coordinate universe.  Free columns are scanned in
    decreasing key order; each yields one basis vector with unit coordinate
    there and back-substituted pivot coordinates.
    """
    ech = Echelon(field, sortkey).extend(rows)
    out = []
    for c in sorted(columns, key=ech.sortkey, reverse=True):
        if c in ech.rows:
            continue
        vec = {c: field.one}
        for p in ech.index.get(c, ()):
            vec[p] = field.neg(ech.rows[p][c])
        out.append(vec)
    return out


def intersect_spans(field, sortkey, vecs_a, vecs_b):
    """Basis of span(A) & span(B) by the Zassenhaus double-block trick."""

    def key2(col):
        block, payload = col
        return (1 if block == "L" else 0, sortkey(payload))

    ech = Echelon(field, key2)
    for a in vecs_a:
        row = {("L", c): v for c, v in a.items()}
        row.update({("R", c): v for c, v in a.items()})
        ech.insert(row)
    for b in vecs_b:
        ech.insert({("L", c): v for c, v in b.items()})
    out = []
    for piv, row in ech.rows.items():
        if piv[0] == "R":
            out.append({c[1]: v for c, v in row.items()})
    return echelon_basis(field, sortkey, out)
