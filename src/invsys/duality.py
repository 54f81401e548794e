"""Contraction action of P on its graded dual D and Macaulay duality both ways.

D identifies with a polynomial ring in dual variables; the module structure
is the contraction rule x^n . X^m = X^(m-n) when m >= n and 0 otherwise.
perp_ideal sends an Artinian ideal to its inverse system, perp_module sends a
finitely generated submodule of D back to its annihilator ideal.
"""

from __future__ import annotations

import warnings

from .errors import ContextMismatchError
from .groebner import (
    DEFAULT_CEILING,
    ArtinianQuotient,
    Ideal,
    _smallest_first,
    artinian_form,
)
from .linalg import Echelon, echelon_basis, intersect_spans, nullspace
from .ring import GREVLEX, Polynomial, e_divides, e_sub


def _check_dual(p, F):
    if not p.ring.dual.same_as(F.ring):
        raise ContextMismatchError("contraction needs a ring element and a dual element")


def contract(p, F):
    """Bilinear extension of the monomial contraction rule."""
    _check_dual(p, F)
    fld = F.ring.field
    out = {}
    for n, a in p.terms.items():
        images = [(e_sub(m, n), b) for m, b in F.terms.items() if e_divides(n, m)]
        fld.row_sub(out, fld.neg(a), images)
    return Polynomial(F.ring, out, _clean=False)


def contract_exp(e, F):
    """Contraction of F by the monomial x^e."""
    return Polynomial(F.ring, _contract_terms(e, F.terms) if any(e) else dict(F.terms), _clean=False)


def _contract_var(i, terms):
    """Contraction by the single variable x_i, term dict to term dict (hot path)."""
    return {m[:i] + (m[i] - 1,) + m[i + 1 :]: b for m, b in terms.items() if m[i]}


def _contract_terms(e, terms):
    """Contraction by the monomial x^e, term dict to term dict.

    Only the slots where e is nonzero are tested and shifted, one slot at a
    time, as _contract_var slices them; for e = 0 the input dict comes back.
    """
    for i, k in enumerate(e):
        if k:
            terms = {m[:i] + (m[i] - k,) + m[i + 1 :]: b for m, b in terms.items() if m[i] >= k}
    return terms


def dual_pairing(p, F):
    """<p, F> = constant coefficient of p acting on F."""
    return contract(p, F).constant_coefficient()


class DualModule:
    """Contraction-closed, degree-bounded P-submodule of D.

    The basis is kept in unique reduced row echelon form with respect to the
    monomial order on dual exponents, so module equality is basis equality.
    A module built from arbitrary elements is only their span; _closed
    records that the span is known to be contraction-closed, and lets
    perp_module skip the closure.  It is set by the constructions that are
    closed by construction: generate, contract_by of a closed module and
    perp_ideal, which between them build every stage of a limitsys tower;
    also by a passing verify_closed, the test-side oracle.
    """

    __slots__ = ("ring", "degbound", "basis", "order", "_closed")

    def __init__(self, ring, degbound, elements, order=GREVLEX, _canonical=False):
        self.ring = ring
        self.degbound = degbound
        self.order = order
        self._closed = False
        if _canonical:
            self.basis = tuple(elements)
            return
        dual = ring.dual
        ech = Echelon(ring.field, ring.order_key(order))
        for F in elements:
            dual.check_same(F.ring, "dual module elements")
            ech.insert(F.terms)
        self.basis = tuple(Polynomial(dual, row) for row in ech.basis())

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def _echelon(self):
        key = self.ring.order_key(self.order)
        return Echelon(self.ring.field, key, (F.terms for F in self.basis))

    def contains(self, F):
        return self._echelon().contains(F.terms)

    def reduce(self, F):
        return Polynomial(self.ring.dual, self._echelon().reduce(F.terms))

    def equals(self, other):
        return (
            isinstance(other, DualModule)
            and self.ring.same_as(other.ring)
            and self.basis == other.basis
        )

    def max_degree(self):
        degs = [F.degree for F in self.basis]
        return max(degs) if degs else float("-inf")

    def sum_with(self, other):
        self.ring.check_same(other.ring)
        bound = max(self.degbound, other.degbound)
        return DualModule(self.ring, bound, self.basis + other.basis, self.order)

    def intersect(self, other):
        self.ring.check_same(other.ring)
        rows = intersect_spans(
            self.ring.field,
            self.ring.order_key(self.order),
            [F.terms for F in self.basis],
            [F.terms for F in other.basis],
        )
        bound = min(self.degbound, other.degbound)
        dual = self.ring.dual
        return DualModule(self.ring, bound, [Polynomial(dual, r) for r in rows], self.order)

    def contract_by(self, e):
        """Image of the module under contraction by the monomial x^e."""
        bound = max(self.degbound - sum(e), 0)
        ech = Echelon(self.ring.field, self.ring.order_key(self.order)).extend(
            _contract_terms(e, F.terms) for F in self.basis
        )
        dual = self.ring.dual
        rows = [Polynomial(dual, row, _clean=False) for row in ech.basis()]
        out = DualModule(self.ring, bound, rows, self.order, _canonical=True)
        out._closed = self._closed  # x^a . (P . W) = P . (x^a . W)
        return out

    @classmethod
    def generate(cls, ring, elements, degbound=None, order=GREVLEX):
        """P-closure of the given dual elements: span of all contractions."""
        dual = ring.dual
        elements = list(elements)
        for F in elements:
            dual.check_same(F.ring, "dual module generators")
        if degbound is None:
            degs = [F.degree for F in elements if not F.is_zero()]
            degbound = int(max(degs)) if degs else 0
        # the closure's rows are already the reduced echelon form under the
        # order's key, which is unique: no second echelon is needed
        ech = _closure(ring, elements, ring.order_key(order))
        rows = [Polynomial(dual, r, _clean=False) for r in ech.basis()]
        W = cls(ring, degbound, rows, order, _canonical=True)
        W._closed = True
        return W

    def __repr__(self):
        head = ", ".join(F.render(self.order) for F in self.basis[:4])
        more = "" if self.dim <= 4 else f", ... ({self.dim} total)"
        return f"DualModule<deg<={self.degbound}: {head}{more}>"


def _closure(ring, elements, sortkey):
    """Echelon, under sortkey, of the span of all contractions of the elements."""
    ech = Echelon(ring.field, sortkey)
    queue = [F.terms for F in elements if ech.insert(F.terms) is not None]
    n = ring.nvars
    while queue:
        terms = queue.pop()
        for i in range(n):
            G = _contract_var(i, terms)
            if G and ech.insert(G) is not None:
                queue.append(G)
    return ech


def perp_ideal(I, degbound=None, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """Inverse system of an Artinian ideal inside the bounded dual.

    W is the orthogonal complement of the rows of the ideal's quotient
    matrix: each standard monomial v gives X^v minus c X^u for every pivot
    row u with entry c at v.  W = J^perp for the Artinian form J of I, and
    it is closed under contraction by construction, with no check: J.P lies
    in J, and <p, x^a . F> = <x^a p, F> puts x^a . F in J^perp for F in
    J^perp; m^N lies in J, so J^perp lies in degrees below N and the bound
    degbound >= N - 1 cuts nothing.
    """
    J, N = artinian_form(I, order, ceiling)
    if degbound is None:
        degbound = max(N - 1, 0)
    if degbound < N - 1:
        raise ValueError(f"degbound {degbound} below the required {N - 1}")
    aq = J.quotient(order)
    ring = I.ring
    dual = ring.dual
    fld = ring.field
    columns = {v: {v: fld.one} for v in aq.std}  # standard monomial -> dual terms
    for u, row in aq.rows.items():
        for v, c in row.items():
            if v != u:
                columns[v][u] = fld.neg(c)
    basis = [Polynomial(dual, vec) for vec in columns.values()]
    W = DualModule(ring, degbound, basis, order)
    W._closed = True
    return W


def verify_closed(W):
    """Raise AssertionError unless W is closed under contraction by every variable.

    A module that passes is marked closed, so perp_module reads its
    annihilator off its basis without running the closure.  No pipeline
    module calls it: every module the pipeline marks closed is closed by
    construction, and the tests use this check as the oracle for that.
    """
    ech = W._echelon()
    n = W.ring.nvars
    for F in W.basis:
        for i in range(n):
            G = _contract_var(i, F.terms)
            if G and not ech.contains(G):
                raise AssertionError("inverse system is not contraction-closed (internal)")
    W._closed = True


def perp_module(W):
    """Annihilator ideal of a dual module, with certificate m^(degbound+1).

    The transpose of perp_ideal, read off one echelon.  The contraction
    closure C of W is echelonized with each row's pivot at its smallest
    GREVLEX monomial, under a key table the ring keeps for that key; for a
    module known to be closed (see DualModule) C is W itself and its basis
    is echelonized as it is, otherwise the closure inserts every
    contraction.  Terms above B = degbound are cut afterwards, which leaves
    the rows reduced because the order is degree-compatible.  The pivots v
    of degree <= B are the standard monomials.  Every other monomial u of
    degree <= B is a lead, with row x^u - sum_v c_v[u] x^v over the rows
    c_v with pivot v: together these are the reduced GREVLEX echelon form
    of Ann(C) & P_{<=B}.  A lead's row has an entry beside u only when u
    occurs in C, so only those rows are built and the rest stay the
    quotient's implicit unit rows.  The generators are the rows of the
    divisibility-minimal leads.  When every term of W has degree <= B (the
    DualModule contract), Ann(C) contains m^(B+1) and the rows are the
    quotient matrix of the returned ideal, which takes them over as its
    GREVLEX kernel.
    """
    ring = W.ring
    if W.is_zero():
        warnings.warn("annihilator of the zero module is the unit ideal")
        return Ideal(ring, [ring.one()])
    B = W.degbound
    key = ring.sort_key(_smallest_first)
    if W._closed:
        closure = Echelon(ring.field, key).extend(F.terms for F in W.basis)
    else:
        closure = _closure(ring, W.basis, key)
    fld = ring.field
    std = []
    rows = {}  # lead -> row, for the leads that occur in C
    for v, row in closure.rows.items():
        if sum(v) <= B:
            std.append(v)
            for u, c in row.items():
                if u != v and sum(u) <= B:
                    urow = rows.get(u)
                    if urow is None:
                        urow = rows[u] = {u: fld.one}
                    urow[v] = fld.neg(c)
    aq = ArtinianQuotient.from_rows(ring, GREVLEX, B + 1, rows, std)
    leads = aq.minimal_leads()
    basis = tuple(Polynomial(ring, rows[u]) if u in rows else ring.monomial(u) for u in leads)
    # the degree-(B+1) monomials close the basis; the ideal's generators
    # are the rows below them
    A = Ideal(ring, [g for g, u in zip(basis, leads) if sum(u) <= B], trunc=B + 1)
    if W.max_degree() <= B:
        A.adopt_quotient(aq, basis)
    return A


def socle_basis(I, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """K-basis of (I : m)/I, reduced residue representatives.

    The socle is the kernel of multiplication by the variables on the
    standard monomials: the condition row of variable x_i and standard
    monomial u holds, at each standard w, the coefficient of u in the
    normal form of x^(w + e_i), a row lookup.  Its basis is echelonized in
    order.
    """
    J, _ = artinian_form(I, order, ceiling)
    aq = J.quotient(order)
    ring = I.ring
    rows = {}  # (variable, standard monomial) -> condition row over std
    for w in aq.std:
        for i in range(ring.nvars):
            for u, c in aq.monomial_nf(w[:i] + (w[i] + 1,) + w[i + 1 :]).items():
                rows.setdefault((i, u), {})[w] = c
    key = ring.order_key(order)
    kernel = nullspace(ring.field, rows.values(), aq.std, key)
    return [Polynomial(ring, row) for row in echelon_basis(ring.field, key, kernel)]


def minimal_cogenerators(W, order=GREVLEX):
    """Echelon representatives of W modulo the contractions m . W.

    These minimally generate W as a P-module; their number is the type.
    """
    ring = W.ring
    n = ring.nvars
    ech = Echelon(ring.field, ring.order_key(order))
    for F in W.basis:
        for i in range(n):
            G = _contract_var(i, F.terms)
            if G:
                ech.insert(G)
    lower = set(ech.rows)
    for F in W.basis:
        ech.insert(F.terms)
    pivots = [p for p in ech.rows if p not in lower]
    pivots.sort(key=ech.sortkey, reverse=True)
    return [Polynomial(ring.dual, dict(ech.rows[p])) for p in pivots]
