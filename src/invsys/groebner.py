"""Buchberger-based ideal arithmetic and one kernel for Artinian quotients.

Every Artinian computation happens in P/(J + m^N), and one matrix models it:
the reduced row echelon form, in the monomial order, of the truncated
multiples trunc_{<N}(x^a g) of the generators of J inside P_{<N}.  Its
pivots are the lead monomials of J + m^N below degree N, for any order; its
free columns are the standard monomials.  The reduced basis, normal forms,
the truncation bound, inverse systems, socles and Hilbert profiles are read
off it: the socle as a kernel of row lookups (duality.socle_basis), the
Hilbert profile as rank counts of its stored rows (hilbert_data).  The
matrix keeps only the rows with an entry beside the pivot: the others,
among them every multiple of a monomial generator, are the pivot alone and
are never built.

Local (power-series) inputs are truncated at their bound N, where
polynomial and power-series arithmetic agree exactly.  A truncated ideal
object represents <gens> + m^N.

Buchberger's algorithm serves untruncated work: intersection, the colon
(by elimination on every input, truncated or not), the regularity test,
and the bound.  Both modes read the bound off lead monomials: a graded
ideal's own basis, a local ideal's standard basis for a local degree order,
found by Lazard's homogenization.  The quotient is finite only with a pure
power of every variable among them, so a positive-dimensional ideal fails
before any enumeration, and N is the least degree whose monomials all have
a lead divisor, read off the leads by slicing their monomial ideal one
variable at a time, with no degree scanned (a non-homogeneous graded ideal
takes normal forms against its basis instead).  A caller that knows a local
truncation certifying itself passes it as a hint, and that one kernel is
built instead.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain

from .errors import (
    DegenerateInputError,
    InvalidDivisorError,
    SearchExhaustedError,
    TruncationLimitError,
    UnboundedQuotientError,
)
from .linalg import Echelon
from .ring import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    RingContext,
    e_add,
    e_divides,
    e_lcm,
    e_sub,
    e_unit,
    elimination_order,
)

DEFAULT_CEILING = 64


# ---------------------------------------------------------------------------
# division and Buchberger


def reduce_terms(ring, order, terms, reducers):
    """Full remainder of a term dict modulo monic reducers [(lm, tail)]."""
    row_sub = ring.field.row_sub
    key = ring.order_key(order)
    work = dict(terms)
    rem = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        hit = None
        for lm, tail in reducers:
            if e_divides(lm, t):
                hit = (lm, tail)
                break
        if hit is None:
            rem[t] = c
            continue
        lm, tail = hit
        shift = e_sub(t, lm)
        row_sub(work, c, [(e_add(shift, e2), c2) for e2, c2 in tail.items()])
    return rem


def _as_reducer(poly, order):
    lm, lc = poly.lead(order)
    tail = {e: c for e, c in poly.terms.items() if e != lm}
    return lm, tail


def s_poly_terms(ring, order, f_lm, f_tail, g_lm, g_tail):
    """Term dict of the S-polynomial of two monic polynomials."""
    fld = ring.field
    L = e_lcm(f_lm, g_lm)
    sf, sg = e_sub(L, f_lm), e_sub(L, g_lm)
    out = {e_add(sf, e): c for e, c in f_tail.items()}
    fld.row_sub(out, fld.one, [(e_add(sg, e), c) for e, c in g_tail.items()])
    return out


def _gm_update(key, lms, monos, pairs, t):
    """Gebauer-Moeller pair update after basis element t was appended."""
    lmf = lms[t]
    kept = set()
    for i, j in pairs:
        lij = e_lcm(lms[i], lms[j])
        if (
            not e_divides(lmf, lij)
            or e_lcm(lms[i], lmf) == lij
            or e_lcm(lms[j], lmf) == lij
        ):
            kept.add((i, j))
    classes = {}
    for i in range(t):
        classes.setdefault(e_lcm(lms[i], lmf), []).append(i)
    minimal = []
    for L in sorted(classes, key=key):
        if not any(e_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        members = classes[L]
        # product criterion: a coprime member certifies the whole class
        if any(e_lcm(lms[i], lmf) == e_add(lms[i], lmf) for i in members):
            continue
        # two monomials have S-polynomial zero, certifying the class as well
        if monos[t] and any(monos[i] for i in members):
            continue
        kept.add((min(members), t))
    return kept


def buchberger(ring, gens, order=GREVLEX):
    """The unique reduced Groebner basis of <gens>.

    Pairs by sugar, then the order (the sugar strategy of Giovini et al.):
    an element's sugar is the degree it would have had if the input were
    homogenized, a generator's own degree and a pair's lcm degree raised by
    its members' excess of sugar over their leads.  On homogeneous input
    sugar is the lcm degree, so in any order each degree of the basis is
    complete before the next one starts.  On other input, in lex and in
    elimination orders above all, the lcm degree alone is a poor guide: it
    puts off the pairs that keep the degrees low, and an ideal of three
    cubics in three variables can then run for minutes.  Gebauer-Moeller
    pruning, deterministic queue.
    """
    key = ring.order_key(order)
    seen = set()
    lms = []
    monos = []
    reducers = []  # (lm, tail) per basis element, in insertion order
    sugars = []
    pairs = set()

    def sugar(p):
        i, j = p
        d = sum(e_lcm(lms[i], lms[j]))
        return d + max(sugars[i] - sum(lms[i]), sugars[j] - sum(lms[j]))

    def select(p):
        return sugar(p), key(e_lcm(lms[p[0]], lms[p[1]])), p

    def append(poly, pairs, degree):
        lm, tail = _as_reducer(poly, order)
        lms.append(lm)
        sugars.append(degree)
        monos.append(len(poly.terms) == 1)
        reducers.append((lm, tail))
        return _gm_update(key, lms, monos, pairs, len(lms) - 1)

    gens = [g.monic(order) for g in gens if not g.is_zero()]
    # a monomial generator that another one divides adds nothing to the
    # ideal: keep the minimal monomials, one copy each, before any pair forms
    minimal = []
    for e in sorted({e for g in gens if len(g.terms) == 1 for e in g.terms}, key=key):
        if not any(e_divides(m, e) for m in minimal):
            minimal.append(e)
    minimal = set(minimal)
    for g in gens:
        if len(g.terms) == 1 and next(iter(g.terms)) not in minimal:
            continue
        fp = frozenset(g.terms.items())
        if fp not in seen:
            seen.add(fp)
            pairs = append(g, pairs, g.degree)

    while pairs:
        i, j = p = min(pairs, key=select)
        pairs.remove(p)
        s = s_poly_terms(ring, order, *reducers[i], *reducers[j])
        rem = reduce_terms(ring, order, s, reducers)
        if rem:
            pairs = append(Polynomial(ring, rem, _clean=False).monic(order), pairs, sugar(p))

    # minimalize: keep elements whose lead monomial is not divisible by another's
    kept = []
    for i in sorted(range(len(lms)), key=lambda i: key(lms[i])):
        if not any(e_divides(lm, lms[i]) for lm, _ in kept):
            kept.append(reducers[i])
    # interreduce to the canonical reduced basis
    final = []
    for pos, (lm, tail) in enumerate(kept):
        terms = dict(tail)
        terms[lm] = ring.field.one
        rem = reduce_terms(ring, order, terms, kept[:pos] + kept[pos + 1 :])
        final.append(Polynomial(ring, rem, _clean=False).monic(order))
    return tuple(final)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Generators plus ring context, with a cached reduced basis per order.

    trunc = N means the object represents <generators> + m^N; that is the
    computational form of an Artinian local quotient.
    """

    __slots__ = ("ring", "gens", "trunc", "_cache", "_form")

    def __init__(self, ring, gens, trunc=None):
        self.ring = ring
        cleaned = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generator {g!r} is not a polynomial")
            ring.check_same(g.ring, "ideal generators")
            if not g.is_zero():
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self.trunc = trunc
        self._cache = {}
        self._form = None  # (Artinian form, bound) once certified
        if trunc is not None and trunc < 0:
            raise ValueError("negative truncation degree")

    def groebner(self, order=GREVLEX):
        key = order.signature()
        gb = self._cache.get(key)
        if gb is None:
            if self.trunc is None:
                gb = buchberger(self.ring, self.gens, order)
            else:
                gb = self.quotient(order).reduced_basis()
            self._cache[key] = gb
        return gb

    def quotient(self, order=GREVLEX):
        """The ArtinianQuotient of this ideal, built once per order."""
        key = ("quotient", order.signature())
        aq = self._cache.get(key)
        if aq is None:
            aq = self._cache[key] = ArtinianQuotient(self, order)
        return aq

    def adopt_quotient(self, aq, basis=None):
        """Take over aq as this ideal's ArtinianQuotient in aq.order, and
        basis, when given, as its reduced basis in that order."""
        self._cache[("quotient", aq.order.signature())] = aq
        if basis is not None:
            self._cache[aq.order.signature()] = basis

    def normal_form(self, p, order=GREVLEX):
        """Unique remainder of p modulo the reduced basis; 0 iff p in I."""
        self.ring.check_same(p.ring)
        if self.trunc is not None:
            return Polynomial(self.ring, self.quotient(order).nf_vector(p), _clean=False)
        rem = reduce_terms(self.ring, order, p.terms, self._reducers(order))
        return Polynomial(self.ring, rem, _clean=False)

    def _reducers(self, order):
        """The reduced basis as monic reducers [(lm, tail)], built once per order."""
        key = ("reducers", order.signature())
        reducers = self._cache.get(key)
        if reducers is None:
            reducers = tuple(_as_reducer(g, order) for g in self.groebner(order))
            self._cache[key] = reducers
        return reducers

    def contains(self, p, order=GREVLEX):
        return self.normal_form(p, order).is_zero()

    def is_unit(self, order=GREVLEX):
        gb = self.groebner(order)
        return len(gb) == 1 and gb[0].terms == self.ring.one().terms

    def plus(self, extra):
        """Sum with another ideal or iterable of polynomials."""
        if isinstance(extra, Ideal):
            self.ring.check_same(extra.ring)
            tr = _merge_trunc(self.trunc, extra.trunc)
            return Ideal(self.ring, self.gens + extra.gens, trunc=tr)
        return Ideal(self.ring, self.gens + tuple(extra), trunc=self.trunc)

    def truncated(self, bound):
        """The ideal <gens> + m^bound, generators truncated accordingly; the
        ideal itself when it is already truncated at or below bound."""
        if self.trunc is not None and self.trunc <= bound:
            return self
        tr = bound if self.trunc is None else min(self.trunc, bound)
        return Ideal(self.ring, [g.truncate(tr) for g in self.gens], trunc=tr)

    def generators_with_truncation(self):
        gens = list(self.gens)
        if self.trunc is not None:
            gens.extend(self.ring.monomial(e) for e in self.ring.exponents_of_degree(self.trunc))
        return gens

    def equals(self, other, order=GREVLEX):
        if not self.ring.same_as(other.ring):
            return False
        return self.groebner(order) == other.groebner(order)

    def __repr__(self):
        tail = f" + m^{self.trunc}" if self.trunc is not None else ""
        return f"Ideal<{', '.join(g.render() for g in self.gens)}{tail}>"


def _merge_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ---------------------------------------------------------------------------
# the truncated-Macaulay kernel


class ArtinianQuotient:
    """P/(J + m^N) as one reduced echelon matrix over the monomials of P_{<N}.

    The rows span the truncated multiples trunc_{<N}(x^a g) of the
    generators, which is (J + m^N) & P_{<N}.  Pivots carry coefficient 1 and
    are the lead monomials of J + m^N below degree N; the free columns are
    the standard monomials, std.  N is the truncation degree of a truncated
    ideal, and otherwise the certified bound, so that J + m^N = J.

    rows holds only the rows with an entry beside the pivot.  A pivot whose
    row is the monomial alone is a unit row, left implicit: below degree N
    a monomial outside std is a lead (is_lead).  The generators that are
    monomials below N span the monomial ideal M, whose multiples are all
    unit rows, so the matrix is built modulo M: those rows are never
    inserted, a multiplier in M is skipped and M's columns are dropped from
    every other row.
    """

    def __init__(self, ideal, order=GREVLEX):
        ring = ideal.ring
        N = ideal.trunc if ideal.trunc is not None else artinian_bound(ideal, order)
        gens = [[(e, sum(e), c) for e, c in g.terms.items() if sum(e) < N] for g in ideal.gens]
        units = set()  # the multiples of M below N
        monomials = sorted((g[0] for g in gens if len(g) == 1), key=lambda t: t[1])
        for m, d, _ in monomials:
            if m not in units:
                units.update(e_add(m, a) for a in ring.exponents_upto(N - 1 - d))
        ech = Echelon(ring.field, ring.order_key(order))
        for g in gens:
            terms = [t for t in g if t[0] not in units]
            if not terms:
                continue
            low = min(d for _, d, _ in terms)
            # x^a g is redundant when x^a is already a lead of the earlier
            # generators (M's first): the syzygy writes it through rows with
            # smaller x^a
            earlier = set(ech.rows)
            for a in ring.exponents_upto(N - 1 - low):
                if a in earlier or a in units:
                    continue
                room = N - sum(a)
                shifted = ((e_add(e, a), c) for e, d, c in terms if d < room)
                row = {e: c for e, c in shifted if e not in units}
                if row:
                    ech.insert(row)
        rows = {p: row for p, row in ech.rows.items() if len(row) > 1}
        std = [e for e in ring.exponents_upto(N - 1) if e not in units and e not in ech.rows]
        self._adopt(ring, order, N, rows, std)

    @classmethod
    def from_rows(cls, ring, order, N, rows, std=None):
        """The quotient whose matrix is already known, without building it.

        rows maps pivots to their rows in the reduced echelon form, in
        order.key, of (J + m^N) & P_{<N}: every row with an entry beside its
        pivot, and any unit rows the caller has.  std lists the standard
        monomials; by default they are the monomials below N outside rows,
        so rows must then hold every unit row too.  The caller vouches for
        both, and rows is kept as given.
        """
        aq = cls.__new__(cls)
        aq._adopt(ring, order, N, rows, std)
        return aq

    def _adopt(self, ring, order, N, rows, std=None):
        if std is None:
            std = [e for e in ring.exponents_upto(N - 1) if e not in rows]
        self.ring = ring
        self.order = order
        self.N = N
        self.rows = rows  # pivot monomial -> row dict, for rows beyond the pivot
        self.std = sorted(std, key=ring.order_key(order))
        self._std_set = frozenset(std)

    @property
    def length(self):
        return len(self.std)

    def is_lead(self, e):
        """True when x^e is a pivot: a lead monomial of J + m^N below N."""
        return e in self.rows or (sum(e) < self.N and e not in self._std_set)

    def monomial_nf(self, e):
        """Normal-form vector (dict over standard monomials) of x^e: a row lookup."""
        row = self.rows.get(e)
        if row is None:
            return {e: self.ring.field.one} if e in self._std_set else {}
        neg = self.ring.field.neg
        return {u: neg(c) for u, c in row.items() if u != e}

    def nf_vector(self, p):
        fld = self.ring.field
        out = {}
        for e, c in p.terms.items():
            fld.row_sub(out, fld.neg(c), self.monomial_nf(e).items())
        return out

    def vanishes(self, k):
        """True when every monomial of degree k lies in J + m^N."""
        return k >= self.bound()

    def bound(self):
        """Smallest k with m^k inside J + m^N.

        The monomials outside J + m^N are the standard ones and the pivots
        of the stored rows.  A divisor of such a monomial is one too, so
        their degrees fill [0, k - 1].
        """
        outside = chain(self.std, (e for e, row in self.rows.items() if len(row) > 1))
        return 1 + max(map(sum, outside), default=-1)

    def minimal_leads(self):
        """The leads no other lead divides and the degree-N monomials no lead
        divides, in the order: the leads of the reduced basis of J + m^N.

        Each u - e_i of such a u is standard, so u is 0 or some v + e_i with
        v standard; below N the leads are closed upward, so u is kept
        exactly when it is not standard and every u - e_j is: when the
        standard v with u = v + e_j number as many as the variables dividing x^u.
        """
        n, std = self.ring.nvars, self._std_set
        hits = Counter(v[:i] + (v[i] + 1,) + v[i + 1 :] for v in self.std for i in range(n))
        hits[(0,) * n] = 0
        kept = [u for u, k in hits.items() if k == n - u.count(0) and u not in std]
        return sorted(kept, key=self.ring.order_key(self.order))

    def reduced_basis(self):
        """The row, or the monomial alone, of each minimal lead."""
        ring, rows = self.ring, self.rows
        return tuple(
            Polynomial(ring, dict(rows[u]), _clean=False) if u in rows else ring.monomial(u)
            for u in self.minimal_leads()
        )


def _pure_powers_first(ring, k):
    """The degree-k monomials, pure powers first (the cheapest failures)."""
    n = ring.nvars
    if k > 0:
        for i in range(n):
            yield e_unit(n, i, k)
    yield from ring.exponents_of_degree(k)


# ---------------------------------------------------------------------------
# the truncation bound, read off lead monomials


def _top_degree(lms):
    """Largest degree of a monomial outside the ideal of lms, or -1 if none.

    The ideal is Artinian, lms are nonempty and of one length n >= 1.  Its
    slice at x_1^t, the ideal of the u with (t, u) inside, grows with t and
    changes only at the x_1-exponents of lms, so the top is the largest
    (next exponent - 1) + the slice's own top over those exponents, read by
    recursion on the slices until one is the unit ideal.
    """
    if not all(map(any, lms)):
        return -1
    if len(lms[0]) == 1:
        return min(lms)[0] - 1
    by_cut = {}
    for lm in lms:
        by_cut.setdefault(lm[0], []).append(lm[1:])
    cuts = sorted(by_cut)
    top = -1
    rest = []  # the slice's leads, grown cut by cut
    for t, nxt in zip(cuts, cuts[1:]):
        rest += by_cut[t]
        below = _top_degree(rest)
        if below < 0:
            break
        top = max(top, nxt - 1 + below)
    return top


def _lead_bound(ring, lms, ceiling, inside=None):
    """Least N <= ceiling with every degree-N monomial inside the ideal.

    lms are the leads of a standard basis.  The quotient is finite only with
    a pure power of every variable among them (the unit lead is one), so a
    positive-dimensional ideal fails before anything else.  When membership is lead divisibility
    N is 1 + the top degree of the monomials outside the leads' ideal (see
    _top_degree), with no degree scanned.  Otherwise inside(e) decides
    membership, and N is the least degree, from that one on, whose
    monomials are all inside: a monomial of the ideal is its own lead, so
    no lower degree qualifies.
    """
    for i in range(ring.nvars):
        if not any(lm[i] == sum(lm) for lm in lms):
            raise UnboundedQuotientError("quotient has infinitely many standard monomials")
    N = _top_degree(lms) + 1
    if inside is not None:
        scan = (k for k in range(N, ceiling + 1) if all(inside(e) for e in _pure_powers_first(ring, k)))
        N = next(scan, ceiling + 1)
    if N > ceiling:
        limit = f"the degree ceiling {ceiling}"
        raise TruncationLimitError(f"no power of the maximal ideal up to {limit} lies in the ideal", limit)
    return N


def _graded_bound(ideal, ceiling):
    """Least N with m^N inside a graded ideal, read off its GREVLEX basis.

    N does not depend on the order, so one basis serves every order.
    Homogeneous generators have a homogeneous basis, whose standard
    monomials of degree N span (P/I)_N: m^N lies in the ideal exactly when
    every degree-N monomial has a lead divisor, so N is read off the leads
    alone.  Other ideals take normal forms against the basis.
    """
    ring = ideal.ring
    reducers = ideal._reducers(GREVLEX)
    lms = [lm for lm, _ in reducers]
    if all(len({sum(e) for e in g.terms}) == 1 for g in ideal.gens):
        return _lead_bound(ring, lms, ceiling)
    one = ring.field.one
    return _lead_bound(ring, lms, ceiling, lambda e: not reduce_terms(ring, GREVLEX, {e: one}, reducers))


def _homogenize(ring, polys):
    """The graded ring with a fresh last variable h, and each p as h^deg(p) p(x/h)."""
    hom = RingContext(ring.field, ring.names + (_fresh_name(ring.names),), "graded", ())
    return hom, [
        Polynomial(hom, {e + (d - sum(e),): c for e, c in p.terms.items()}, _clean=False)
        for p, d in zip(polys, [p.degree for p in polys])
    ]


def _local_form(ideal, order, ceiling, hint, length=None):
    """(I + m^N, N) for the least N with m^N inside I in the power-series ring.

    With a hint, one kernel at truncation G = max(2, hint) is tried first,
    if G <= ceiling + 1.  It is certified by Nakayama when m^(G-1) <= I + m^G, or, when the caller knows
    that P^/I has length at most length, when P/(I + m^G) reaches it, as
    P^/I maps onto P/(I + m^G).  N is then the least k with
    m^k <= I + m^G, read off that kernel, which serves the result as well.

    Otherwise N is read off lead monomials by Lazard's homogenization
    (Lazard, EUROCAL 1983; Greuel-Pfister, Sec. 1.7).  In the order that
    compares a fresh h first and then x by grevlex, the lead of a
    homogeneous polynomial lies in its lowest x-degree part, so the reduced
    basis of the homogenized generators dehomogenizes to a standard basis
    of I for the local degree order ds.  Its leads span a monomial ideal
    with the Hilbert-Samuel function of P^/I, so P^/I is finite exactly when
    they hold a pure power of every variable, and m^N <= I exactly when
    every degree-N monomial has a lead divisor: N is read off the leads by
    slicing (see _top_degree).  The one kernel, at N, is built when first
    asked for.
    """
    if hint is not None and (G := max(2, hint)) <= ceiling + 1:
        aq = ideal.truncated(G).quotient(order)
        if aq.length == length or aq.vanishes(G - 1):
            N = aq.bound()
            J = ideal.truncated(N)
            J.adopt_quotient(aq)
            J._form = (J, N)
            return J, N
    ring = ideal.ring
    n = ring.nvars
    hom, gens = _homogenize(ring, ideal.gens)
    h_first = MonomialOrder("block", block=1, perm=[n] + list(range(n)))
    lms = [g.lead(h_first)[0][:n] for g in buchberger(hom, gens, h_first)]
    N = _lead_bound(ring, lms, ceiling)
    J = ideal.truncated(N)
    J._form = (J, N)
    return J, N


def artinian_bound(ideal, order=GREVLEX, ceiling=DEFAULT_CEILING, hint=None, length=None):
    """Smallest N with m^N inside the ideal.

    Both modes read N off lead monomials (see _lead_bound); a local ideal
    first tries the one kernel at truncation hint, certified by Nakayama or
    by reaching length (see _local_form).  A truncated ideal reads N off
    its own kernel.
    """
    if ideal._form is None:
        if ideal.trunc is not None:
            ideal._form = (ideal, ideal.quotient(order).bound())
        elif ideal.ring.mode == "graded":
            ideal._form = (ideal, _graded_bound(ideal, ceiling))
        else:
            ideal._form = _local_form(ideal, order, ceiling, hint, length)
    return ideal._form[1]


def artinian_form(ideal, order=GREVLEX, ceiling=DEFAULT_CEILING, hint=None, length=None):
    """(truncation-exact ideal, bound N): local ideals get trunc = N."""
    artinian_bound(ideal, order, ceiling, hint, length)
    return ideal._form


# ---------------------------------------------------------------------------
# Hilbert data


class HilbertData(tuple):
    """Dimension sequence of the m-adic associated graded of P/I."""

    __slots__ = ()

    def __new__(cls, values):
        return super().__new__(cls, tuple(values))

    @property
    def values(self):
        return tuple(self)

    @property
    def length(self):
        return sum(self)

    @property
    def socle_degree(self):
        return len(self) - 1


def _smallest_first(e):
    """GREVLEX reversed: the smallest GREVLEX monomial has the largest key."""
    return (-sum(e), tuple(reversed(e)))


def hilbert_data(ideal, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """values[k] = dim of (m^k + I)/(m^(k+1) + I), exact over the field.

    Rank counts of the quotient matrix.  For k <= N, (J + m^k) & P_{<k} is
    its row space cut below degree k, whose dimension is the number of
    pivots below k once the rows are echelonized with each pivot at its
    lowest-degree term.  The implicit unit rows share no column with the
    stored rows and keep a pivot each, so only the stored rows are
    echelonized again: values[k] = #std_k + #rows_k - #pivots_k.
    """
    J, _ = artinian_form(ideal, order, ceiling)
    aq = J.quotient(order)
    ring = ideal.ring
    low = Echelon(ring.field, ring.sort_key(_smallest_first)).extend(aq.rows.values())
    dims = [0] * aq.N
    for e in aq.std:
        dims[sum(e)] += 1
    for u in aq.rows:
        dims[sum(u)] += 1
    for u in low.rows:
        dims[sum(u)] -= 1
    while dims and dims[-1] == 0:
        dims.pop()
    return HilbertData(dims)


# ---------------------------------------------------------------------------
# intersection, colon, regularity


def _fresh_name(names):
    base = "t"
    k = 0
    while f"{base}{k}" in names:
        k += 1
    return f"{base}{k}"


def ideal_intersect(I, J, order=GREVLEX):
    """I & J via one auxiliary variable and block elimination."""
    I.ring.check_same(J.ring)
    ring = I.ring
    if order.kind not in ("grevlex", "lex"):
        raise ValueError("intersection needs a grevlex or lex base order")
    tname = _fresh_name(ring.names)
    ext = RingContext(ring.field, (tname,) + ring.names, "graded", ())
    eorder = elimination_order(1, base=order.kind)

    def lift(p, tdeg):
        return Polynomial(ext, {(tdeg,) + e: c for e, c in p.terms.items()})

    t = ext.variable(0)
    one = ext.one()
    gens = [lift(g, 1) for g in I.generators_with_truncation()]
    gens += [(one - t) * lift(h, 0) for h in J.generators_with_truncation()]
    gb = buchberger(ext, gens, eorder)
    out = []
    for g in gb:
        if all(e[0] == 0 for e in g.terms):
            out.append(Polynomial(ring, {e[1:]: c for e, c in g.terms.items()}))
    return Ideal(ring, out)


def exact_divide(p, f, order=GREVLEX):
    """Quotient p/f when f divides p in the polynomial ring."""
    ring = p.ring
    fld = ring.field
    lm, lc = f.lead(order)
    tail = [(e, c) for e, c in f.terms.items() if e != lm]
    work = dict(p.terms)
    quot = {}
    key = ring.order_key(order)
    while work:
        t = max(work, key=key)
        if not e_divides(lm, t):
            raise ValueError("division is not exact")
        c = fld.div(work.pop(t), lc)
        sh = e_sub(t, lm)
        quot[sh] = c
        fld.row_sub(work, c, [(e_add(sh, e2), c2) for e2, c2 in tail])
    return Polynomial(ring, quot, _clean=False)


def ideal_colon(I, divisor, order=GREVLEX):
    """(I : f) = {p : p f in I}, or the intersection over an ideal's generators.

    (I : f) = (I & <f>)/f: each element of the intersection's basis is
    divided by f exactly.  The result keeps I's truncation: m^N lies in I,
    hence in (I : f).
    """
    I.ring.check_same(divisor.ring)
    if isinstance(divisor, Ideal):
        if not divisor.gens:
            raise InvalidDivisorError("colon by the zero ideal")
        result = None
        for g in divisor.gens:
            c = ideal_colon(I, g, order)
            result = c if result is None else ideal_intersect(result, c, order)
        return Ideal(I.ring, result.gens, trunc=I.trunc)
    if divisor.is_zero():
        raise InvalidDivisorError("colon by zero")
    T = ideal_intersect(I, Ideal(I.ring, [divisor]), order)
    gens = [exact_divide(g, divisor, order) for g in T.groebner(order)]
    return Ideal(I.ring, gens, trunc=I.trunc)


def is_regular(f, I, order=GREVLEX):
    """Nonzerodivisor test: (I : f) = I, read off one homogeneous basis.

    f gets a variable v of its own: f itself when f is a variable up to a
    unit, else a fresh u with u - f adjoined, as P[u]/(I + (u - f)) is P/I
    with u acting as f.  Homogenizing a grevlex basis of that ideal with a
    fresh h keeps v regular or not (Cox-Little-O'Shea, Ch. 8 Sec. 4), and
    for the homogeneous ideal K so obtained, in grevlex with v last,
    in(K : v) = in(K) : v (Bayer-Stillman).  So v is regular exactly when no
    lead monomial of K's reduced basis contains v.  The verdict does not
    depend on order, which serves the membership test only.  A truncated I
    needs no basis: P/(J + m^N) is Artinian local, so f is regular on it
    exactly when f is a unit there, that is when f(0) != 0.

    In local mode this is the polynomial-representative test; components away
    from the origin can cause a false negative, never a false positive on the
    Artinian-reduction pipeline.
    """
    ring = I.ring
    ring.check_same(f.ring)
    if f.is_zero() or I.contains(f, order):
        raise DegenerateInputError("regularity test of an element of the ideal")
    if I.trunc is not None:
        # P/(J + m^N) is Artinian local: f is regular exactly when it is a unit
        return f.constant_coefficient() != ring.field.zero
    basis = I.groebner(GREVLEX)
    lm = next(iter(f.terms))
    if len(f.terms) == 1 and sum(lm) == 1:
        v = lm.index(1)
    else:
        v = ring.nvars
        ring = RingContext(ring.field, ring.names + (_fresh_name(ring.names),), "graded", ())
        gens = [
            Polynomial(ring, {e + (0,): c for e, c in g.terms.items()}, _clean=False)
            for g in basis + (-f,)
        ]
        gens[-1] += ring.variable(v)  # u - f
        basis = buchberger(ring, gens, GREVLEX)
    hom, gens = _homogenize(ring, basis)
    last = MonomialOrder(perm=[i for i in range(hom.nvars) if i != v] + [v])
    return not any(g.lead(last)[0][v] for g in buchberger(hom, gens, last))


def find_linear_regular_sequence(I, d, trials=300, seed=0, order=GREVLEX):
    """d linear forms, each regular modulo I plus the previous ones.

    Deterministic given the seed: plain variables are probed first, then
    seeded random small-integer combinations.  Failure raises
    SearchExhaustedError and proves nothing.
    """
    ring = I.ring
    rng = random.Random(seed)
    found = []
    current = I

    def candidates():
        for i in range(ring.nvars):
            yield ring.variable(i)
        bound = 1
        count = 0
        while True:
            coeffs = [rng.randint(-bound, bound) for _ in range(ring.nvars)]
            if any(coeffs):
                p = ring.zero()
                for i, c in enumerate(coeffs):
                    p = p + ring.variable(i) * c
                yield p
            count += 1
            if count % (3 * ring.nvars) == 0:
                bound += 1

    used = 0
    for f in candidates():
        if used >= trials:
            break
        used += 1
        if len(found) == d:
            break
        try:
            ok = is_regular(f, current, order)
        except DegenerateInputError:
            continue
        if ok:
            found.append(f)
            current = current.plus([f])
    if len(found) < d:
        raise SearchExhaustedError(
            f"no regular sequence of length {d} found in {trials} trials (not a proof of nonexistence)"
        )
    return found


def equal_as_artinian(A, B, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """Equality of the Artinian quotients defined by two ideals."""
    if not A.ring.same_as(B.ring):
        return False
    JA, NA = artinian_form(A, order, ceiling)
    JB, NB = artinian_form(B, order, ceiling)
    N = max(NA, NB, JA.trunc or 0, JB.trunc or 0)
    return JA.truncated(N).equals(JB.truncated(N), order)
