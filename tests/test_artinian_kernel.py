"""The Artinian kernel built modulo its monomial generators, against oracles.

ArtinianQuotient leaves the multiples of the monomial generators out of its
matrix and stores only the rows with an entry beside the pivot.  Everything
read off it must still be what the full truncated Macaulay matrix gives:
dense_rref of every trunc_{<N}(x^a g) over the monomials of P_{<N}, no row
skipped.  bound, vanishes and minimal_leads, read off std and the stored
pivots, must agree with their scans.  The same module checks the graded
bound read off lead monomials, the regularity verdict on truncated ideals,
the Hilbert profile read off the stored rows and the socle read off the
multiplication kernel against their full paths.
"""

import random

import pytest

from invsys import (
    GREVLEX,
    LEX,
    DegenerateInputError,
    Ideal,
    artinian_bound,
    artinian_form,
    context_from_names,
    hilbert_data,
    ideal_colon,
    is_regular,
)
from invsys import groebner
from invsys.errors import TruncationLimitError, UnboundedQuotientError
from invsys.duality import _smallest_first, perp_ideal, perp_module, socle_basis
from invsys.groebner import ArtinianQuotient, _pure_powers_first, reduce_terms
from invsys.linalg import Echelon
from invsys.ring import e_add, e_divides

from oracles import dense_rref, hilbert_rank_walk, monomials_upto

P = 32003


def _random_poly(ctx, rng, maxdeg, nterms):
    exps = [e for e in monomials_upto(ctx.nvars, maxdeg) if any(e)]
    return ctx.from_terms({rng.choice(exps): rng.choice([1, -1, 2, -3, 5]) for _ in range(nterms)})


def _kernel_cases():
    """Seeded (name, ideal): monomial generators mixed with others.

    Monomial generators may divide one another, repeat, or lie at or above
    the truncation degree; local and graded, over Q and F_32003, truncated
    and (graded, with a pure power of every variable) untruncated.
    """
    rng = random.Random(16)
    out = []
    for t in range(40):
        n = rng.choice([2, 3])
        ctx = context_from_names(
            ",".join(f"x{i}" for i in range(n)),
            field=rng.choice(["Q", f"F{P}"]),
            mode=rng.choice(["graded", "local"]),
        )
        N = rng.choice([4, 5, 6])
        high = [e for e in monomials_upto(n, 3) if sum(e) >= 2]
        monos = [ctx.monomial(rng.choice(high)) for _ in range(2)]
        m = monos[0]
        monos += [m * ctx.variable(rng.randrange(n)), m]  # a multiple and a duplicate
        monos.append(ctx.monomial(rng.choice([e for e in monomials_upto(n, N + 1) if sum(e) >= N])))
        monos.append(ctx.monomial(rng.choice(high), 3))  # a monomial with a coefficient
        others = [_random_poly(ctx, rng, 3, rng.choice([2, 3, 4])) for _ in range(rng.choice([1, 2]))]
        # a generator that is a monomial only below N
        others.append(_random_poly(ctx, rng, 3, 1) + ctx.monomial((N,) + (0,) * (n - 1)))
        gens = monos[: rng.choice([1, 3, 6])] + others
        rng.shuffle(gens)
        if t % 4 == 3 and ctx.mode == "graded":
            gens += [ctx.variable(i) ** (N - 1) for i in range(n)]
            out.append((f"graded{t}", Ideal(ctx, gens)))
        else:
            out.append((f"trunc{t}", Ideal(ctx, gens, trunc=N)))
    # the unit ideal, below and at N = 0
    ctx = context_from_names("x,y", mode="local")
    unit = [ctx.parse("1 + x"), ctx.parse("y^2")]
    out += [("unit", Ideal(ctx, unit, trunc=3)), ("zero-N", Ideal(ctx, unit[1:], trunc=0))]
    return out


def _dense_quotient(ideal, order, N):
    """(std, nf, basis, bound) of the full truncated Macaulay matrix."""
    ring = ideal.ring
    key = ring.order_key(order)
    cols = sorted(monomials_upto(ring.nvars, N - 1), key=key, reverse=True)
    where = {e: i for i, e in enumerate(cols)}
    matrix = []
    for g in ideal.gens:
        for a in monomials_upto(ring.nvars, N - 1):
            row = [0] * len(cols)
            for e, c in g.terms.items():
                s = e_add(e, a)
                if sum(s) < N:
                    row[where[s]] = int(c) if ring.field.name != "Q" else c
            if any(row):
                matrix.append(row)
    p = None if ring.field.name == "Q" else P
    rref, pivots = dense_rref(matrix, len(cols), p)
    leads = {cols[c]: rref[r] for c, r in pivots.items()}
    std = [e for e in cols if e not in leads]
    neg = ring.field.neg

    def row_terms(e):
        return {cols[j]: v for j, v in enumerate(leads[e]) if v}

    nf = {}
    for e in cols:
        if e in leads:
            nf[e] = {u: neg(c) for u, c in row_terms(e).items() if u != e}
        else:
            nf[e] = {e: ring.field.one}
    minimal = [u for u in leads if not any(v != u and e_divides(v, u) for v in leads)]
    minimal += [u for u in monomials_upto(ring.nvars, N) if sum(u) == N and not any(e_divides(v, u) for v in leads)]
    basis = tuple(
        ring.from_terms(row_terms(u)) if u in leads else ring.monomial(u)
        for u in sorted(minimal, key=key)
    )
    bound = next((k for k in range(N) if all(not nf[e] for e in ring.exponents_of_degree(k))), N)
    return sorted(std, key=key), nf, basis, bound


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_kernel_matches_the_dense_macaulay_matrix(order):
    for name, ideal in _kernel_cases():
        aq = ArtinianQuotient(ideal, order)
        std, nf, basis, bound = _dense_quotient(ideal, order, aq.N)
        assert aq.std == std, name
        for e in monomials_upto(ideal.ring.nvars, aq.N):
            assert aq.is_lead(e) is (e in nf and e not in std), (name, e)
        for e, vec in nf.items():
            assert aq.monomial_nf(e) == vec, (name, e)
        assert aq.reduced_basis() == basis, name
        assert aq.bound() == bound, name
        # only rows with an entry beside the pivot are stored
        assert all(len(row) > 1 for row in aq.rows.values()), name


def _scan_minimal_leads(aq):
    """The candidates 0 and v + e_i (v standard) that are leads or of
    degree N, with no lead at any u - e_i: n is_lead calls per candidate."""
    n, N = aq.ring.nvars, aq.N
    near = {(0,) * n} | {v[:i] + (v[i] + 1,) + v[i + 1 :] for v in aq.std for i in range(n)}

    def covered(u):
        return any(u[i] and aq.is_lead(u[:i] + (u[i] - 1,) + u[i + 1 :]) for i in range(n))

    kept = [u for u in near if (sum(u) == N or aq.is_lead(u)) and not covered(u)]
    return sorted(kept, key=aq.ring.order_key(aq.order))


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_kernel_accessors_match_their_scans(order):
    # bound, vanishes and minimal_leads read std and the stored pivots; the
    # scans take a normal form of every monomial of each degree
    bounds = set()
    for name, ideal in _kernel_cases():
        aq = ArtinianQuotient(ideal, order)
        ring = ideal.ring
        scan = [all(not aq.monomial_nf(e) for e in ring.exponents_of_degree(k)) for k in range(aq.N + 1)]
        assert [aq.vanishes(k) for k in range(aq.N + 1)] == scan, name
        assert aq.bound() == scan.index(True), name
        assert aq.minimal_leads() == _scan_minimal_leads(aq), name
        # the same matrix handed over with its unit rows written out
        units = {e: {e: ring.field.one} for e in monomials_upto(ring.nvars, aq.N - 1) if aq.is_lead(e)}
        full = ArtinianQuotient.from_rows(ring, order, aq.N, {**units, **aq.rows})
        assert (full.bound(), full.minimal_leads()) == (aq.bound(), aq.minimal_leads()), name
        bounds.add((aq.N, aq.bound()))
    assert {(3, 0), (0, 0)} < bounds and any(b < N for N, b in bounds if b)


def test_monomial_ideals_insert_no_row(monkeypatch):
    inserts = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: inserts.append(1) or insert(self, vec))
    ctx = context_from_names("x,y,z")
    x, y, z = (ctx.variable(i) for i in range(3))
    aq = ArtinianQuotient(Ideal(ctx, [x**2, x * y, y**3, z**2, x**2 * z], trunc=6))
    assert inserts == [] and aq.rows == {}
    assert aq.std == sorted(
        (e for e in monomials_upto(3, 5) if e[0] < 2 and e[1] < 3 and e[2] < 2 and not (e[0] and e[1])),
        key=ctx.order_key(GREVLEX),
    )
    assert [g.render() for g in aq.reduced_basis()] == ["z^2", "x*y", "x^2", "y^3"]


def _normal_form_bound(ideal, order, ceiling):
    """The graded bound by normal forms of every degree-N monomial."""
    ring = ideal.ring
    reducers = ideal._reducers(order)
    lms = [lm for lm, _ in reducers]
    if any(not any(lm) for lm in lms):
        return 0
    for i in range(ring.nvars):
        if not any(lm[i] == sum(lm) for lm in lms):
            raise UnboundedQuotientError("unbounded")
    for N in range(1, ceiling + 1):
        if all(not reduce_terms(ring, order, {e: ring.field.one}, reducers) for e in _pure_powers_first(ring, N)):
            return N
    raise TruncationLimitError("no power", "ceiling")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (UnboundedQuotientError, TruncationLimitError) as exc:
        return type(exc)


def test_graded_bound_from_leads_matches_normal_forms(monkeypatch):
    calls = []
    reduce = groebner.reduce_terms
    monkeypatch.setattr(groebner, "reduce_terms", lambda *a: calls.append(1) or reduce(*a))
    rng = random.Random(7)
    bounds = set()
    for t in range(40):
        n = rng.choice([2, 3])
        ctx = context_from_names(",".join(f"x{i}" for i in range(n)), field=rng.choice(["Q", f"F{P}"]))
        gens = []
        for _ in range(rng.choice([2, 3, 4])):
            d = rng.choice([1, 2, 3])
            exps = list(ctx.exponents_of_degree(d))
            gens.append(ctx.from_terms({rng.choice(exps): rng.choice([1, -1, 2]) for _ in range(3)}))
        if t % 3:
            gens += [ctx.variable(i) ** rng.choice([2, 3, 4]) for i in range(n)]
        # the bound is read off the GREVLEX basis; the reference scans normal
        # forms in either order, as N does not depend on it
        order = rng.choice([GREVLEX, LEX])
        I = Ideal(ctx, gens)
        I.groebner()
        del calls[:]
        got = _outcome(groebner._graded_bound, I, 12)
        assert calls == [], t  # homogeneous: no normal form
        assert got == _outcome(_normal_form_bound, Ideal(ctx, gens), order, 12), t
        bounds.add(got)
    assert len(bounds) > 3


def test_graded_bound_keeps_normal_forms_off_homogeneous_ideals():
    ctx = context_from_names("x")
    x = ctx.variable(0)
    # x^2 is the lead, yet no power of x lies in (x - x^2) = (x) & (1 - x)
    with pytest.raises(TruncationLimitError):
        artinian_bound(Ideal(ctx, [x - x**2]), ceiling=10)
    ctx2 = context_from_names("x,y")
    x, y = ctx2.variable(0), ctx2.variable(1)
    # its leads y^3, x*y, x^3 cover degree 3, yet y^3 = x^2 is not in it
    assert artinian_bound(Ideal(ctx2, [x**2 - y**3, y**4, x * y])) == 4


def _regularity_cases():
    rng = random.Random(15)
    cases = []
    for t in range(96):
        n = rng.choice([2, 3])
        ctx = context_from_names(
            ",".join(f"x{i}" for i in range(n)),
            field=rng.choice(["Q", f"F{P}"]),
            mode=rng.choice(["graded", "local"]),
        )
        gens = [_random_poly(ctx, rng, 3, rng.choice([1, 2, 3])) for _ in range(rng.choice([1, 2, 3]))]
        kind = t % 4
        if kind == 0:
            f = ctx.variable(rng.randrange(n))
        elif kind == 1:
            f = ctx.variable(rng.randrange(n)) * rng.choice([2, -3])
        else:
            f = _random_poly(ctx, rng, 2, 2) + (rng.choice([1, -2]) if kind == 3 else 0)
        cases.append((Ideal(ctx, gens).truncated(rng.choice([2, 3, 4])), f, rng.choice([GREVLEX, LEX])))
    return cases


def _regular_verdict(f, I, order):
    try:
        return is_regular(f, I, order)
    except DegenerateInputError:
        return "member"


def test_truncated_regularity_matches_the_full_path():
    verdicts = []
    for I, f, order in _regularity_cases():
        full = Ideal(I.ring, I.generators_with_truncation())
        got = _regular_verdict(f, I, order)
        assert got == _regular_verdict(f, full, order), (I, f)
        verdicts.append(got)
    assert len(verdicts) >= 80 and {True, False, "member"} <= set(verdicts)


def test_perp_module_shares_one_smallest_first_table():
    ctx = context_from_names("x,y,z")
    x, y, z = (ctx.variable(i) for i in range(3))
    W = perp_ideal(Ideal(ctx, [x**2 - y * z, y**3, z**3, x * y]))
    perp_module(W)
    table = ctx.sort_key(_smallest_first).__self__
    filled = len(table)
    assert filled > 0
    perp_module(W)
    assert ctx.sort_key(_smallest_first).__self__ is table and len(table) == filled
    assert ctx.dual.sort_key(_smallest_first).__self__ is table


def _artinian_cases():
    """The kernel cases, local ones untruncated, and quotients at N = 1."""
    out = list(_kernel_cases())
    rng = random.Random(18)
    for t in range(8):
        n = rng.choice([2, 3])
        ctx = context_from_names(
            ",".join(f"x{i}" for i in range(n)), field=rng.choice(["Q", f"F{P}"]), mode="local"
        )
        gens = [_random_poly(ctx, rng, 3, rng.choice([2, 3])) for _ in range(2)]
        gens += [ctx.variable(i) ** rng.choice([2, 3]) + _random_poly(ctx, rng, 4, 1) for i in range(n)]
        out.append((f"local{t}", Ideal(ctx, gens)))
    for mode, second in (("graded", "y"), ("local", "y - 3*x^2")):
        ctx = context_from_names("x,y", mode=mode)
        out.append((f"N=1 {mode}", Ideal(ctx, [ctx.parse("x + y^2"), ctx.parse(second)])))
    return out


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_hilbert_profile_matches_the_rank_walk(order):
    bounds = set()
    for name, ideal in _artinian_cases():
        J, N = artinian_form(ideal, order)
        _, nf, _, _ = _dense_quotient(J, order, N)
        walk = [[nf[e] for e in ideal.ring.exponents_of_degree(k)] for k in range(N)]
        expected = hilbert_rank_walk(walk, None if ideal.ring.field.name == "Q" else P)
        assert hilbert_data(ideal, order).values == expected, name
        assert len(expected) == N, name
        bounds.add(N)
    assert {0, 1, 2, 3} < bounds  # the unit ideal and N = 1 among them


def test_hilbert_profile_inserts_only_the_stored_rows(monkeypatch):
    inserted = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, vec: inserted.append(vec) or insert(self, vec))
    for name, ideal in _artinian_cases():
        J, _ = artinian_form(ideal)
        aq = J.quotient()
        del inserted[:]
        hilbert_data(ideal)
        assert inserted == list(aq.rows.values()), name


def _socle_by_colon(ideal, order):
    """(J : m)/J by the elimination colon, reduced to echelon residues."""
    J, _ = artinian_form(ideal, order)
    ring = ideal.ring
    colon = ideal_colon(J, Ideal(ring, [ring.variable(i) for i in range(ring.nvars)]), order)
    aq = J.quotient(order)
    ech = Echelon(ring.field, ring.order_key(order)).extend(aq.nf_vector(g) for g in colon.gens)
    return [ring.from_terms(row) for row in ech.basis()]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_socle_matches_the_elimination_colon(order):
    types = set()
    for name, ideal in _artinian_cases():
        socle = socle_basis(ideal, order)
        assert socle == _socle_by_colon(ideal, order), name
        types.add(len(socle))
    assert {0, 1} < types and max(types) > 2
