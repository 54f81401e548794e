"""The truncation bound read off lead monomials, against the degree scan.

groebner._lead_bound reads N, the least degree with m^N inside the ideal,
off the leads of a standard basis by slicing their monomial ideal one
variable at a time (groebner._top_degree), with no degree scanned.  Every
result here must be what the scan of tests/oracles.py gives on the same
leads: on seeded random lead sets, on the leads that _graded_bound and
_local_form's Lazard path hand over, and on two sets where the scan is
slow.  The cost is bounded by counting the recursive calls.
"""

import random

import pytest

from invsys import GREVLEX, LEX, Ideal, artinian_bound, context_from_names
from invsys import groebner
from invsys.errors import TruncationLimitError, UnboundedQuotientError

from oracles import lead_bound_scan, monomials_upto

P = 32003


def _ring(n, **kw):
    return context_from_names(",".join(f"x{i}" for i in range(n)), **kw)


def _outcome(fn, *args):
    """fn's value, or the name lead_bound_scan gives its failure."""
    try:
        return fn(*args)
    except TruncationLimitError:
        return "ceiling"
    except UnboundedQuotientError:
        return "unbounded"


def _lead_sets():
    """Seeded (nvars, leads, ceiling): a pure power of every variable, other
    monomials, multiples of the leads and a repeat; some sets lose their
    pure powers of one variable, some gain the unit lead."""
    rng = random.Random(20)
    out = []
    for t in range(160):
        n = rng.randint(1, 5)
        top = {1: 12, 2: 8, 3: 6, 4: 4, 5: 3}[n]
        powers = [tuple(rng.randint(1, top) if j == i else 0 for j in range(n)) for i in range(n)]
        others = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        lms = powers + [e for e in others if any(e)]
        lms += [tuple(a + rng.randint(0, 2) for a in rng.choice(lms)) for _ in range(rng.randint(0, 3))]
        lms.append(rng.choice(lms))
        if t % 8 == 0:
            i = rng.randrange(n)
            lms = [e for e in lms if e[i] != sum(e)]
        elif t % 8 == 1:
            lms.append((0,) * n)
        rng.shuffle(lms)
        out.append((n, lms, rng.choice([2, 4, 8, 64])))
    return out


def test_lead_bound_matches_the_degree_scan():
    outcomes = set()
    for n, lms, ceiling in _lead_sets():
        got = _outcome(groebner._lead_bound, _ring(n), lms, ceiling)
        assert got == lead_bound_scan(lms, n, ceiling), (lms, ceiling)
        outcomes.add(got)
    assert {0, "unbounded", "ceiling"} < outcomes and len(outcomes) > 10


@pytest.fixture
def handed(monkeypatch):
    """Every (nvars, leads, ceiling, inside, outcome) _lead_bound is given."""
    seen = []
    lead_bound = groebner._lead_bound

    def spy(ring, lms, ceiling, inside=None):
        got = _outcome(lead_bound, ring, lms, ceiling, inside)
        seen.append((ring.nvars, list(lms), ceiling, inside, got))
        return lead_bound(ring, lms, ceiling, inside)

    monkeypatch.setattr(groebner, "_lead_bound", spy)
    return seen


def _random_poly(ctx, rng, lo, hi, nterms):
    exps = [e for e in monomials_upto(ctx.nvars, hi) if sum(e) >= lo]
    return ctx.from_terms({rng.choice(exps): rng.choice([1, -1, 2, -3]) for _ in range(nterms)})


def _bound_cases(mode):
    """Seeded (ideal, order, ceiling) over Q and F_32003 in 1-4 variables.

    Graded ideals are homogeneous or not; most carry a pure power of every
    variable, the rest may be positive-dimensional.
    """
    rng = random.Random(21 if mode == "graded" else 22)
    out = []
    for t in range(48):
        n = rng.randint(1, 4)
        ctx = _ring(n, field=rng.choice(["Q", f"F{P}"]), mode=mode)
        d = rng.randint(1, 3)
        homogeneous = mode == "graded" and t % 2 == 0
        gens = [
            _random_poly(ctx, rng, d if homogeneous else 1, d, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        if t % 4 != 3:
            for i in range(n):
                k = rng.randint(2, 4)
                tail = _random_poly(ctx, rng, k, k, 1) if homogeneous else _random_poly(ctx, rng, k + 1, k + 2, 1)
                gens.append(ctx.variable(i) ** k + tail)
        out.append((Ideal(ctx, gens), rng.choice([GREVLEX, LEX]), rng.choice([3, 6, 12])))
    return out


@pytest.mark.parametrize("mode", ["graded", "local"])
def test_graded_and_lazard_leads_match_the_degree_scan(mode, handed):
    outcomes = set()
    for ideal, order, ceiling in _bound_cases(mode):
        del handed[:]
        got = _outcome(artinian_bound, ideal, order, ceiling)
        (n, lms, limit, inside, value), = handed
        assert (got, limit) == (value, ceiling), ideal
        assert value == lead_bound_scan(lms, n, ceiling, inside), ideal
        homogeneous = all(len({sum(e) for e in g.terms}) == 1 for g in ideal.gens)
        assert (inside is None) is (mode == "local" or homogeneous), ideal
        outcomes.add(got)
    assert {"unbounded", "ceiling"} < outcomes and len(outcomes) > 5


@pytest.fixture
def top_calls(monkeypatch):
    calls = []
    top_degree = groebner._top_degree
    monkeypatch.setattr(groebner, "_top_degree", lambda lms: calls.append(1) or top_degree(lms))
    return calls


@pytest.mark.parametrize("mode", ["graded", "local"])
def test_pure_powers_read_without_scanning_their_degrees(mode, top_calls):
    # the scan tried 237 degrees; the slices take one call per variable
    ctx = _ring(4, mode=mode)
    gens = [ctx.variable(i) ** 60 for i in range(4)]
    assert artinian_bound(Ideal(ctx, gens), ceiling=240) == 237
    assert len(top_calls) <= 2 * len(gens)
    with pytest.raises(TruncationLimitError):
        artinian_bound(Ideal(ctx, gens), ceiling=64)


def test_a_power_of_the_maximal_ideal_costs_two_calls_per_lead(top_calls):
    ctx = _ring(4)
    lms = list(ctx.exponents_of_degree(20))
    assert len(lms) == 1771
    assert groebner._lead_bound(ctx, lms, 64) == 20
    assert len(top_calls) <= 2 * len(lms)
