import itertools
import random
import warnings
from fractions import Fraction

import pytest

import invsys.duality as duality
import invsys.groebner as groebner
from invsys import Ideal, context_from_names, hilbert_data
from invsys.duality import (
    DualModule,
    contract,
    contract_exp,
    dual_pairing,
    minimal_cogenerators,
    perp_ideal,
    perp_module,
    socle_basis,
    verify_closed,
)
from invsys.groebner import ArtinianQuotient
from invsys.limitsys import dual_tower, grid, section_lift
from invsys.linalg import nullspace
from invsys.ring import GREVLEX, Polynomial, e_divides, e_sub

from conftest import stage_closure
from oracles import brute_perp, equal_as_artinian


@pytest.fixture
def ctx2():
    return context_from_names("x,y")


def spans_equal(W, elements):
    other = DualModule(W.ring, W.degbound, elements)
    return W.basis == other.basis


def test_contract_monomial_rule():
    ctx = context_from_names("x1,x2")
    d = ctx.dual
    assert contract(ctx.variable(0), d.monomial((2, 0))) == d.monomial((1, 0))
    assert contract(ctx.variable(0), d.monomial((0, 2))).is_zero()


def test_contract_unit_acts_as_identity(ctx2):
    F = ctx2.dual.parse("X^2*Y + X - 3")
    assert contract(ctx2.one(), F) == F


def test_contract_termwise(ctx2):
    F = ctx2.dual.parse("X^2*Y + X")
    assert contract(ctx2.parse("x*y"), F) == ctx2.dual.parse("X")


def test_contract_is_module_action(ctx2):
    rng = random.Random(2)
    exps = [e for e in ctx2.exponents_upto(3)]
    dual = ctx2.dual
    for _ in range(25):
        p = sum((ctx2.monomial(rng.choice(exps), rng.randint(-2, 2)) for _ in range(2)), ctx2.zero())
        q = sum((ctx2.monomial(rng.choice(exps), rng.randint(-2, 2)) for _ in range(2)), ctx2.zero())
        F = sum((dual.monomial(rng.choice(exps), rng.randint(-2, 2)) for _ in range(3)), dual.zero())
        assert contract(p * q, F) == contract(p, contract(q, F))


def test_perp_of_maximal_ideal(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    W = perp_ideal(Ideal(ctx2, [x, y]))
    assert [F.render() for F in W.basis] == ["1"]


def test_perp_square_of_maximal(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    W = perp_ideal(Ideal(ctx2, [x ** 2, x * y, y ** 2]))
    dual = ctx2.dual
    assert spans_equal(W, [dual.parse("1"), dual.parse("X"), dual.parse("Y")])


def test_perp_matches_bruteforce_oracle(ctx2):
    rng = random.Random(9)
    x, y = ctx2.variable(0), ctx2.variable(1)
    candidates = [
        [x ** 2, x * y, y ** 2],
        [x ** 3, y ** 2],
        [x ** 2 + y, y ** 3],
        [x ** 2 - y ** 2, x * y ** 2, y ** 4],
    ]
    for _ in range(4):
        D = rng.choice([2, 3])
        gens = [ctx2.monomial(e) for e in ctx2.exponents_of_degree(D)]
        gens.append(ctx2.monomial((1, 0), rng.randint(1, 2)) + ctx2.monomial((0, 1), rng.randint(-2, -1)))
        candidates.append(gens)
    for gens in candidates:
        I = Ideal(ctx2, gens)
        W = perp_ideal(I)
        oracle = brute_perp([{e: Fraction(c) for e, c in g.terms.items()} for g in gens], 2, W.degbound)
        dual = ctx2.dual
        oracle_W = DualModule(ctx2, W.degbound, [dual.from_terms(v) for v in oracle])
        assert W.basis == oracle_W.basis


def test_perp_degbound_validation(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    I = Ideal(ctx2, [x ** 2, x * y, y ** 2])
    with pytest.raises(ValueError):
        perp_ideal(I, degbound=0)


def test_perp_curve_first_stage(curve):
    ctx, I = curve
    W = perp_ideal(I.plus([ctx.variable(0)]))
    dual = ctx.dual
    expected = DualModule.generate(ctx, [dual.parse("Y^3"), dual.parse("Z^2")])
    assert W.equals(expected)


def test_perp_module_of_unit_dual(ctx2):
    W = perp_ideal(Ideal(ctx2, [ctx2.variable(0), ctx2.variable(1)]))
    A = perp_module(W)
    assert A.equals(Ideal(ctx2, [ctx2.variable(0), ctx2.variable(1)]))


def test_perp_module_zero_module_warns(ctx2):
    W = DualModule(ctx2, 0, [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        A = perp_module(W)
    assert caught and A.is_unit()


def test_perp_module_principal_closed_form():
    ctx = context_from_names("y,z")
    dual = ctx.dual
    for m in range(1, 5):
        W = DualModule.generate(ctx, [dual.parse(f"Y*Z^{m - 1}" if m > 1 else "Y")])
        A = perp_module(W)
        expected = Ideal(ctx, [ctx.variable(0) ** 2, ctx.variable(1) ** m])
        assert equal_as_artinian(A, expected)
        # double perp returns the original module
        assert perp_ideal(A, degbound=W.degbound).equals(W)


def test_double_perp_random(ctx2):
    rng = random.Random(21)
    x, y = ctx2.variable(0), ctx2.variable(1)
    for _ in range(6):
        D = rng.choice([2, 3, 4])
        gens = [ctx2.monomial(e) for e in ctx2.exponents_of_degree(D)]
        gens.append(x ** rng.randint(1, D) + rng.randint(-2, 2) * y)
        I = Ideal(ctx2, gens)
        W = perp_ideal(I)
        assert equal_as_artinian(perp_module(W), I)
        assert W.dim == hilbert_data(I).length


def test_perp_module_curve_stage_one(curve):
    ctx, I = curve
    dual = ctx.dual
    W1 = DualModule.generate(ctx, [dual.parse("Y^3"), dual.parse("Z^2")])
    A = perp_module(W1)
    assert equal_as_artinian(A, I.plus([ctx.variable(0)]))


def test_antitone_lattice_laws(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    from invsys import ideal_intersect

    I = Ideal(ctx2, [x ** 2, y ** 2])
    J = Ideal(ctx2, [x ** 3, x * y, y ** 3])
    bound = max(perp_ideal(I).degbound, perp_ideal(J).degbound)
    WI = perp_ideal(I, degbound=bound)
    WJ = perp_ideal(J, degbound=bound)
    Wsum = perp_ideal(I.plus(J), degbound=bound)
    assert Wsum.equals(WI.intersect(WJ))
    Wmeet = perp_ideal(ideal_intersect(I, J), degbound=bound)
    assert Wmeet.equals(WI.sum_with(WJ))


def test_socle_examples(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    reps = socle_basis(Ideal(ctx2, [x ** 2, y]))
    assert [p.render() for p in reps] == ["x"]


def test_socle_curve_stages(curve):
    ctx, I = curve
    x = ctx.variable(0)
    from invsys.groebner import ArtinianQuotient, artinian_form
    from invsys.linalg import Echelon
    from invsys.ring import GREVLEX

    claims = {
        1: ["z^2", "y^3"],
        2: ["x*z^2", "x*y^3"],
        3: ["x^2*z^2", "x^2*y^3"],
    }
    for m, claimed in claims.items():
        Im = I.plus([x ** m])
        reps = socle_basis(Im)
        assert len(reps) == 2
        J, _ = artinian_form(Im)
        aq = ArtinianQuotient(J)
        ours = Echelon(ctx.field, GREVLEX.key)
        for p in reps:
            ours.insert(aq.nf_vector(p))
        for s in claimed:
            assert ours.contains(aq.nf_vector(ctx.parse(s)))


def test_minimal_cogenerators(ctx2):
    x, y = ctx2.variable(0), ctx2.variable(1)
    W = perp_ideal(Ideal(ctx2, [x ** 2, x * y, y ** 2]))
    cogs = minimal_cogenerators(W)
    assert sorted(F.render() for F in cogs) == ["X", "Y"]


def test_minimal_cogenerators_principal():
    ctx = context_from_names("y,z")
    W = DualModule.generate(ctx, [ctx.dual.parse("Y*Z^2")])
    cogs = minimal_cogenerators(W)
    assert [F.render() for F in cogs] == ["Y*Z^2"]


def test_cogenerator_count_is_type(ctx2):
    rng = random.Random(31)
    for _ in range(5):
        D = rng.choice([2, 3])
        gens = [ctx2.monomial(e) for e in ctx2.exponents_of_degree(D)]
        gens.append(ctx2.variable(0) + rng.randint(-1, 1) * ctx2.variable(1))
        I = Ideal(ctx2, [g for g in gens if g])
        assert len(minimal_cogenerators(perp_ideal(I))) == len(socle_basis(I))


def test_curve_cogenerators_span_socle_dual(curve):
    ctx, I = curve
    W1 = perp_ideal(I.plus([ctx.variable(0)]))
    cogs = minimal_cogenerators(W1)
    assert len(cogs) == 2
    dual = ctx.dual
    target = DualModule(ctx, 3, [dual.parse("Y^3"), dual.parse("Z^2")])
    mW = DualModule(ctx, 3, [
        contract(ctx.variable(i), F) for F in W1.basis for i in range(4)
    ])
    # cogenerators span the same space as {Y^3, Z^2} modulo contractions
    joined = DualModule(ctx, 3, list(mW.basis) + [dual.parse("Y^3"), dual.parse("Z^2")])
    joined2 = DualModule(ctx, 3, list(mW.basis) + list(cogs))
    assert joined.basis == joined2.basis


def test_perp_top_degree_is_socle_degree(ctx2, curve):
    # max deg of the inverse system equals the socle degree of the quotient
    rng = random.Random(8)
    x, y = ctx2.variable(0), ctx2.variable(1)
    samples = [
        Ideal(ctx2, [x ** 2, x * y, y ** 2]),
        Ideal(ctx2, [x ** 3, y ** 2]),
        Ideal(ctx2, [x ** 2 + y, y ** 3]),
    ]
    for I in samples:
        assert perp_ideal(I).max_degree() == hilbert_data(I).socle_degree
    ctx, I = curve
    for m in (1, 2, 3):
        Im = I.plus([ctx.variable(0) ** m])
        assert perp_ideal(Im).max_degree() == hilbert_data(Im).socle_degree == m + 2


def test_pairing_adjointness(ctx2):
    rng = random.Random(4)
    dual = ctx2.dual
    exps = list(ctx2.exponents_upto(3))
    for _ in range(20):
        p = ctx2.monomial(rng.choice(exps), rng.randint(-2, 2))
        q = ctx2.monomial(rng.choice(exps), rng.randint(-2, 2))
        F = dual.monomial(rng.choice(exps), rng.randint(-2, 2))
        assert dual_pairing(p * q, F) == dual_pairing(p, contract(q, F))



def _pairing_perp_module(W):
    """Reference annihilator: the pairing conditions <x^u, x^w . F> = 0 over
    a minimal generating set of W, solved by nullspace with smallest-monomial
    pivots; the kernel vectors with divisibility-minimal leads are kept."""
    ring = W.ring
    B = W.degbound
    columns = list(ring.exponents_upto(B))
    rows = {}
    for fi, F in enumerate(minimal_cogenerators(W)):
        for m, c in F.terms.items():
            for u in columns:
                if e_divides(u, m):
                    rows.setdefault((fi, e_sub(m, u)), {})[u] = c
    key = GREVLEX.key
    smallest_first = lambda e: (-sum(e), tuple(reversed(e)))  # reversed GREVLEX
    kernel = nullspace(ring.field, list(rows.values()), columns, smallest_first)
    kernel.sort(key=lambda v: key(max(v, key=key)))
    kept, kept_lms = [], []
    for vec in kernel:
        lm = max(vec, key=key)
        if not any(e_divides(m, lm) for m in kept_lms):
            kept.append(Polynomial(ring, vec))
            kept_lms.append(lm)
    return Ideal(ring, kept, trunc=B + 1)


def _random_duals(ctx, rng, D, count):
    exps = list(ctx.exponents_upto(D))
    top = list(ctx.exponents_of_degree(D))
    out = []
    for _ in range(count):
        F = ctx.dual.monomial(rng.choice(top), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(0, 3)):
            F = F + ctx.dual.monomial(rng.choice(exps), rng.choice([-2, -1, 1, 3]))
        out.append(F)
    return out


def _perp_module_cases(curve_H9):
    """(name, module, within contract) over stage modules and random modules."""
    cases = [(f"curve{k}", curve_H9.module_at((k,)), True) for k in (1, 4, 9)]
    ctx = context_from_names("y0,y1,z0,z1", zvars="z0,z1")
    I = Ideal(ctx, [ctx.parse("y0^3 - 2*y1^2*z0 - y1*z0*z1"), ctx.parse("y1^2")])
    H = section_lift(dual_tower(I, 3))
    cases += [(f"ci{m}", H.module_at(m), True) for m in grid(2, 3)]
    rng = random.Random(41)
    for t in range(8):
        ctx = context_from_names(",".join(f"x{i}" for i in range(rng.choice([2, 3]))))
        D = rng.choice([2, 3, 4])
        elems = _random_duals(ctx, rng, D, rng.choice([1, 2]))
        cases += [
            (f"closed{t}", DualModule.generate(ctx, elems), True),
            (f"closed-wide{t}", DualModule.generate(ctx, elems, degbound=D + 1), True),
            (f"open{t}", DualModule(ctx, D, elems), True),
            (f"closed-above{t}", DualModule.generate(ctx, elems, degbound=D - 1), False),
            (f"open-above{t}", DualModule(ctx, D - 1, elems), False),
        ]
    return cases


def test_perp_module_matches_pairing_reference(curve_H9, monkeypatch):
    built = []
    init = ArtinianQuotient.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ArtinianQuotient, "__init__", counted)
    for name, W, within in _perp_module_cases(curve_H9):
        assert (W.max_degree() <= W.degbound) == within, name
        new, old = perp_module(W), _pairing_perp_module(W)
        assert new.gens == old.gens and new.trunc == old.trunc, name
        del built[:]
        assert new.groebner() == old.groebner(), name
        # only a module within the contract hands its kernel over
        assert len(built) == (1 if within else 2), name
        if within:
            fresh = ArtinianQuotient(Ideal(W.ring, new.gens, trunc=new.trunc))
            assert new.quotient().rows == fresh.rows, name
            assert new.quotient().std == fresh.std, name


def _ci_d2_ideal():
    ctx = context_from_names("y0,y1,z0,z1", zvars="z0,z1")
    return Ideal(ctx, [ctx.parse("y0^3 - 2*y1^2*z0 - y1*z0*z1"), ctx.parse("y1^2")])


def _closed_modules(curve, curve_H9):
    """(name, module) for every way a module is known closed."""
    ctx, I = curve
    H_ci = section_lift(dual_tower(_ci_d2_ideal(), 3))
    stages = [(f"curve{k}", curve_H9, (k,)) for k in (1, 5, 9)]
    stages += [(f"ci{m}", H_ci, m) for m in grid(2, 3)]
    out = [(name, H.module_at(m)) for name, H, m in stages]
    out += [(f"{name}-closure", stage_closure(H, m)) for name, H, m in stages]
    dual = ctx.dual
    generated = DualModule.generate(ctx, [dual.parse("Y^3*X^2 + Z^2*W"), dual.parse("Z^3")])
    out.append(("generate", generated))
    out.append(("contract_by", generated.contract_by((1, 0, 0, 0))))
    out.append(("perp_ideal", perp_ideal(I.plus([ctx.variable(0) ** 3]))))
    tower = dual_tower(_ci_d2_ideal(), 3)
    out += [(f"tower{m}", tower.stage(m)) for m in ((1, 1), (3, 3), (2, 3), (1, 2))]
    return out


@pytest.fixture
def contractions(monkeypatch):
    """A list that grows by one on every duality._contract_var call."""
    calls = []
    contract_var = duality._contract_var

    def counted(i, terms):
        calls.append(i)
        return contract_var(i, terms)

    monkeypatch.setattr(duality, "_contract_var", counted)
    return calls


def test_closed_modules_skip_the_closure(curve, curve_H9, contractions):
    for name, W in _closed_modules(curve, curve_H9):
        assert W._closed, name
        open_copy = DualModule(W.ring, W.degbound, W.basis)
        assert not open_copy._closed
        expected = perp_module(open_copy)
        assert contractions, name  # the open copy ran the closure
        del contractions[:]
        A = perp_module(W)
        assert contractions == [], name
        assert A.gens == expected.gens and A.trunc == expected.trunc, name
        assert A.quotient().rows == expected.quotient().rows, name


def test_modules_from_arbitrary_elements_keep_the_closure(ctx2, contractions):
    dual = ctx2.dual
    F, G = dual.parse("X^2*Y + Y^2"), dual.parse("X^3 - X*Y")
    A, B = DualModule.generate(ctx2, [F]), DualModule.generate(ctx2, [G])
    assert A._closed and B._closed
    for name, W in [
        ("elements", DualModule(ctx2, 3, [F, G])),
        ("sum_with", A.sum_with(B)),
        ("intersect", A.intersect(B)),
        ("contract_by of open", DualModule(ctx2, 3, [F]).contract_by((1, 0))),
    ]:
        assert not W._closed, name
        del contractions[:]
        perp_module(W)
        assert contractions, name


def test_failed_closure_check_leaves_the_module_open(ctx2):
    W = DualModule(ctx2, 3, [ctx2.dual.parse("X^2*Y")])
    with pytest.raises(AssertionError):
        verify_closed(W)
    assert not W._closed


def test_generate_keeps_the_closure_echelon(curve_H9):
    # generate hands its closure's rows over as they are: they must be the
    # basis a fresh echelon gives, of those rows and of every contraction
    H_ci = section_lift(dual_tower(_ci_d2_ideal(), 5))
    for H in (curve_H9, H_ci):
        top = (H.bound,) * H.d
        W = DualModule.generate(H.ring, H.family[top])
        assert W._closed
        assert W.basis == DualModule(H.ring, W.degbound, W.basis).basis, top
        images = [contract_exp(e, F) for F in H.family[top] for e in H.ring.exponents_upto(W.degbound)]
        assert W.basis == DualModule(H.ring, W.degbound, images).basis, top


def test_contract_by_matches_termwise_contraction(curve_H9):
    # contract_by tests and shifts only the slots where the exponent is
    # nonzero; its basis must be the canonical echelon basis of the
    # termwise images, for zero, one-slot and many-slot exponents
    H_ci = section_lift(dual_tower(_ci_d2_ideal(), 3))
    for W in [curve_H9.module_at((5,)), stage_closure(curve_H9, (5,)), H_ci.module_at((3, 3))]:
        ctx = W.ring
        for e in itertools.product(range(3), repeat=ctx.nvars):
            got = W.contract_by(e)
            images = [
                Polynomial(ctx.dual, {e_sub(m, e): b for m, b in F.terms.items() if e_divides(e, m)})
                for F in W.basis
            ]
            expected = DualModule(ctx, max(W.degbound - sum(e), 0), images)
            assert (got.basis, got.degbound) == (expected.basis, expected.degbound), e
