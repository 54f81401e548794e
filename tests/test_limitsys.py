import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import invsys.limitsys as limitsys
from invsys import Ideal, PipelineError, artinian_form, context_from_names
from invsys.duality import (
    DualModule,
    _perp_echelon,
    contract_exp,
    minimal_cogenerators,
    perp_ideal,
    perp_module,
    verify_closed,
)
from invsys.io import parse_ideal_file
from invsys.limitsys import (
    LimitInverseSystem,
    VSpace,
    artinian_reduction,
    diag,
    dual_tower,
    grid,
    reconstruct,
    section_lift,
    verify_lis,
)
from invsys.linalg import intersect_spans
from invsys.ring import GREVLEX, LEX, Polynomial, e_unit

from conftest import (
    DATA,
    non_free_family,
    non_free_family_d2,
    random_polynomial,
    stage_closure,
    theorem_class_suite,
    top_family,
)
from oracles import (
    equal_as_artinian,
    free_rank_by_socle,
    lift_by_solve,
    vspace_perp_generators,
    vspace_slice_exponents,
)


@pytest.fixture
def band():
    ctx = context_from_names("y,z", zvars="z")
    return ctx, Ideal(ctx, [ctx.variable(0) ** 2])


@pytest.fixture(scope="module")
def ci_d2():
    """A graded complete intersection with a two-variable z-block and z-tails."""
    ctx = context_from_names("y0,y1,z0,z1", zvars="z0,z1")
    return ctx, Ideal(ctx, [ctx.parse("y0^3 - 2*y1^2*z0 - y1*z0*z1"), ctx.parse("y1^2")])


def mutated_families(H):
    """The band family with a zeroed middle stage, a degree-inflated element
    and an incompatible top stage."""
    ctx = H.ring
    zeroed = dict(H.family)
    zeroed[(2,)] = (ctx.dual.zero(),)
    inflated = dict(H.family)
    inflated[(2,)] = (inflated[(2,)][0] + ctx.dual.parse("Y*Z^3"),)
    incompat = dict(H.family)
    incompat[(3,)] = (ctx.dual.parse("Z^2"),)
    return [LimitInverseSystem(ctx, H.d, H.r, H.s, H.bound, fam) for fam in (zeroed, inflated, incompat)]


def test_artinian_reduction_examples(band):
    ctx, I = band
    red = artinian_reduction(I, (3,))
    assert red.equals(Ideal(ctx, [ctx.parse("y^2"), ctx.parse("z^3")]))


def test_artinian_reduction_zero_ideal():
    ctx = context_from_names("z1,z2", zvars="z1,z2")
    red = artinian_reduction(Ideal(ctx, []), (2, 2))
    assert red.equals(Ideal(ctx, [ctx.parse("z1^2"), ctx.parse("z2^2")]))


def test_artinian_reduction_curve(curve):
    ctx, I = curve
    red = artinian_reduction(I, (1,))
    assert any(g == ctx.variable(0) for g in red.gens)


def test_artinian_reduction_bad_index(band):
    ctx, I = band
    with pytest.raises(PipelineError):
        artinian_reduction(I, (1, 1))
    with pytest.raises(PipelineError):
        artinian_reduction(I, (0,))


@pytest.mark.parametrize("B", [0, -1])
def test_dual_tower_rejects_bound_below_one(curve, B):
    ctx, I = curve
    with pytest.raises(PipelineError, match="at least 1"):
        dual_tower(I, B)


def test_artinian_reduction_nonartinian():
    # z-block of the wrong size: the reduction stays positive-dimensional
    ctx = context_from_names("a,b,z", zvars="z")
    I = Ideal(ctx, [ctx.variable(0) ** 2])  # dim 2 quotient, z-block too small
    with pytest.raises(PipelineError):
        artinian_reduction(I, (1,), ceiling=12)


def test_dual_tower_closed_form(band):
    ctx, I = band
    tower = dual_tower(I, 3)
    dual = ctx.dual
    for m in range(1, 4):
        s = "Y" if m == 1 else f"Y*Z^{m - 1}"
        expected = DualModule.generate(ctx, [dual.parse(s)])
        assert tower.stage((m,)).equals(expected)


def test_dual_tower_builds_the_diagonal_before_it_returns(ci_d2, curve, monkeypatch):
    # dual_tower itself runs stage one's reduction, which gives s and the
    # length, and the top stage's reduction, reads the top stage's perp rows
    # once, with no perp_ideal module, and holds the B diagonal chains, each
    # a shift of the top one; section_lift reads them and builds no stage
    # from a reduction, no stage is met out of another, and every stage is
    # the perp of its own reduction
    calls = {"perp_ideal": 0, "_perp_rows": 0, "artinian_reduction": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("coordinate_meet called")

    for (ctx, I), B in [(ci_d2, 3), (curve, 5)]:
        d = len(ctx.zindices)
        low = (0,) + (1,) * (d - 1)
        for order in (GREVLEX, LEX):
            monkeypatch.setattr(limitsys, "perp_ideal", counted("perp_ideal", perp_ideal))
            monkeypatch.setattr(limitsys, "_perp_rows", counted("_perp_rows", limitsys._perp_rows))
            monkeypatch.setattr(
                limitsys, "artinian_reduction", counted("artinian_reduction", artinian_reduction)
            )
            monkeypatch.setattr(limitsys, "coordinate_meet", forbidden)
            calls.update(perp_ideal=0, _perp_rows=0, artinian_reduction=0)
            tower = dual_tower(I, B, order, trust_regular=True)
            assert calls == {"perp_ideal": 0, "_perp_rows": 1, "artinian_reduction": 2}
            assert sorted(tower.modules) == [diag(d, k) for k in range(1, B + 1)]
            section_lift(tower)
            assert calls == {"perp_ideal": 0, "_perp_rows": 1, "artinian_reduction": 2}
            monkeypatch.undo()
            for m in grid(d, B):
                W = tower.stage(m)
                J, N = artinian_form(artinian_reduction(I, m))
                expected = perp_ideal(J, degbound=N - 1)
                assert (W.basis, W.degbound) == (expected.basis, expected.degbound), (m, order)
            with pytest.raises(KeyError):
                tower.stage(low)


def test_local_top_stage_is_certified_by_its_length(curve, monkeypatch):
    # the curve's top reduction reaches B times the length of stage one at
    # truncation N_top = B + s, one degree below Nakayama's certificate, and
    # its one kernel is built there, after stage one's; on a z-block that is
    # not regular (<y^2, y*z>, taken on trust) the length falls short,
    # Nakayama certifies the same one kernel, and dual_tower refuses the top
    # stage with both lengths before building any other stage
    import invsys.groebner as groebner

    built = []
    init = groebner.ArtinianQuotient.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.N)

    monkeypatch.setattr(groebner.ArtinianQuotient, "__init__", counted)
    I, B = curve[1], 9
    tower = dual_tower(I, B, trust_regular=True)
    assert built == [4, 12]
    J, N = artinian_form(artinian_reduction(I, (B,)))
    assert tower.stage((B,)).basis == perp_ideal(J, degbound=N - 1).basis

    ctx = context_from_names("y,z", mode="local", zvars="z")
    zero_divisor = Ideal(ctx, [ctx.parse("y^2"), ctx.parse("y*z")])
    del built[:]
    with pytest.raises(PipelineError, match=r"^the reduction at \(3,\) has length 4, short of 3\^1 "
                       r"times the length 2 at \(1,\); the z-block is not a regular sequence"):
        dual_tower(zero_divisor, 3, trust_regular=True)
    assert built == [2, 4]


def _tower_family(name):
    """(ideal, bound) of each tower family the tests build."""
    if name == "curve":
        return parse_ideal_file((DATA / "example.ideal").read_text())[1], 9
    if name.startswith("ci-d2"):
        field = "fp:32003" if name.endswith("fp") else "q"
        ctx = context_from_names("y0,y1,z0,z1", field=field, zvars="z0,z1")
        gens = ["y0^3 - 2*y1^2*z0 - y1*z0*z1", "y1^2"]
        return Ideal(ctx, [ctx.parse(g) for g in gens]), 5
    if name.startswith("d3"):
        field = "fp:32003" if name.endswith("fp") else "q"
        ctx = context_from_names("y0,y1,z0,z1,z2", field=field, zvars="z0,z1,z2")
        gens = ["y0^2 + y0*z0 - y1*z1", "y1^2 - y0*z2 + z0*z1"]
        return Ideal(ctx, [ctx.parse(g) for g in gens]), 3
    if name == "band":
        ctx = context_from_names("y,z", zvars="z")
        return Ideal(ctx, [ctx.parse("y^2")]), 3
    if name == "rnc4":
        return parse_ideal_file((DATA / "rnc4.ideal").read_text())[1], 3
    # z = y^2 in K[[y]]: a free tower whose socle degree grows by two per
    # stage, so each stage's own bound is not its contraction's shifted one
    ctx = context_from_names("y,z", mode="local", zvars="z")
    return Ideal(ctx, [ctx.parse("y^2 - z")]), 3


TOWER_FAMILIES = ("curve", "ci-d2", "ci-d2 fp", "band", "d3", "d3 fp")


@pytest.mark.parametrize("name", ("curve", "ci-d2", "d3"))
def test_a_lex_tower_builds_only_grevlex_kernels(name, monkeypatch):
    # lengths, bounds and W_top's span do not depend on the order, so the
    # limit pipeline in LEX builds every kernel in GREVLEX: the order enters
    # only at the chain key and the lift
    import invsys.groebner as groebner

    orders = []
    init = groebner.ArtinianQuotient.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        orders.append(self.order)

    monkeypatch.setattr(groebner.ArtinianQuotient, "__init__", recorded)
    I, B = _tower_family(name)
    tower = dual_tower(I, B, LEX)
    assert verify_lis(section_lift(tower)).passed
    assert tower.order == LEX
    assert orders and set(orders) == {GREVLEX}


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES + ("y2-z",))
def test_tower_stages_are_closed_by_construction(name, order):
    # no stage is checked for closure when it is built: the top stage is a
    # perp_ideal output and every other stage is a contraction of it; each
    # must be the perp of its own reduction, with its bound, pass the
    # closure oracle and be marked closed
    I, B = _tower_family(name)
    d = len(I.ring.zindices)
    tower = dual_tower(I, B, order)
    for m in grid(d, B):
        J, N = artinian_form(artinian_reduction(I, m))
        expected = perp_ideal(J, degbound=N - 1)
        W = tower.stage(m)
        assert (W.basis, W.degbound) == (expected.basis, expected.degbound), m
        assert W._closed, m
        verify_closed(W)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES)
def test_section_lift_hands_the_tower_top_to_the_family(name, order):
    # the tower certified W_top free, so H_top generates it, and the family
    # holds the tower's chains, whether the z-block was checked or taken on
    # trust: its top module is the tower's top stage, built from the chain
    I, B = _tower_family(name)
    tower = dual_tower(I, B, order)
    H = section_lift(tower)
    top = diag(tower.d, B)
    W = H.module_at(top)
    generated = DualModule.generate(H.ring, H.family[top], degbound=sum(top) + H.s - H.d)
    assert (W.basis, W.degbound) == (generated.basis, generated.degbound)
    assert H._tower is tower and H.module_at(top) is W
    trusted_tower = dual_tower(I, B, order, trust_regular=True)
    trusted = section_lift(trusted_tower)
    assert trusted.family == H.family
    assert trusted._tower is trusted_tower
    assert trusted.module_at(top).basis == W.basis


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES + ("y2-z",))
def test_section_lift_matches_the_solve_in_span_lift(name, order):
    # each lift, the normal form of one chain lift modulo the kernel of
    # z_1...z_d, is the one solve_in_span picks on the stage's reduced
    # basis, and contracts onto its target; the tower's counted free rank
    # is the socle dimension of its top stage
    I, B = _tower_family(name)
    tower = dual_tower(I, B, order)
    H = section_lift(tower)
    d = tower.d
    ring = I.ring
    zprod = tuple(1 if i in ring.zindices else 0 for i in range(ring.nvars))
    for k in range(1, B):
        targets, lifts = H.family[diag(d, k)], H.family[diag(d, k + 1)]
        assert list(lifts) == lift_by_solve(tower.stage(diag(d, k + 1)), targets, order), k
        assert [contract_exp(zprod, F) for F in lifts] == list(targets), k
    top = tower.stage(diag(d, B))
    p = getattr(ring.field, "p", None)
    rank = free_rank_by_socle([F.terms for F in top.basis], ring.zindices, B, p)
    assert tower.free_rank() == rank == len(tower.modules[diag(d, 1)])


def _annihilator_parts(A):
    """gens, trunc and the adopted GREVLEX kernel's N, std and rows of an
    annihilator; None for a kernel not adopted."""
    aq = A._cache.get(("quotient", GREVLEX.signature()))
    return A.gens, A.trunc, aq and (aq.N, aq.std, aq.rows)


def _tampered_families(H):
    """H with H_2 scaled by 2, and H with a degree-inflating term added to
    H_2 and H_1 = z_1...z_d . H_2: H_2 is not z_1...z_d . H_3 in either,
    and in the second stage 1 is the contraction of the tampered stage 2."""
    ring, d = H.ring, H.d
    zprod = tuple(1 if i in ring.zindices else 0 for i in range(ring.nvars))
    scaled = dict(H.family)
    scaled[diag(d, 2)] = tuple(F + F for F in H.family[diag(d, 2)])
    extra = ring.dual.monomial(tuple(H.s + 3 if i == 0 else 1 for i in range(ring.nvars)))
    inflated = dict(H.family)
    inflated[diag(d, 2)] = tuple(F + extra for F in H.family[diag(d, 2)])
    inflated[diag(d, 1)] = tuple(contract_exp(zprod, F) for F in inflated[diag(d, 2)])
    return [LimitInverseSystem(ring, d, H.r, H.s, H.bound, fam) for fam in (scaled, inflated)]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES + ("y2-z",))
def test_stage_annihilators_match_perp_module_of_each_stage(name, order):
    # reconstruct reads each diagonal stage's annihilator off the stage's
    # smallest-first echelon in diagonal_echelons; each must be the one
    # perp_module reads off the stage's own module: the same generators,
    # truncation and adopted kernel, on the family section_lift made, on its
    # round trip through a limit file, and on two families whose H_2 is not
    # z_1...z_d . H_3, where the bottom-up pass starts fresh echelons
    from invsys.io import load_limit_system, render_lis_file

    I, B = _tower_family(name)
    H = section_lift(dual_tower(I, B, order))
    loaded = load_limit_system(render_lis_file(H, order))
    families = [H, loaded] + _tampered_families(loaded)
    for case, F in enumerate(families):
        anns = limitsys._stage_annihilators(F)
        assert sorted(anns) == list(range(1, B + 1))
        for k, A in anns.items():
            expected = perp_module(F.module_at(diag(F.d, k)))
            assert _annihilator_parts(A) == _annihilator_parts(expected), (case, k)
            # y2-z's stages reach above their degree bounds, so no kernel is adopted
            if case < 2 and name != "y2-z":
                assert _annihilator_parts(A)[2] is not None, k


def _stage_echelon_rows(H, k):
    """The smallest-first echelon rows of P.H_(k,...,k) by the stage's own closure."""
    return _perp_echelon(DualModule.generate(H.ring, H.family[diag(H.d, k)])).rows


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES + ("rnc4", "y2-z"))
def test_diagonal_echelons_match_each_stage_module(name, order):
    # each level of the bottom-up pass, continued from the level below where
    # H_(k-1) = z_1...z_d . H_k and closed under the non-z variables alone,
    # must be the smallest-first echelon of the stage module module_at
    # gives, and of the stage's own full closure: on the family section_lift
    # made, on its round trip through a limit file, and on two families
    # whose H_2 is not z_1...z_d . H_3, which start fresh echelons
    from invsys.io import load_limit_system, render_lis_file

    I, B = _tower_family(name)
    H = section_lift(dual_tower(I, B, order))
    loaded = load_limit_system(render_lis_file(H, order))
    for case, F in enumerate([H, loaded] + _tampered_families(loaded)):
        echelons = F.diagonal_echelons()
        assert sorted(echelons) == list(range(1, B + 1))
        assert F.diagonal_echelons() is echelons
        for k, rows in echelons.items():
            assert rows == _perp_echelon(F.module_at(diag(F.d, k))).rows, (case, k)
            assert rows == _stage_echelon_rows(F, k), (case, k)


def random_diagonal_family(rng, d, B, compatible):
    """A family over y0,y1,z_1..z_d given on its diagonal stages alone.

    H_B holds one or two random elements killed by every z_j^B.  Each lower
    stage is z_1...z_d . H_(k+1); when compatible is false, each lower
    stage is instead, with even odds, a new random set, or the contraction
    with one element doubled.
    """
    ctx = context_from_names(",".join(["y0", "y1"] + [f"z{j}" for j in range(d)]), zvars=",".join(f"z{j}" for j in range(d)))
    zprod = tuple(1 if i in ctx.zindices else 0 for i in range(ctx.nvars))
    pool = [e for e in ctx.exponents_upto(B + 2) if all(e[i] < B for i in ctx.zindices)]

    def element():
        return ctx.dual.from_terms({rng.choice(pool): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))})

    r = rng.randint(1, 2)
    family = {diag(d, B): tuple(element() for _ in range(r))}
    for k in range(B - 1, 0, -1):
        below = [contract_exp(zprod, F) for F in family[diag(d, k + 1)]]
        if not compatible:
            if rng.random() < 0.5:
                below = [element() for _ in range(r)]
            else:
                below[0] = below[0] + below[0]
        family[diag(d, k)] = tuple(below)
    return LimitInverseSystem(ctx, d, r, 1, B, family)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([2, 3]), st.booleans())
def test_diagonal_echelons_match_per_stage_generation(seed, d, B, compatible):
    H = random_diagonal_family(random.Random(seed), d, B, compatible)
    echelons = H.diagonal_echelons()
    for k in range(1, B + 1):
        assert echelons[k] == _stage_echelon_rows(H, k), k


def test_cli_limit_builds_no_closure_on_a_checked_tower(capsys, monkeypatch):
    # verify_lis counts W_top's free rank off the tower's chains, so no
    # module is closed, checked for closure or echelonized for the rank, with
    # the z-block checked or taken on trust, and both print the same family
    from invsys.cli import main

    calls = {"generate": 0, "verify_closed": 0, "diagonal_echelons": 0}
    generate = DualModule.generate.__func__

    def counted_generate(cls, *args, **kwargs):
        calls["generate"] += 1
        return generate(cls, *args, **kwargs)

    def counted_verify_closed(W):
        calls["verify_closed"] += 1
        return verify_closed(W)

    diagonal_echelons = LimitInverseSystem.diagonal_echelons

    def counted_echelons(H):
        calls["diagonal_echelons"] += 1
        return diagonal_echelons(H)

    monkeypatch.setattr(DualModule, "generate", classmethod(counted_generate))
    monkeypatch.setattr(LimitInverseSystem, "diagonal_echelons", counted_echelons)
    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("invsys") and hasattr(module, "verify_closed"):
            monkeypatch.setattr(module, "verify_closed", counted_verify_closed)
    golden = Path(__file__).resolve().parent / "golden"
    for path, B in ((DATA / "example.ideal", 9), (golden / "ci_d2.ideal", 5)):
        outs = []
        for flags in ((), ("--trust-regular",)):
            calls.update(generate=0, verify_closed=0, diagonal_echelons=0)
            assert main(["limit", "-i", str(path), "--mmax", str(B), *flags]) == 0
            outs.append(capsys.readouterr().out)
            assert calls == {"generate": 0, "verify_closed": 0, "diagonal_echelons": 0}, (path.name, flags)
        assert outs[0] == outs[1]


def test_lex_runs_buchberger_only_for_the_printed_basis(tmp_path, capsys, monkeypatch):
    # membership, equality, regularity and the truncation bound do not depend
    # on the order and run in GREVLEX: limit --order lex runs no lex
    # Buchberger pass, and reconstruct --order lex runs one, for its output,
    # stable or not (d3 is not yet stable at bound 3)
    from invsys import groebner
    from invsys.cli import main

    kinds = []
    buchberger = groebner.buchberger

    def counted(ring, gens, order=GREVLEX):
        kinds.append(order.kind)
        return buchberger(ring, gens, order)

    monkeypatch.setattr(groebner, "buchberger", counted)
    for source, B, stable in (("ci_d2.ideal", 5, True), ("example.ideal", 9, True), ("d3.ideal", 3, False)):
        lis = tmp_path / f"{source}.lis"
        del kinds[:]
        assert main(["limit", "-i", str(DATA / source), "--mmax", str(B), "--order", "lex", "-o", str(lis)]) == 0
        assert kinds.count("lex") == 0, (source, kinds)
        del kinds[:]
        assert main(["reconstruct", "-i", str(lis), "--order", "lex"]) == (0 if stable else 1)
        assert kinds.count("lex") == 1, (source, kinds)
    capsys.readouterr()


def test_limit_reads_s_without_a_hilbert_profile(capsys, monkeypatch):
    # s and the length of stage one come off stage one's bound and kernel
    from invsys.cli import main

    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("invsys") and hasattr(module, "hilbert_data"):
            monkeypatch.setattr(module, "hilbert_data", lambda *args: calls.append(args))
    golden = Path(__file__).resolve().parent / "golden"
    for path, B in ((DATA / "example.ideal", 9), (golden / "ci_d2.ideal", 5)):
        assert main(["limit", "-i", str(path), "--mmax", str(B)]) == 0
        assert capsys.readouterr().out
    assert calls == []


def test_dual_tower_does_no_grid_work_up_front(band):
    # the tower holds only its diagonal and builds the top stage first, so a
    # huge bound fails on the ceiling inside dual_tower before any work grows
    # with the bound
    import tracemalloc

    ctx, I = band
    tracemalloc.start()
    try:
        with pytest.raises(PipelineError, match=r"at \(100000000,\) is Artinian.*degree ceiling 64"):
            dual_tower(I, 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_unit_ideal_tower_is_refused_with_a_message():
    # every stage of the unit ideal is zero; taken on trust, the tower holds
    # B empty chains and the section lift refuses it, where a stage degree
    # bound read off an empty module once raised OverflowError
    ctx = context_from_names("y,z", zvars="z")
    tower = dual_tower(Ideal(ctx, [ctx.one()]), 2, trust_regular=True)
    assert tower.stage((2,)).is_zero()
    with pytest.raises(PipelineError, match="zero socle"):
        section_lift(tower)


def test_dual_tower_rejects_artinian_input():
    ctx = context_from_names("y,z", zvars="z")
    I = Ideal(ctx, [ctx.variable(0), ctx.variable(1)])  # the maximal ideal
    with pytest.raises(PipelineError):
        dual_tower(I, 2)


def test_dual_tower_surjectivity(band, curve):
    for ctx, I, B in [(band[0], band[1], 3), (curve[0], curve[1], 3)]:
        tower = dual_tower(I, B)
        d = tower.d
        for m in grid(d, B):
            for n in grid(d, B):
                if all(a <= b for a, b in zip(n, m)):
                    e = tuple(
                        sum((m[s] - n[s]) if i == ctx.zindices[s] else 0 for s in range(d))
                        for i in range(ctx.nvars)
                    )
                    img = tower.stage(m).contract_by(e)
                    assert img.basis == tower.stage(n).basis


def test_dual_tower_socle_stability(curve):
    ctx, I = curve
    tower = dual_tower(I, 4)
    counts = {m: len(minimal_cogenerators(tower.stage(m))) for m in tower.modules}
    assert set(counts.values()) == {2}


def test_section_lift_closed_form(band):
    ctx, I = band
    H = section_lift(dual_tower(I, 4))
    assert H.d == 1 and H.r == 1 and H.s == 1
    for m in range(1, 5):
        s = "Y" if m == 1 else f"Y*Z^{m - 1}"
        assert [F.render() for F in H.family[(m,)]] == [ctx.dual.parse(s).render()]


def test_section_lift_d0_classical():
    ctx = context_from_names("x,y")
    I = Ideal(ctx, [ctx.parse("x^2"), ctx.parse("x*y"), ctx.parse("y^2")])
    H = section_lift(dual_tower(I, 1))
    assert H.d == 0 and H.r == 2
    res = reconstruct(H)
    assert res.stable
    assert equal_as_artinian(res.ideal, I)


def test_reconstruct_d0_prints_the_basis_in_its_order(tmp_path, capsys):
    # with no z-block, reconstruct prints the reduced basis in --order, as at
    # d >= 1; the degree-(s+1) monomials that close the grevlex basis stay
    # implicit in the truncation m^(s+1), and the grevlex output is as before
    from invsys.cli import main

    source = tmp_path / "d0.ideal"
    source.write_text("field Q\nring graded vars x,y\nideal:\nx^2 - y^3\nx*y\n", encoding="utf-8")
    lis = tmp_path / "d0.lis"
    assert main(["limit", "-i", str(source), "--mmax", "1", "-o", str(lis)]) == 0
    capsys.readouterr()
    for order, basis in (("lex", "y^4\nx*y\nx^2 - y^3\n"), ("grevlex", "x*y\ny^3 - x^2\nx^3\n")):
        assert main(["reconstruct", "-i", str(lis), "--order", order]) == 0
        assert capsys.readouterr().out == basis + "stable True\nstage 0\n", order
    ctx = context_from_names("x,y")
    for gens in (["x^2 - y^3", "x*y"], ["x^2 - y^2", "x*y"], ["x", "y"]):
        I = Ideal(ctx, [ctx.parse(g) for g in gens])
        H = section_lift(dual_tower(I, 1))
        for order in (GREVLEX, LEX):
            assert equal_as_artinian(reconstruct(H, order).ideal, I), (gens, order.kind)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize(
    "gens, printed",
    [
        (["x", "y"], ["y", "x"]),
        (["x^2", "y"], ["y", "x^2"]),
        (["x^2", "x*y", "y^2"], ["y^2", "x*y", "x^2"]),
    ],
    ids=["m", "x2-y", "m2"],
)
def test_reconstruct_d0_prints_the_closing_monomials_it_needs(gens, printed, order, tmp_path, capsys):
    # a degree-(s+1) monomial that closes the grevlex basis is printed when
    # the other printed generators do not generate it: each list below
    # generates its ideal, as text and as --json
    import json

    from invsys.cli import main

    source = tmp_path / "d0.ideal"
    source.write_text("field Q\nring graded vars x,y\nideal:\n" + "\n".join(gens) + "\n", encoding="utf-8")
    lis = tmp_path / "d0.lis"
    assert main(["limit", "-i", str(source), "--mmax", "1", "-o", str(lis)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "-i", str(lis), "--order", order]) == 0
    assert capsys.readouterr().out == "".join(g + "\n" for g in printed) + "stable True\nstage 0\n"
    assert main(["reconstruct", "-i", str(lis), "--order", order, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == printed


def test_reconstruct_d0_printed_generators_generate_the_ideal():
    # seeded random Artinian ideals with no z-block, graded and local: the
    # printed generators, parsed back with no truncation, give the input
    # ideal in both orders; some closing monomials are printed and some,
    # generated by the rest, are not
    kept = dropped = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        ctx = context_from_names(",".join("xyz"[:n]), mode=rng.choice(["graded", "local"]))
        powers = [ctx.monomial(e_unit(n, i, rng.randint(1, 4))) for i in range(n)]
        I = Ideal(ctx, powers + [random_polynomial(ctx, rng, 3) for _ in range(rng.randint(1, 3))])
        H = section_lift(dual_tower(I, 1))
        A = perp_module(H.module_at(()))
        closing = set(A.groebner()) - set(A.gens)
        for order in (GREVLEX, LEX):
            res = reconstruct(H, order)
            back = Ideal(ctx, [ctx.parse(g.render(order)) for g in res.ideal.gens])
            assert back.equals(I), (seed, order.kind)
            shown = sum(g in closing for g in res.ideal.gens)
            kept += shown
            dropped += sum(g in closing for g in A.groebner(order)) - shown
    assert kept and dropped


def test_diagonal_choice_independence():
    # off-diagonal stages agree no matter which diagonal stage they come from
    ctx = context_from_names("y0,z0,z1", zvars="z0,z1")
    I = Ideal(ctx, [ctx.variable(0) ** 2])
    tower = dual_tower(I, 3)
    H = section_lift(tower)
    for m in grid(2, 2):
        for k in range(max(m), 4):
            e = tuple(
                sum((k - m[s]) if i == ctx.zindices[s] else 0 for s in range(2))
                for i in range(ctx.nvars)
            )
            derived = [contract_exp(e, F) for F in H.family[diag(2, k)]]
            assert list(H.family[m]) == derived


def test_verify_lis_passes(band):
    ctx, I = band
    H = section_lift(dual_tower(I, 3))
    rep = verify_lis(H)
    assert rep.passed


def test_verify_lis_mutations(band):
    ctx, I = band
    H = section_lift(dual_tower(I, 3))
    broken, inflated, incompat = mutated_families(H)
    # zeroed middle stage: support condition fails with witness m = 2
    rep = verify_lis(broken)
    assert not rep.passed
    bad = {c.condition for c in rep.failures()}
    assert bad & {"a", "b", "compat"}
    assert any(c.m == (2,) for c in rep.failures())

    # degree-inflated element: the top-degree condition fails
    rep = verify_lis(inflated)
    assert any(c.condition == "d" and not c.ok for c in rep.checks)

    # broken compatibility: replace the top stage by an incompatible element
    rep = verify_lis(incompat)
    assert any(c.condition == "compat" and not c.ok for c in rep.checks)


def reference_c_checks(H, order=GREVLEX):
    """Condition (c) by the Zassenhaus intersection with the slice monomials.

    Every stage module is its own closure, and each intersection is
    echelonized in order.  Returns (m, ok, detail) per check and the
    intersection bases, in the order verify_lis reports them.
    """
    ring, d = H.ring, H.d
    modules = {m: stage_closure(H, m) for m in grid(d, H.bound)}
    checks, meets = [], []
    for m in grid(d, H.bound):
        for slot in range(d):
            vs = VSpace(slot, H.s - d, m)
            inter = intersect_spans(
                ring.field,
                order.key,
                [F.terms for F in modules[m].basis],
                [{e: ring.field.one} for e in vspace_slice_exponents(vs, ring)],
            )
            prev = tuple(m[i] - (1 if i == slot else 0) for i in range(d))
            ok = all(prev in modules and modules[prev].contains(Polynomial(ring.dual, v)) for v in inter)
            checks.append((m, ok, f"slot {slot + 1}: intersection dim {len(inter)} inside W at {prev}"))
            meets.append((vs, modules[m], inter))
    return checks, meets


def test_condition_c_matches_zassenhaus_reference(band, curve_H9, ci_d2):
    H_band = section_lift(dual_tower(band[1], 3))
    families = [curve_H9, section_lift(dual_tower(ci_d2[1], 3))] + mutated_families(H_band)
    for B, dim in [(4, 7), (6, 13)]:
        H = non_free_family(B)
        rep = verify_lis(H)
        assert [(c.condition, c.m, c.detail) for c in rep.failures()] == [
            ("c", (B,), f"slot 1: intersection dim {dim} inside W at ({B - 1},)")
        ]
        families.append(H)
    H = non_free_family_d2()
    assert [(c.condition, c.m, c.detail) for c in verify_lis(H).failures()] == [
        ("c", (3, 3), f"slot {j}: intersection dim 14 inside W at {prev}")
        for j, prev in [(1, (2, 3)), (2, (3, 2))]
    ]
    families.append(H)
    verdicts = set()
    nonempty = 0
    for H in families:
        checks, meets = reference_c_checks(H)
        got = [(c.m, c.ok, c.detail) for c in verify_lis(H).checks if c.condition == "c"]
        assert got == checks
        verdicts.update(ok for _, ok, _ in checks)
        for vs, W, inter in meets:
            assert vs.meet(W) == inter
            nonempty += bool(inter)
    # both verdicts and nonzero intersections occur, so the comparison has teeth
    assert verdicts == {True, False} and nonempty > 0


def random_top_family(rng, B):
    """A type-one family z^(top - m) . H_top over y,z0,z1 with s = 1.

    H_top holds Y*Z0^(B-1)*Z1^(B-1), which makes every stage meet (b) and
    (d), plus random terms of degree <= 2B - 1 killed by z0^B and z1^B, so
    verify_lis decides (c) by the rank of the top module, free or not.
    """
    ctx = context_from_names("y,z0,z1", zvars="z0,z1")
    pool = [e for e in ctx.exponents_upto(2 * B - 1) if max(e[1:]) < B]
    terms = {(1, B - 1, B - 1): rng.choice([-2, -1, 1, 2])}
    for _ in range(rng.randint(1, 4)):
        terms[rng.choice(pool)] = rng.choice([-2, -1, 1, 2])
    return top_family(ctx, B, 1, ctx.dual.from_terms(terms))


def free_top(H):
    return H.free_rank() is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([GREVLEX, LEX]))
def test_condition_c_by_rank_matches_reference_on_random_tops(seed, B, order):
    H = random_top_family(random.Random(seed), B)
    fresh = LimitInverseSystem(H.ring, H.d, H.r, H.s, H.bound, H.family)
    rep = verify_lis(fresh)
    assert all(c.ok for c in rep.checks if c.condition in ("b", "compat", "d"))
    checks, _ = reference_c_checks(H, order)
    assert [(c.m, c.ok, c.detail) for c in rep.checks if c.condition == "c"] == checks


def test_free_rank_by_contraction_matches_the_socle_meet(curve_H9, ci_d2):
    # dim sigma . W_top = dim W_1 for sigma = (z_1...z_d)^(B-1), counted off
    # the diagonal echelons, against the socle dimension by dense
    # elimination, on random tops at B = 2..4, the families that are not
    # free, and the curve, ci-d2 and d3 tower tops, read without their tower
    families = [random_top_family(random.Random(seed), B) for B in (2, 3, 4) for seed in range(40)]
    families += [non_free_family(4), non_free_family(6), non_free_family_d2(), curve_H9]
    _, d3 = parse_ideal_file((DATA / "d3.ideal").read_text())
    families += [section_lift(dual_tower(I, B)) for I, B in ((ci_d2[1], 5), (d3, 2))]
    free = set()
    for H in families:
        fresh = LimitInverseSystem(H.ring, H.d, H.r, H.s, H.bound, H.family)
        W = H.module_at(diag(H.d, H.bound))
        p = getattr(H.ring.field, "p", None)
        rank = free_rank_by_socle([F.terms for F in W.basis], H.ring.zindices, H.bound, p)
        assert fresh.free_rank() == rank
        if H._tower is not None:
            assert H.free_rank() == rank
        free.add(rank is not None)
    assert free == {True, False}


def test_random_tops_are_free_and_not_free():
    # the seeded families of the property above reach both ways of deciding (c)
    kinds = {free_top(random_top_family(random.Random(seed), 3)) for seed in range(20)}
    assert kinds == {True, False}


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_stage_modules_by_contraction_match_generation(order, band, curve_H9, ci_d2):
    # module_at contracts the top module where H_m is a contraction of H_top,
    # and closes any other stage; each must be the contraction closure of H_m
    # itself, basis and degree bound.  A top closed here stands for the one
    # section_lift hands over; (c) is checked against the reference in order
    families = [curve_H9, section_lift(dual_tower(ci_d2[1], 5))]
    families += [section_lift(dual_tower(I, B)) for _, I, B in theorem_class_suite()]
    families += mutated_families(section_lift(dual_tower(band[1], 3)))
    families += [non_free_family(4), non_free_family_d2()]
    for H in families:
        fresh = LimitInverseSystem(H.ring, H.d, H.r, H.s, H.bound, H.family)
        top = diag(H.d, H.bound)
        fresh._modules[top] = stage_closure(H, top)
        for m in grid(H.d, H.bound):
            W = fresh.module_at(m)
            expected = stage_closure(H, m)
            assert (W.basis, W.degbound) == (expected.basis, expected.degbound), m
        checks, _ = reference_c_checks(H, order)
        got = [(c.m, c.ok, c.detail) for c in verify_lis(fresh).checks if c.condition == "c"]
        assert got == checks


def test_vspace_contains_matches_slice(curve, ci_d2):
    for ctx, cases in [
        (curve[0], [((1,), 1), ((2,), 2), ((3,), 0), ((4,), 3)]),
        (ci_d2[0], [((1, 1), 1), ((2, 3), 1), ((3, 1), 0), ((2, 2), 2)]),
    ]:
        for m, k in cases:
            for j in range(len(m)):
                vs = VSpace(j, k, m)
                upto = ctx.exponents_upto(sum(m) + k + 1)
                assert {e for e in upto if vs.contains(ctx, e)} == set(vspace_slice_exponents(vs, ctx))


def test_vspace_two_realizations(curve):
    # the monomial slice matches the perp of <x>^(|m|+k+1) + <z_j^(m_j-1)>
    from invsys.duality import perp_ideal

    ctx, I = curve
    for m, k in [((2,), 2), ((3,), 2), ((1,), 1)]:
        vs = VSpace(0, k, m)
        gens = vspace_perp_generators(vs, ctx)
        W = perp_ideal(Ideal(ctx, gens), degbound=sum(m) + k)
        slice_mod = DualModule(
            ctx, sum(m) + k,
            [ctx.dual.monomial(e) for e in vspace_slice_exponents(vs, ctx)],
        )
        assert W.equals(slice_mod)


def test_reconstruct_closed_form(band):
    ctx, I = band
    res = reconstruct(section_lift(dual_tower(I, 3)))
    assert res.stable
    assert [g.render() for g in res.ideal.gens] == ["y^2"]


def test_reconstruct_needs_bound(curve):
    ctx, I = curve
    H = section_lift(dual_tower(I, 3))
    res = reconstruct(H)
    assert not res.stable  # junk has not fallen out yet at this bound


def test_verify_and_reconstruct_share_stage_modules(curve_H9, ci_d2, tmp_path, capsys, monkeypatch):
    # a limit file holds no tower, but a family that passes (b), compat and
    # (d) reads W_top's free rank off the diagonal echelons, which
    # reconstruct's annihilators read too: neither closes a stage module nor
    # contracts one.  A tampered file whose gate fails still closes its
    # stage modules for (c), and reconstruct refuses it
    from invsys.cli import main
    from invsys.io import render_lis_file

    families = [curve_H9, section_lift(dual_tower(ci_d2[1], 5))]
    calls = {"generate": 0, "contract_by": 0}
    generate = DualModule.generate.__func__
    contract_by = DualModule.contract_by

    def counted_generate(cls, *args, **kwargs):
        calls["generate"] += 1
        return generate(cls, *args, **kwargs)

    def counted_contract_by(self, *args, **kwargs):
        calls["contract_by"] += 1
        return contract_by(self, *args, **kwargs)

    monkeypatch.setattr(DualModule, "generate", classmethod(counted_generate))
    monkeypatch.setattr(DualModule, "contract_by", counted_contract_by)
    for H in families:
        path = tmp_path / "H.lis"
        path.write_text(render_lis_file(H))
        calls.update(generate=0, contract_by=0)
        assert main(["verify", "-i", str(path)]) == 0
        assert "verdict PASS" in capsys.readouterr().out
        assert calls == {"generate": 0, "contract_by": 0}
        assert main(["reconstruct", "-i", str(path)]) == 0
        assert "stable True" in capsys.readouterr().out
        assert calls == {"generate": 0, "contract_by": 0}
    tampered = Path(__file__).resolve().parent / "golden" / "ci_d2_tampered.lis"
    assert main(["verify", "-i", str(tampered)]) == 1
    assert calls["generate"] > 0
    assert main(["reconstruct", "-i", str(tampered)]) == 1
    capsys.readouterr()


def test_reconstruct_reuses_annihilator_kernels(curve_H9, monkeypatch):
    # each stage annihilator carries its kernel, and the z-filtration bound
    # certifies every stage length, so the one kernel built from generators
    # is that of candidate + <z>, at the truncation N_1 + 1 where stage one's
    # own reduction is certified; no kernel of the top stage is built
    import invsys.groebner as groebner

    built = []
    init = groebner.ArtinianQuotient.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.N)

    def forbidden(*args, **kwargs):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(groebner.ArtinianQuotient, "__init__", counted)
    for name, mod in list(sys.modules.items()):
        if name.startswith("invsys") and hasattr(mod, "nullspace"):
            monkeypatch.setattr(mod, "nullspace", forbidden)
    assert reconstruct(curve_H9).stable
    N1 = perp_module(curve_H9.module_at((1,))).trunc
    assert built == [N1 + 1]


def reference_reproduces(candidate, anns, order=GREVLEX):
    """Per-stage reproduction check: build candidate + z^k + m^N_k from its
    generators and compare its reduced basis in order with anns[k]'s."""
    ring = candidate.ring
    for k in sorted(anns):
        powers = [ring.monomial(e_unit(ring.nvars, zi, k)) for zi in ring.zindices]
        N = anns[k].trunc
        staged = candidate.plus(powers).truncated(N)
        if staged.groebner(order) != anns[k].truncated(N).groebner(order):
            return False
    return True


def restricted(H, B):
    """The family up to bound B: section_lift's stages do not depend on the bound."""
    family = {m: H.family[m] for m in grid(H.d, B)}
    return LimitInverseSystem(H.ring, H.d, H.r, H.s, B, family)


def reproduction_families(band, curve_H9, ci_d2):
    """Families whose reconstructions reach both verdicts of reproduces."""
    H_ci = section_lift(dual_tower(ci_d2[1], 5))
    families = [restricted(curve_H9, B) for B in range(4, 10)]
    families += [restricted(H_ci, B) for B in range(2, 6)]
    families += [section_lift(dual_tower(I, B)) for _, I, B in theorem_class_suite()]
    families += mutated_families(section_lift(dual_tower(band[1], 3)))
    families += [non_free_family(4), non_free_family(6)]
    return families


@pytest.mark.filterwarnings("ignore:annihilator of the zero module")
def test_reproduction_check_matches_reference(band, curve_H9, ci_d2, monkeypatch):
    # every candidate reconstruct evaluates gets the same verdict from the
    # one-kernel check as from the per-stage reference, in both orders
    families = reproduction_families(band, curve_H9, ci_d2)
    seen = []
    check = limitsys.reproduces

    def recorded(candidate, anns):
        verdict = check(candidate, anns)
        seen.append((candidate, anns, verdict))
        return verdict

    monkeypatch.setattr(limitsys, "reproduces", recorded)
    verdicts = []
    for order in (GREVLEX, LEX):
        for H in families:
            seen.clear()
            try:
                reconstruct(H, order)
            except PipelineError:
                continue
            for candidate, anns, verdict in seen:
                assert verdict == reference_reproduces(candidate, anns, order)
                verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def reference_reconstruct(H, anns, order):
    """reconstruct with survivors tested stage by stage: stage K keeps the
    elements of its reduced basis in order that lie in every later stage.
    Returns the survivors per stage, the verdict, the stage and the basis."""
    B, ring = H.bound, H.ring
    survivors = [
        [g for g in anns[K].groebner(order) if all(anns[n].contains(g) for n in range(K + 1, B + 1))]
        for K in range(1, B)
    ]
    chain = [Ideal(ring, [g for kept in survivors[:K] for g in kept]) for K in range(1, B)]
    for K in range(1, len(chain)):
        if chain[K - 1].equals(chain[K]):
            plateau = Ideal(ring, chain[K - 1].groebner())
            if limitsys.reproduces(plateau, anns) and limitsys._z_regular(plateau):
                return survivors, True, K, chain[K - 1].groebner(order)
    return survivors, False, B, chain[-1].groebner(order) if chain else ()


@pytest.mark.filterwarnings("ignore:annihilator of the zero module")
def test_survivors_by_one_membership_test_match_the_per_stage_loop(band, curve_H9, ci_d2):
    # the chain check puts anns[B] inside every earlier stage, so membership
    # in anns[B] alone picks the survivors: the same ones, verdicts and bases
    # as testing every later stage, in both orders
    families = reproduction_families(band, curve_H9, ci_d2)
    dropped = verdicts = 0
    for order in (GREVLEX, LEX):
        for H in families:
            try:
                res = reconstruct(H, order)
            except PipelineError:
                continue
            anns = {k: perp_module(H.module_at(diag(H.d, k))) for k in range(1, H.bound + 1)}
            survivors, stable, stage, basis = reference_reconstruct(H, anns, order)
            assert (res.stable, res.stage, res.ideal.gens) == (stable, stage, tuple(basis))
            for K, kept in enumerate(survivors, start=1):
                basis_K = anns[K].groebner(order)
                assert [g for g in basis_K if anns[H.bound].contains(g)] == kept, K
                dropped += len(kept) < len(basis_K)
            verdicts |= 1 << stable
    # some stage drops basis elements, and both verdicts occur
    assert dropped and verdicts == 3


def test_reproduction_check_fails_on_each_branch(curve_H9, monkeypatch):
    # a missing z^k fails on containment, before the kernel is built; a
    # candidate inside every stage but too small fails on length
    ctx = curve_H9.ring
    anns = {k: perp_module(curve_H9.module_at((k,))) for k in range(1, 10)}
    built = []
    monkeypatch.setattr(limitsys, "perp_ideal", lambda *a, **kw: built.append(1) or perp_ideal(*a, **kw))

    family = {(1,): (ctx.dual.parse("X"),)}
    H = LimitInverseSystem(ctx, 1, 1, 1, 1, family)
    missing = {1: perp_module(H.module_at((1,)))}
    candidate = Ideal(ctx, [ctx.variable(i) for i in range(1, 4)])
    assert not limitsys.reproduces(candidate, missing)
    assert not reference_reproduces(candidate, missing)
    assert built == []

    small = Ideal(ctx, [ctx.parse("x*y - w")])
    assert all(A.contains(g) for A in anns.values() for g in small.gens)
    assert not limitsys.reproduces(small, anns)
    assert not reference_reproduces(small, anns)
    assert built == [1]


@pytest.mark.filterwarnings("ignore:annihilator of the zero module")
def test_reproduction_check_reads_every_length_off_one_echelon(band, curve_H9, ci_d2, monkeypatch):
    # the families are built first: tower stages below the top are meets
    families = reproduction_families(band, curve_H9, ci_d2)

    def forbidden(*args, **kwargs):
        raise AssertionError("coordinate_meet called")

    kernels = []
    monkeypatch.setattr(limitsys, "coordinate_meet", forbidden)
    monkeypatch.setattr(limitsys, "perp_ideal", lambda *a, **kw: kernels.append(1) or perp_ideal(*a, **kw))
    check = limitsys.reproduces
    seen = []

    def recorded(candidate, anns):
        del kernels[:]
        verdict = check(candidate, anns)
        # a False verdict reached the lengths exactly when it built the kernel
        seen.append((candidate, anns, verdict, "length" if kernels else "containment"))
        return verdict

    monkeypatch.setattr(limitsys, "reproduces", recorded)
    outcomes = set()
    for order in (GREVLEX, LEX):
        for H in families:
            seen.clear()
            try:
                reconstruct(H, order)
            except PipelineError:
                continue
            for candidate, anns, verdict, branch in seen:
                assert verdict == reference_reproduces(candidate, anns, order)
                outcomes.add(verdict or branch)
    # no plateau of these families fails containment, so that branch is
    # reached directly: x, the z-variable, does not annihilate X
    ctx = curve_H9.ring
    H = LimitInverseSystem(ctx, 1, 1, 1, 1, {(1,): (ctx.dual.parse("X"),)})
    seen.clear()
    candidate = Ideal(ctx, [ctx.variable(i) for i in range(1, ctx.nvars)])
    limitsys.reproduces(candidate, {1: perp_module(H.module_at((1,)))})
    for candidate, anns, verdict, branch in seen:
        assert verdict == reference_reproduces(candidate, anns)
        outcomes.add(verdict or branch)
    assert outcomes == {True, "containment", "length"}


def test_reproduction_check_refuses_decreasing_truncations(curve_H9):
    anns = {k: perp_module(curve_H9.module_at((k,))) for k in (1, 2, 3)}
    candidate = Ideal(curve_H9.ring, [])
    assert [anns[k].trunc for k in (1, 2, 3)] == [4, 5, 6]  # N_k = k + s - d + 1
    with pytest.raises(ValueError, match="decrease"):
        limitsys.reproduces(candidate, {1: anns[1], 2: anns[3], 3: anns[2]})


def counted_fallbacks(monkeypatch):
    """A list that grows by one each time reproduces compares lengths in full."""
    calls = []
    full = limitsys.nested_meet_dims
    monkeypatch.setattr(limitsys, "nested_meet_dims", lambda *a, **kw: calls.append(1) or full(*a, **kw))
    return calls


def test_reproduction_check_falls_back_below_the_filtration_bound(monkeypatch):
    # z is a zero divisor modulo <y^2, y*z>: the stage ideals <y^2, y*z, z^k>
    # have length k + 1, short of k * e for e = length P/<y^2, y*z, z> = 2,
    # so the lengths are compared in full, and both verdicts agree with the
    # per-stage reference
    ctx = context_from_names("y,z", zvars="z")
    y, z = ctx.variable(0), ctx.variable(1)
    anns = {}
    for k in range(1, 5):
        stage = Ideal(ctx, [y**2, y * z, z**k])
        anns[k] = perp_module(perp_ideal(stage, degbound=k))
        assert anns[k].quotient().length == k + 1
    fallbacks = counted_fallbacks(monkeypatch)
    for candidate, verdict in ((Ideal(ctx, [y**2, y * z]), True), (Ideal(ctx, [y**2]), False)):
        del fallbacks[:]
        assert limitsys.reproduces(candidate, anns) is verdict
        assert reference_reproduces(candidate, anns) is verdict
        assert fallbacks == [1]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_limit_outputs_reproduce_by_the_filtration_bound(curve, ci_d2, order, monkeypatch):
    # on a limit output the z-block is regular, so every stage reaches k^d * e
    # and no plateau check compares lengths in full
    fallbacks = counted_fallbacks(monkeypatch)
    for (_, I), B in ((curve, 9), (ci_d2, 5)):
        res = reconstruct(section_lift(dual_tower(I, B, order)), order)
        assert res.stable and res.ideal.equals(I)
    assert fallbacks == []


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_stable_only_on_a_plateau_where_the_z_block_is_regular(curve, ci_d2, order):
    # at bounds 6 and 7 the curve's first reproducing plateaus (lex at 6 and
    # 7, grevlex at 7) strictly contain I, and x is a zero divisor modulo
    # each; from bound 9, and on the ci instance, the plateau is the ideal
    ctx, I = curve
    H = section_lift(dual_tower(I, 9, order))
    for B in (6, 7):
        assert not reconstruct(restricted(H, B), order).stable
    for J, H_B in ((I, H), (ci_d2[1], section_lift(dual_tower(ci_d2[1], 5, order)))):
        res = reconstruct(H_B, order)
        assert res.stable and res.ideal.equals(J)


def test_z_regularity_runs_no_colon_or_intersection(curve, monkeypatch):
    # the z-block check reads its verdict off one homogeneous basis
    from invsys import groebner

    calls = []
    for name in ("ideal_colon", "ideal_intersect"):
        real = getattr(groebner, name)
        monkeypatch.setattr(
            groebner, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    ctx, I = curve
    limitsys.check_z_regularity(Ideal(ctx, I.gens))
    assert calls == []


def test_plateaus_that_reproduce_but_fail_regularity(curve):
    # without the regularity check each of these families is called stable
    # with an ideal that is not I: the check is what refuses them
    ctx, I = curve
    for order, B in ((GREVLEX, 7), (LEX, 6), (LEX, 7)):
        H = section_lift(dual_tower(I, B, order))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limitsys, "_z_regular", lambda candidate: True)
            res = reconstruct(H, order)
        assert res.stable and not res.ideal.equals(I)
        assert not limitsys._z_regular(res.ideal)
        assert not reconstruct(H, order).stable


def test_annihilators_carry_their_reduced_basis(curve_H9, ci_d2, monkeypatch):
    # perp_module hands over its GREVLEX reduced basis with its kernel, equal
    # to the one reduced_basis reads off the same rows
    from invsys.groebner import ArtinianQuotient

    H_ci = section_lift(dual_tower(ci_d2[1], 5))
    modules = [curve_H9.module_at((k,)) for k in range(1, 10)]
    modules += [H_ci.module_at(m) for m in grid(2, 5)]
    fresh = ArtinianQuotient.reduced_basis
    calls = []
    monkeypatch.setattr(ArtinianQuotient, "reduced_basis", lambda self: calls.append(1) or fresh(self))
    for W in modules:
        A = perp_module(W)
        assert A.groebner(GREVLEX) == fresh(A.quotient(GREVLEX))
    assert calls == []


def test_cli_reconstruct_reads_no_reduced_basis_off_a_kernel(tmp_path, capsys, monkeypatch):
    from invsys.cli import main
    from invsys.groebner import ArtinianQuotient
    golden = Path(__file__).resolve().parent / "golden" / "curve9.grevlex.limit.txt"
    path = tmp_path / "H9.lis"
    path.write_text(golden.read_text().partition("\n")[2])  # after the exit-code line
    calls = []
    fresh = ArtinianQuotient.reduced_basis
    monkeypatch.setattr(ArtinianQuotient, "reduced_basis", lambda self: calls.append(1) or fresh(self))
    assert main(["reconstruct", "-i", str(path)]) == 0
    assert "stable True" in capsys.readouterr().out
    assert calls == []


def test_invariants(band, curve):
    # (d, r, s), the z-block size, type and socle degree, as the family of
    # the one-stage tower carries them
    def invariants(I):
        H = section_lift(dual_tower(I, 1))
        return H.d, H.r, H.s

    ctx, I = band
    assert invariants(I) == (1, 1, 1)
    assert invariants(Ideal(ctx, [ctx.variable(0) ** 3])) == (1, 1, 2)
    assert invariants(curve[1]) == (1, 2, 3)


def test_total_degree_convention_matches_example(curve_H9):
    # condition (d) under two conventions: the total dual degree satisfies
    # max deg H_m = |m| + s - d on the curve family, the z-block-only degree
    # does not; the implementation therefore uses total degree
    H = curve_H9
    zidx = H.ring.dual.zindices
    for m in grid(H.d, 4):
        total = max(F.degree for F in H.family[m])
        zdeg = max(F.degree_on(zidx) for F in H.family[m])
        assert total == sum(m) + H.s - H.d
        assert zdeg == sum(m) - H.d  # the z-block degree follows its own law
        assert zdeg != total or H.s == 0
