import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import invsys.limitsys as limitsys
from invsys import Ideal, PipelineError, artinian_form, context_from_names, equal_as_artinian
from invsys.duality import (
    DualModule,
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
    invariants_of,
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
    stage_closure,
    theorem_class_suite,
    top_family,
)
from oracles import free_rank_by_socle


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
        assert tower.modules[(m,)].equals(expected)


def test_dual_tower_builds_only_the_read_stages(ci_d2, curve, monkeypatch):
    # section_lift reads the diagonal: stage one's reduction gives s and the
    # length, the top stage comes from its own reduction and perp_ideal, and
    # every other stage is a contraction of it, built on first read; no
    # stage is met out of another
    calls = {"perp_ideal": 0, "artinian_reduction": 0}

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
            monkeypatch.setattr(
                limitsys, "artinian_reduction", counted("artinian_reduction", artinian_reduction)
            )
            monkeypatch.setattr(limitsys, "coordinate_meet", forbidden)
            calls.update(perp_ideal=0, artinian_reduction=0)
            tower = dual_tower(I, B, order, trust_regular=True)
            section_lift(tower, order=order)
            assert calls == {"perp_ideal": 1, "artinian_reduction": 2}
            assert len(tower.modules) == B ** d and list(tower.modules) == grid(d, B)
            assert (1,) * (d - 1) + (2,) in tower.modules and low not in tower.modules
            monkeypatch.undo()
            stages = dict(tower.modules.items())
            assert list(stages) == grid(d, B)
            for m, W in stages.items():
                J, N = artinian_form(artinian_reduction(I, m, order), order)
                expected = perp_ideal(J, degbound=N - 1, order=order)
                assert (W.basis, W.degbound) == (expected.basis, expected.degbound), (m, order)
            with pytest.raises(KeyError):
                tower.modules[low]


def test_local_top_stage_is_certified_by_its_length(curve, monkeypatch):
    # the curve's top reduction reaches B times the length of stage one at
    # truncation N_top = B + s, one degree below Nakayama's certificate, and
    # its one kernel is built there; on a z-block that is not regular
    # (<y^2, y*z>, taken on trust) the length falls short, Nakayama
    # certifies the same one kernel, and the tower refuses the top stage
    # with both lengths before building any other stage
    import invsys.groebner as groebner

    built = []
    init = groebner.ArtinianQuotient.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.N)

    monkeypatch.setattr(groebner.ArtinianQuotient, "__init__", counted)
    I, B = curve[1], 9
    tower = dual_tower(I, B, trust_regular=True)
    del built[:]
    W = tower.modules[(B,)]
    assert built == [12]
    J, N = artinian_form(artinian_reduction(I, (B,)))
    assert W.basis == perp_ideal(J, degbound=N - 1).basis

    ctx = context_from_names("y,z", mode="local", zvars="z")
    zero_divisor = Ideal(ctx, [ctx.parse("y^2"), ctx.parse("y*z")])
    tower = dual_tower(zero_divisor, 3, trust_regular=True)
    del built[:]
    with pytest.raises(PipelineError, match=r"^the reduction at \(3,\) has length 4, short of 3\^1 "
                       r"times the length 2 at \(1,\); the z-block is not a regular sequence"):
        tower.modules[(1,)]
    assert built == [4]


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
    # z = y^2 in K[[y]]: a free tower whose socle degree grows by two per
    # stage, so each stage's own bound is not its contraction's shifted one
    ctx = context_from_names("y,z", mode="local", zvars="z")
    return Ideal(ctx, [ctx.parse("y^2 - z")]), 3


TOWER_FAMILIES = ("curve", "ci-d2", "ci-d2 fp", "band", "d3", "d3 fp")
READS = ("diagonal upward", "diagonal downward", "shuffled grid")


def _read_order(d, B, how):
    """Every grid stage once: the diagonal first (either way) then the rest,
    or the whole grid in a seeded shuffle."""
    stages = grid(d, B)
    if how == "shuffled grid":
        random.Random(B).shuffle(stages)
        return stages
    diagonal = [diag(d, k) for k in range(1, B + 1)]
    if how == "diagonal downward":
        diagonal.reverse()
    return diagonal + [m for m in stages if m not in diagonal]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES + ("y2-z",))
def test_tower_stages_are_closed_by_construction(name, order):
    # no stage is checked for closure when it is built: the top stage is a
    # perp_ideal output and every other stage is a contraction of it; in any
    # read order each must be the perp of its own reduction, with its bound,
    # pass the closure oracle and be marked closed
    I, B = _tower_family(name)
    d = len(I.ring.zindices)
    expected = {}
    for m in grid(d, B):
        J, N = artinian_form(artinian_reduction(I, m, order), order)
        W = perp_ideal(J, degbound=N - 1, order=order)
        expected[m] = (W.basis, W.degbound)
    for how in READS:
        tower = dual_tower(I, B, order)
        for m in _read_order(d, B, how):
            W = tower.modules[m]
            assert (W.basis, W.degbound) == expected[m], (how, m)
            assert W._closed, (how, m)
            verify_closed(W)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", TOWER_FAMILIES)
def test_section_lift_hands_the_tower_top_to_the_family(name, order):
    # the tower certified W_top free, so H_top generates it and the family
    # starts with the tower's top stage, whether the z-block was checked or
    # taken on trust
    I, B = _tower_family(name)
    tower = dual_tower(I, B, order)
    H = section_lift(tower, order=order)
    top = diag(tower.d, B)
    W = tower.modules[top]
    generated = DualModule.generate(H.ring, H.family[top], degbound=sum(top) + H.s - H.d, order=order)
    assert (W.basis, W.degbound) == (generated.basis, generated.degbound)
    assert H.module_at(top) is W
    trusted_tower = dual_tower(I, B, order, trust_regular=True)
    trusted = section_lift(trusted_tower, order=order)
    assert trusted.family == H.family
    assert trusted.module_at(top) is trusted_tower.modules[top]


def test_cli_limit_builds_no_closure_on_a_checked_tower(capsys, monkeypatch):
    # verify_lis reads the tower's W_top, so no module is closed or checked
    # for closure, with the z-block checked or taken on trust, and both
    # print the same family
    from invsys.cli import main

    calls = {"generate": 0, "verify_closed": 0}
    generate = DualModule.generate.__func__

    def counted_generate(cls, *args, **kwargs):
        calls["generate"] += 1
        return generate(cls, *args, **kwargs)

    def counted_verify_closed(W):
        calls["verify_closed"] += 1
        return verify_closed(W)

    monkeypatch.setattr(DualModule, "generate", classmethod(counted_generate))
    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("invsys") and hasattr(module, "verify_closed"):
            monkeypatch.setattr(module, "verify_closed", counted_verify_closed)
    golden = Path(__file__).resolve().parent / "golden"
    for path, B in ((DATA / "example.ideal", 9), (golden / "ci_d2.ideal", 5)):
        outs = []
        for flags in ((), ("--trust-regular",)):
            calls.update(generate=0, verify_closed=0)
            assert main(["limit", "-i", str(path), "--mmax", str(B), *flags]) == 0
            outs.append(capsys.readouterr().out)
            assert calls == {"generate": 0, "verify_closed": 0}, (path.name, flags)
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
    # membership is a range test and iteration is lazy, so a huge bound costs
    # nothing until a stage is read; the top stage then fails on the ceiling
    import tracemalloc

    ctx, I = band
    B = 10**8
    tracemalloc.start()
    try:
        tower = dual_tower(I, B)
        assert len(tower.modules) == B
        assert (B,) in tower.modules and (B + 1,) not in tower.modules
        assert next(iter(tower.modules)) == (1,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(PipelineError, match=r"at \(100000000,\) is Artinian.*degree ceiling 64"):
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
                    img = tower.modules[m].contract_by(e)
                    assert img.basis == tower.modules[n].basis


def test_dual_tower_socle_stability(curve):
    ctx, I = curve
    tower = dual_tower(I, 4)
    counts = {m: len(minimal_cogenerators(W)) for m, W in tower.modules.items()}
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

    Every stage module is its own closure in order.  Returns (m, ok, detail)
    per check and the intersection bases, in the order verify_lis reports
    them.
    """
    ring, d = H.ring, H.d
    modules = {m: stage_closure(H, m, order) for m in grid(d, H.bound)}
    checks, meets = [], []
    for m in grid(d, H.bound):
        for slot in range(d):
            vs = VSpace(slot, H.s - d, m)
            inter = intersect_spans(
                ring.field,
                order.key,
                [F.terms for F in modules[m].basis],
                [{e: ring.field.one} for e in vs.slice_exponents(ring)],
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
    return limitsys._free_rank(H.module_at(diag(H.d, H.bound)), H.bound) is not None


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
    # dim sigma . W_top for sigma = (z_1...z_d)^(B-1) against the socle
    # dimension by dense elimination, on random tops at B = 2..4, the
    # families that are not free, and the curve, ci-d2 and d3 tower tops
    families = [random_top_family(random.Random(seed), B) for B in (2, 3, 4) for seed in range(40)]
    families += [non_free_family(4), non_free_family(6), non_free_family_d2(), curve_H9]
    _, d3 = parse_ideal_file((DATA / "d3.ideal").read_text())
    families += [section_lift(dual_tower(I, B)) for I, B in ((ci_d2[1], 5), (d3, 2))]
    free = set()
    for H in families:
        W = H.module_at(diag(H.d, H.bound))
        p = getattr(H.ring.field, "p", None)
        rank = free_rank_by_socle([F.terms for F in W.basis], H.ring.zindices, H.bound, p)
        assert limitsys._free_rank(W, H.bound) == rank
        free.add(rank is not None)
    assert free == {True, False}


def test_random_tops_are_free_and_not_free():
    # the seeded families of the property above reach both ways of deciding (c)
    kinds = {free_top(random_top_family(random.Random(seed), 3)) for seed in range(20)}
    assert kinds == {True, False}


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_stage_modules_by_contraction_match_generation(order, band, curve_H9, ci_d2):
    # module_at contracts the top module where H_m is a contraction of H_top,
    # in the top module's order, and closes any other stage in GREVLEX; each
    # must be the contraction closure of H_m itself, basis and degree bound.
    # A top closed in order stands for the one section_lift hands over
    families = [curve_H9, section_lift(dual_tower(ci_d2[1], 5))]
    families += [section_lift(dual_tower(I, B)) for _, I, B in theorem_class_suite()]
    families += mutated_families(section_lift(dual_tower(band[1], 3)))
    families += [non_free_family(4), non_free_family_d2()]
    for H in families:
        fresh = LimitInverseSystem(H.ring, H.d, H.r, H.s, H.bound, H.family)
        top = diag(H.d, H.bound)
        fresh._modules[top] = stage_closure(H, top, order)
        for m in grid(H.d, H.bound):
            W = fresh.module_at(m)
            expected = stage_closure(H, m, order if limitsys._contracts(H, m, top) else GREVLEX)
            assert W.order is expected.order, m
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
                assert {e for e in upto if vs.contains(ctx, e)} == set(vs.slice_exponents(ctx))


def test_vspace_two_realizations(curve):
    # the monomial slice matches the perp of <x>^(|m|+k+1) + <z_j^(m_j-1)>
    from invsys.duality import perp_ideal

    ctx, I = curve
    for m, k in [((2,), 2), ((3,), 2), ((1,), 1)]:
        vs = VSpace(0, k, m)
        gens = vs.perp_generators(ctx)
        W = perp_ideal(Ideal(ctx, gens), degbound=sum(m) + k)
        slice_mod = DualModule(
            ctx, sum(m) + k,
            [ctx.dual.monomial(e) for e in vs.slice_exponents(ctx)],
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
    # a free top module settles every (c) check, so verify builds the top
    # stage alone, plus the one contraction that reads its free rank;
    # reconstruct then reads its B diagonal stages, each built once, and only
    # the top stage runs the contraction closure: every other stage is one
    # contraction of the top module
    from invsys.cli import main
    from invsys.io import render_lis_file

    families = [(curve_H9, 9), (section_lift(dual_tower(ci_d2[1], 5)), 5)]
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
    for H, B in families:
        path = tmp_path / "H.lis"
        path.write_text(render_lis_file(H))
        calls.update(generate=0, contract_by=0)
        assert main(["verify", "-i", str(path)]) == 0
        assert "verdict PASS" in capsys.readouterr().out
        assert calls == {"generate": 1, "contract_by": 1}
        calls.update(generate=0, contract_by=0)
        assert main(["reconstruct", "-i", str(path)]) == 0
        assert "stable True" in capsys.readouterr().out
        assert calls == {"generate": 1, "contract_by": 1 + B - 1}


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
    generators and compare reduced bases with anns[k]."""
    ring = candidate.ring
    for k in sorted(anns):
        powers = [ring.monomial(e_unit(ring.nvars, zi, k)) for zi in ring.zindices]
        N = anns[k].trunc
        staged = candidate.plus(powers).truncated(N)
        if not staged.equals(anns[k].truncated(N), order):
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
        res = reconstruct(section_lift(dual_tower(I, B, order), order=order), order)
        assert res.stable and res.ideal.equals(I)
    assert fallbacks == []


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_stable_only_on_a_plateau_where_the_z_block_is_regular(curve, ci_d2, order):
    # at bounds 6 and 7 the curve's first reproducing plateaus (lex at 6 and
    # 7, grevlex at 7) strictly contain I, and x is a zero divisor modulo
    # each; from bound 9, and on the ci instance, the plateau is the ideal
    ctx, I = curve
    H = section_lift(dual_tower(I, 9, order), order=order)
    for B in (6, 7):
        assert not reconstruct(restricted(H, B), order).stable
    for J, H_B in ((I, H), (ci_d2[1], section_lift(dual_tower(ci_d2[1], 5, order), order=order))):
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
        H = section_lift(dual_tower(I, B, order), order=order)
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
    ctx, I = band
    assert invariants_of(I) == (1, 1, 1)
    assert invariants_of(Ideal(ctx, [ctx.variable(0) ** 3])) == (1, 1, 2)
    assert invariants_of(curve[1]) == (1, 2, 3)


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
