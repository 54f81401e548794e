"""Acceptance suite: one test per criterion, exact checks, stated time targets.

Each test prints a single PASS line with its measured runtime so the whole
gate can be read off `pytest -v -s tests/test_acceptance.py`.
"""

import random
import time

import pytest

from invsys import Ideal, context_from_names, hilbert_data, ideal_intersect
from invsys.cli import main
from invsys.duality import DualModule, minimal_cogenerators, perp_ideal, perp_module, socle_basis
from invsys.groebner import ArtinianQuotient, artinian_form
from invsys.io import parse_lis_file
from invsys.limitsys import (
    LimitInverseSystem,
    dual_tower,
    grid,
    reconstruct,
    section_lift,
    verify_lis,
)
from invsys.linalg import Echelon
from invsys.rees import MonoidIdeal, diagonal_monoid_ideal, rees_dimension_check, socle_product_check
from invsys.ring import GREVLEX

from conftest import CURVE_H_LISTING, DATA, random_primary_ideals, theorem_class_suite
from oracles import apery_elements, apery_order_profile, equal_as_artinian, monoid_socle_oracle

EXAMPLE = str(DATA / "example.ideal")


def _span_mod(ideal, polys):
    J, _ = artinian_form(ideal)
    aq = ArtinianQuotient(J)
    ech = Echelon(ideal.ring.field, GREVLEX.key)
    for p in polys:
        ech.insert(aq.nf_vector(p))
    return aq, ech


def test_criterion_1_worked_example_socles(curve, tmp_path, capsys):
    t0 = time.time()
    ctx, I = curve
    x = ctx.variable(0)
    claims = {
        1: ["z^2", "y^3"],
        2: ["x*z^2", "x*y^3"],
        3: ["x^2*z^2", "x^2*y^3"],
    }
    for k, claimed in claims.items():
        assert main(["socle", "-i", EXAMPLE, "--m", str(k)]) == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
        got = [ctx.parse(l) for l in lines]
        Ik = I.plus([x ** k])
        aq, ours = _span_mod(Ik, got)
        _, theirs = _span_mod(Ik, [ctx.parse(s) for s in claimed])
        assert ours.rank == theirs.rank == 2
        for s in claimed:
            assert ours.contains(aq.nf_vector(ctx.parse(s)))
        for p in got:
            assert theirs.contains(aq.nf_vector(p))
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 1: worked-example socles k=1,2,3 exact ({elapsed:.2f}s < 10s)")


def test_criterion_2_worked_example_limit_system(curve, tmp_path, capsys):
    t0 = time.time()
    ctx, I = curve
    out = tmp_path / "H7.lis"
    assert main(["limit", "-i", EXAMPLE, "--mmax", "7", "-o", str(out)]) == 0
    capsys.readouterr()
    H = parse_lis_file(out.read_text())
    assert (H.d, H.r, H.s, H.bound) == (1, 2, 3, 7)
    dual = ctx.dual
    for m in range(1, 8):
        ours = H.module_at((m,))
        listed = DualModule.generate(
            ctx, [dual.parse(s) for s in CURVE_H_LISTING[m]]
        )
        assert ours.equals(listed), f"stage {m} module differs from the listing"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 2: limit system m<=7 matches the listing as submodules ({elapsed:.2f}s < 60s)")


def test_criterion_3_type_and_hilbert_profile(curve):
    t0 = time.time()
    ctx, I = curve
    I1 = I.plus([ctx.variable(0)])
    r = len(socle_basis(I1))
    assert r == 2  # the type of the quotient, exactly

    profile = hilbert_data(I1).values
    # independent oracle: count semigroup elements of <6,7,11,13> outside
    # 6 + semigroup, enumerated directly up to 30
    oracle_members = apery_elements((6, 7, 11, 13), 6, 30)
    assert len(oracle_members) == 6
    assert oracle_members == [0, 7, 11, 14, 21, 22]
    assert sum(profile) == len(oracle_members)
    # the oracle's order refinement pins the whole profile
    assert profile == apery_order_profile((6, 7, 11, 13), 6, 30) == (1, 2, 2, 1)
    # Discrepancy documented, not absorbed: the alternative candidate profile
    # (1,2,2,1,1) reported elsewhere for this curve has length 7 and fails the
    # oracle count of 6; the oracle adjudicates, so that candidate is rejected.
    assert profile != (1, 2, 2, 1, 1)
    elapsed = time.time() - t0
    print(f"PASS criterion 3: type 2 exact; profile {profile} agrees with the "
          f"semigroup oracle and rejects (1,2,2,1,1) ({elapsed:.2f}s)")


def test_criterion_4_roundtrip_bijection(curve):
    t0 = time.time()
    suite = [("curve", curve[1], 9)] + theorem_class_suite()
    assert len(suite) >= 10
    for name, I, B in suite:
        tower = dual_tower(I, B)
        H = section_lift(tower)
        res = reconstruct(H)
        assert res.stable, f"{name}: reconstruction did not stabilize at bound {B}"
        assert res.ideal.equals(I), f"{name}: reconstructed ideal differs"
        # reverse composite: the recovered ideal induces the same tower
        tower2 = dual_tower(res.ideal, B)
        for m in grid(tower.d, B):
            assert tower2.stage(m).equals(tower.stage(m)), (
                f"{name}: W at {m} differs after the roundtrip"
            )
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 4: roundtrip bijection exact on {len(suite)} ideals ({elapsed:.2f}s < 300s)")


def test_criterion_5_duality_property_suite():
    t0 = time.time()
    ideals = random_primary_ideals(50, seed=7)
    assert len(ideals) >= 50
    for I in ideals:
        hd = hilbert_data(I)
        assert hd.length <= 20
        W = perp_ideal(I)
        assert W.dim == hd.length  # length preservation
        assert equal_as_artinian(perp_module(W), I)  # double perp
    # lattice laws on pairs sharing a context
    rng = random.Random(40)
    pairs = 0
    i = 0
    while pairs < 20 and i + 1 < len(ideals):
        A, B = ideals[i], ideals[i + 1]
        i += 1
        if not A.ring.same_as(B.ring):
            continue
        pairs += 1
        bound = max(perp_ideal(A).degbound, perp_ideal(B).degbound)
        WA = perp_ideal(A, degbound=bound)
        WB = perp_ideal(B, degbound=bound)
        assert perp_ideal(A.plus(B), degbound=bound).equals(WA.intersect(WB))
        assert perp_ideal(ideal_intersect(A, B), degbound=bound).equals(WA.sum_with(WB))
    assert pairs >= 20
    elapsed = time.time() - t0
    print(f"PASS criterion 5: duality laws exact on 50 ideals, {pairs} lattice pairs ({elapsed:.2f}s)")


def _random_regular_instances(count, seed=19):
    from invsys import DegenerateInputError, is_regular

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        ctx = context_from_names(",".join(f"v{i}" for i in range(n)))
        variables = [ctx.variable(i) for i in range(n)]
        s = rng.choice([1, 2])
        seq = []
        for j in range(s):
            f = variables[j]
            if rng.random() < 0.5:
                f = f + rng.choice([-1, 1]) * variables[(j + 1) % n]
            seq.append(f)
        # a complete intersection on the remaining variables keeps things small
        I = Ideal(ctx, [variables[-1] ** rng.choice([2, 3])] if s < n and rng.random() < 0.4 else [])
        current = I
        good = True
        for f in seq:
            try:
                good = is_regular(f, current)
            except DegenerateInputError:
                good = False
            if not good:
                break
            current = current.plus([f])
        if good:
            out.append((ctx, I, seq))
    return out


def test_criterion_6_section_one_identities(curve):
    t0 = time.time()
    # (i) Rees dimension checks on random regular sequences, levels <= 4
    passed = 0
    for ctx, I, seq in _random_regular_instances(20):
        rep = rees_dimension_check(seq, I, 4, degcap=2)
        assert rep.regular and rep.passed
        passed += 1
    assert passed >= 20
    # (ii) planted non-regular sequences are rejected
    rejected = 0
    ctx2 = context_from_names("x,y")
    x, y = ctx2.variable(0), ctx2.variable(1)
    planted = [
        ([x, x * y], Ideal(ctx2, [])),
        ([x * y], Ideal(ctx2, [x ** 2])),
        ([y, x * y], Ideal(ctx2, [])),
        ([x + y, (x + y) * x], Ideal(ctx2, [])),
        ([x, x ** 2], Ideal(ctx2, [])),
        ([y ** 2, x * y ** 2], Ideal(ctx2, [])),
    ]
    for seq, I in planted:
        rep = rees_dimension_check(seq, I, 2, degcap=2)
        assert not rep.regular and not rep.passed
        rejected += 1
    assert rejected >= 5
    # (iii) diagonal monoid ideals have socle {m - 1}
    import itertools as it

    for t in (1, 2, 3):
        for m in it.product(range(1, 6), repeat=t):
            assert diagonal_monoid_ideal(m).socle() == [tuple(k - 1 for k in m)]
    # (iv) random monoid ideals against the brute-force box oracle
    rng = random.Random(77)
    checked = 0
    while checked < 50:
        t = rng.choice([1, 2, 3])
        gens = {tuple(rng.randint(0, 4) for _ in range(t)) for _ in range(rng.randint(1, 4))}
        gens = tuple(sorted(g for g in gens if any(g)))
        if not gens:
            continue
        M = MonoidIdeal(t, gens)
        assert M.socle() == monoid_socle_oracle(gens, t)
        checked += 1
    # (v) the socle product identity on every suite instance
    instances = 0
    for name, I, B in [("curve", curve[1], 3)] + theorem_class_suite():
        ctx = I.ring
        seq = [ctx.variable(i) for i in ctx.zindices]
        for m in (1, 2, 3):
            rep = socle_product_check(I, seq, diagonal_monoid_ideal((m,) * len(seq)))
            assert rep.passed, f"{name} at diagonal {m}"
            instances += 1
    elapsed = time.time() - t0
    print(f"PASS criterion 6: Rees checks (20 pass, {rejected} rejected), monoid socles "
          f"(155 diagonal + 50 random), socle product on {instances} instances ({elapsed:.2f}s)")


def test_criterion_7_verification_and_mutations(curve, curve_H9):
    t0 = time.time()
    # every family produced by the pipeline passes all conditions
    H7 = section_lift(dual_tower(curve[1], 7))
    assert verify_lis(H7).passed
    assert verify_lis(curve_H9).passed
    suite_H = []
    for name, I, B in theorem_class_suite():
        H = section_lift(dual_tower(I, B))
        suite_H.append((name, H))
        assert verify_lis(H).passed, name
    # three systematic mutations fail with correct witnesses
    ctx = curve[0]
    H = H7
    fam = dict(H.family)
    fam[(2,)] = tuple(ctx.dual.zero() for _ in fam[(2,)])
    rep = verify_lis(LimitInverseSystem(ctx, H.d, H.r, H.s, H.bound, fam))
    assert not rep.passed
    assert any(c.m == (2,) for c in rep.failures())

    fam = dict(H.family)
    fam[(3,)] = (fam[(3,)][0] + ctx.dual.parse("W^9"), fam[(3,)][1])
    rep = verify_lis(LimitInverseSystem(ctx, H.d, H.r, H.s, H.bound, fam))
    assert not rep.passed
    assert any(c.condition == "d" and not c.ok and c.m == (3,) for c in rep.checks)

    fam = dict(H.family)
    fam[(4,)] = (fam[(4,)][1], fam[(4,)][0])  # swap breaks entrywise compatibility
    rep = verify_lis(LimitInverseSystem(ctx, H.d, H.r, H.s, H.bound, fam))
    assert not rep.passed
    assert any(c.condition == "compat" and not c.ok for c in rep.failures())
    elapsed = time.time() - t0
    print(f"PASS criterion 7: verification passes on pipeline families "
          f"({2 + len(suite_H)} systems) and flags all 3 mutations ({elapsed:.2f}s)")
