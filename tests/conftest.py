import random
from pathlib import Path

import pytest

from invsys import Ideal, context_from_names, is_regular
from invsys.io import parse_ideal_file
from invsys.duality import DualModule, contract_exp
from invsys.limitsys import LimitInverseSystem, dual_tower, grid, section_lift
from invsys.ring import GREVLEX

DATA = Path(__file__).resolve().parent.parent / "data"

# the H-listing of the curve example, per stage, in dual variables
CURVE_H_LISTING = {
    1: ["Y^3", "Z^2"],
    2: ["X*Y^3+Y^2*W", "X*Z^2+Y^4"],
    3: ["X^2*Y^3+X*Y^2*W+Y*W^2+Z^3", "X^2*Z^2+X*Y^4+Y^3*W"],
    4: [
        "X^3*Y^3+X^2*Y^2*W+X*Y*W^2+X*Z^3+Y^4*Z+W^3",
        "X^3*Z^2+X^2*Y^4+X*Y^3*W+Y*Z^3+Y^2*W^2",
    ],
    5: [
        "X^4*Y^3+X^3*Y^2*W+X^2*Y*W^2+X^2*Z^3+X*Y^4*Z+X*W^3+Y^3*Z*W",
        "X^4*Z^2+X^3*Y^4+X^2*Y^3*W+X*Y*Z^3+X*Y^2*W^2+Z^3*W+Y*W^3+Y^5*Z",
    ],
    6: [
        "X^5*Y^3+X^3*Z^3+X^4*Y^2*W+X^3*Y*W^2+X^2*Y^4*Z+X^2*W^3+X*Y^3*Z*W+Y^2*Z*W^2+Y*Z^4",
        "X^5*Z^2+X^4*Y^4+X^3*Y^3*W+X^2*Y*Z^3+X^2*Y^2*W^2+X*Z^3*W+X*Y*W^3+X*Y^5*Z+Y^4*Z*W+W^4",
    ],
    7: [
        "X^6*Y^3+X^5*Y^2*W+X^4*Z^3+X^4*Y*W^2+X^3*Y^4*Z+X^3*W^3+X^2*Y^3*Z*W+X*Y^2*Z*W^2"
        "+X*Y*Z^4+Z^4*W+Y*Z*W^3+Y^5*Z^2",
        "X^6*Z^2+X^5*Y^4+X^4*Y^3*W+X^3*Y*Z^3+X^3*Y^2*W^2+X^2*Z^3*W+X^2*Y*W^3+X^2*Y^5*Z"
        "+X*Y^4*Z*W+X*W^4+Y^2*Z^4+Y^3*Z*W^2",
    ],
}


@pytest.fixture(scope="session")
def curve():
    """The local curve example: semigroup (6,7,11,13), z-block {x}."""
    text = (DATA / "example.ideal").read_text()
    ctx, ideal = parse_ideal_file(text)
    return ctx, ideal


@pytest.fixture(scope="session")
def curve_tower9(curve):
    ctx, ideal = curve
    return dual_tower(ideal, 9)


@pytest.fixture(scope="session")
def curve_H9(curve_tower9):
    return section_lift(curve_tower9)


def random_polynomial(ctx, rng, maxdeg, terms=3, homogeneous=False, degree=None):
    exps = []
    if homogeneous:
        pool = list(ctx.exponents_of_degree(degree))
    else:
        pool = [e for e in ctx.exponents_upto(maxdeg) if sum(e) >= 1]
    p = ctx.zero()
    for _ in range(terms):
        e = rng.choice(pool)
        c = rng.choice([-2, -1, 1, 2])
        p = p + ctx.monomial(e, c)
    return p


def random_primary_ideals(count, seed=7):
    """m-primary ideals in <= 3 variables with quotient length <= 20."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([1, 2, 3])
        ctx = context_from_names(",".join(f"x{i}" for i in range(n)))
        D = rng.choice([2, 3, 4] if n < 3 else [2, 3, 4])
        gens = [ctx.monomial(e) for e in ctx.exponents_of_degree(D)]
        for _ in range(rng.randint(1, 3)):
            gens.append(random_polynomial(ctx, rng, D - 1))
        gens = [g for g in gens if not g.is_zero()]
        out.append(Ideal(ctx, gens))
    return out


def theorem_class_suite(seed=11, randoms=7):
    """Ideals with the z-block mapping to a regular sequence, plus bounds.

    Returns (name, ideal, bound) triples: the curve example, the two
    principal calibration ideals, and random graded complete intersections
    in <= 4 variables with one- or two-variable z-blocks.
    """
    out = []
    ctxyz = context_from_names("y,z", zvars="z")
    yv = ctxyz.variable(0)
    out.append(("y2", Ideal(ctxyz, [yv**2]), 3))
    out.append(("y3", Ideal(ctxyz, [yv**3]), 3))
    rng = random.Random(seed)
    made = 0
    attempt = 0
    while made < randoms and attempt < 200:
        attempt += 1
        d = rng.choice([1, 2])
        ny = rng.choice([1, 2])
        names = [f"y{i}" for i in range(ny)] + [f"z{i}" for i in range(d)]
        ctx = context_from_names(",".join(names), zvars=",".join(names[ny:]))
        gens = []
        for i in range(ny):
            deg = rng.choice([2, 3])
            lead = ctx.variable(i) ** deg
            extra = random_polynomial(ctx, rng, 0, terms=rng.choice([0, 1, 2]),
                                      homogeneous=True, degree=deg)
            g = lead + extra
            if g.is_zero():
                g = lead
            gens.append(g)
        I = Ideal(ctx, gens)
        try:
            ok = all(
                is_regular(ctx.variable(ctx.zindices[j]),
                           I.plus([ctx.variable(ctx.zindices[i]) for i in range(j)]))
                for j in range(d)
            )
            if ok:
                from invsys import artinian_bound

                artinian_bound(
                    I.plus([ctx.variable(i) for i in ctx.zindices]), ceiling=32
                )
        except Exception:
            ok = False
        if not ok:
            continue
        made += 1
        # generators with z-tails reveal themselves one stage later per
        # z-degree, so mixed instances get a larger reconstruction bound
        zset = set(ctx.zindices)
        mixed = any(any(e[i] for i in zset) for g in gens for e in g.terms)
        out.append((f"ci{made}", I, 5 if mixed else 3))
    return out


def stage_closure(H, m, order=GREVLEX):
    """P.H_m as its own contraction closure in order, with the degree bound
    LimitInverseSystem.module_at gives it."""
    return DualModule.generate(H.ring, H.family[m], degbound=max(sum(m) + H.s - H.d, 0), order=order)


def top_family(ctx, B, s, top):
    """The type-one family H_m = z^(B - m) . top over the grid {1..B}^d."""
    d = len(ctx.zindices)
    family = {}
    for m in grid(d, B):
        e = [0] * ctx.nvars
        for i, k in zip(ctx.zindices, m):
            e[i] = B - k
        family[m] = (contract_exp(tuple(e), top),)
    return LimitInverseSystem(ctx, d, 1, s, B, family)


def non_free_family(B):
    """H_B = Y*Z^(B-1) + Y^B over y,z with z-block z, and H_k = z^(B-k) . H_B.

    It passes (a), (b), compatibility and (d), but for B >= 4 W_B is not
    free over K[z]/(z^B): Y^(B-2) = y^2 . H_B lies in W_B cap V yet not in
    W_(B-1), so (c) fails at m = (B,) alone.
    """
    ctx = context_from_names("y,z", zvars="z")
    return top_family(ctx, B, 1, ctx.dual.parse(f"Y*Z^{B - 1} + Y^{B}"))


def non_free_family_d2():
    """A d = 2 family at B = 3 that passes (a), (b), compatibility and (d)
    but whose top module is not free over K[z0,z1]/(z0^3, z1^3); its (c)
    fails at (3,3)."""
    ctx = context_from_names("y,z0,z1", zvars="z0,z1")
    top = ctx.dual.parse("-Y^5 - Y^2*Z0^2*Z1 + 2*Y*Z0^2*Z1^2 + 2*Z1")
    return top_family(ctx, 3, 1, top)
