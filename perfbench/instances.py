"""Seeded inputs for the benchmark workloads.

Every workload has fixed base instances.  The seed picks a signed change of
coordinates x_i -> +-x_i for each instance and the order in which instances
run.  A signed change of coordinates is a graded automorphism that keeps the
z-block, so the program sees different input text on every seed while the
work it does (and therefore the time it takes) stays the same; that is what
makes runs on different seeds comparable.  Each signed variant has its own
golden limit file in goldens.json.
"""

from __future__ import annotations

import itertools
import random

from invsys import Ideal, artinian_bound, context_from_names, is_regular
from invsys.errors import InvsysError
from invsys.io import parse_ideal_file, render_ideal_file
from invsys.ring import Polynomial

# The paper's worked example: the irreducible algebroid curve with semigroup
# generated by 6, 7, 11, 13 (the same ideal as data/example.ideal).
CURVE_TEXT = """\
field Q
ring local vars x,y,z,w
zvars x
ideal:
w - x*y
y*z - x^3
x*z^2 - y^4
z^3 - x^2*y^3
y^5 - x^4*z
"""

# Generator seed and instance count of the d = 2 complete intersections.  One
# instance keeps set-up short enough for several rounds per run; at bound 5 it
# costs about two thirds of the test suite's ci6 (y0^3 - y1^3 + y0^2*z0, y1^3).
CI_SEED = 5
CI_COUNT = 1

# Criterion 6(ii) of the acceptance gate: sequences that are not regular
# modulo the given ideal, as (sequence, ideal generators) over K[x,y].
PLANTED = (
    (("x", "x*y"), ()),
    (("x*y",), ("x^2",)),
    (("y", "x*y"), ()),
    (("x + y", "(x + y)*x"), ()),
    (("x", "x^2"), ()),
    (("y^2", "x*y^2"), ()),
)


def _random_form(ctx, rng, degree, terms):
    pool = list(ctx.exponents_of_degree(degree))
    p = ctx.zero()
    for _ in range(terms):
        p = p + ctx.monomial(rng.choice(pool), rng.choice([-2, -1, 1, 2]))
    return p


def complete_intersections():
    """Random graded complete intersections in y0,y1,z0,z1, z-block z0,z1.

    Built like theorem_class_suite in tests/conftest.py with d = 2: generator
    i is y_i^deg plus a random form of the same degree.  Only instances with
    a z-term are kept, and only those of z-degree at most 2, because each
    z-degree delays reconstruction by one stage and bound 5 must reach the
    plateau.  Each kept instance passes the suite's own checks: z0, z1 is a
    regular sequence and I + <z0, z1> is Artinian.
    """
    rng = random.Random(CI_SEED)
    ctx = context_from_names("y0,y1,z0,z1", zvars="z0,z1")
    z = [ctx.variable(i) for i in ctx.zindices]
    out = []
    for _ in range(200):
        if len(out) == CI_COUNT:
            break
        gens = []
        for i in range(2):
            deg = rng.choice([2, 3])
            lead = ctx.variable(i) ** deg
            g = lead + _random_form(ctx, rng, deg, rng.choice([0, 1, 2]))
            gens.append(g if not g.is_zero() else lead)
        zdeg = max(sum(e[i] for i in ctx.zindices) for g in gens for e in g.terms)
        if not 1 <= zdeg <= 2:
            continue
        I = Ideal(ctx, gens)
        try:
            ok = is_regular(z[0], I) and is_regular(z[1], I.plus([z[0]]))
            if ok:
                artinian_bound(I.plus(z), ceiling=32)
        except InvsysError:
            ok = False
        if ok:
            out.append(render_ideal_file(ctx, I))
    if len(out) < CI_COUNT:
        raise RuntimeError(f"generator found {len(out)} of {CI_COUNT} instances")
    return out


def _flip(p, signs):
    """p after x_i -> signs[i] * x_i."""
    terms = {}
    for e, c in p.terms.items():
        odd = sum(k for k, s in zip(e, signs) if s < 0) % 2
        terms[e] = -c if odd else c
    return Polynomial(p.ring, terms)


def sign_variant(text, signs):
    """The ideal file text after x_i -> signs[i] * x_i."""
    ctx, ideal = parse_ideal_file(text)
    return render_ideal_file(ctx, Ideal(ctx, [_flip(g, signs) for g in ideal.gens]))


def all_sign_variants(text):
    nvars = len(parse_ideal_file(text)[0].names)
    return [sign_variant(text, s) for s in itertools.product((1, -1), repeat=nvars)]


def random_signs(rng, nvars):
    return tuple(rng.choice((1, -1)) for _ in range(nvars))


def planted_instances(rng):
    """The planted pairs, each as (ideal file text, sequence), seeded signs."""
    ctx = context_from_names("x,y")
    out = []
    for seq, gens in PLANTED:
        signs = random_signs(rng, 2)
        ideal = Ideal(ctx, [_flip(ctx.parse(g), signs) for g in gens])
        seq_text = ",".join(_flip(ctx.parse(f), signs).render() for f in seq)
        out.append((render_ideal_file(ctx, ideal), seq_text))
    rng.shuffle(out)
    return out
