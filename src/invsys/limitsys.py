"""Compatible towers of dual modules and recovery of the defining ideal.

The forward direction reduces a Cohen-Macaulay quotient by powers of the
z-block, dualizes each Artinian stage, and lifts a compatible family {H_m}
of socle representatives along the diagonal.  The backward direction
annihilates the generated submodules stage by stage and extracts the
stabilized generator set.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field

from .duality import DualModule, contract_exp, minimal_cogenerators, perp_ideal, perp_module, socle_basis
from .errors import PipelineError, UnboundedQuotientError
from .groebner import (
    DEFAULT_CEILING,
    Ideal,
    artinian_form,
    hilbert_data,
    is_regular,
)
from .linalg import Echelon, echelon_basis, solve_in_span
from .ring import GREVLEX, e_unit


def _zpower_exp(ring, slot, power):
    return e_unit(ring.nvars, ring.zindices[slot], power)


def grid(d, B):
    """All multi-indices in {1..B}^d, lexicographic; the single () for d=0."""
    return list(itertools.product(range(1, B + 1), repeat=d))


def diag(d, k):
    return (k,) * d


@dataclass(frozen=True)
class VSpace:
    """The degree-and-z_j-bounded monomial submodule of D used by condition (c).

    Realized two ways: as its perp ideal <x>^(|m|+k+1) + <z_j^(m_j - 1)>, and
    as the monomial slice {X^kappa : |kappa| <= |m|+k, kappa_(z_j) < m_j - 1}.
    """

    j: int  # z-slot, 0-based
    k: int
    m: tuple

    def perp_generators(self, ring):
        total = sum(self.m) + self.k + 1
        gens = [ring.monomial(e) for e in ring.exponents_of_degree(total)]
        power = self.m[self.j] - 1
        zexp = _zpower_exp(ring, self.j, power)
        if power >= 0:
            gens.append(ring.monomial(zexp))
        return gens

    def contains(self, ring, e):
        """True when the dual monomial X^e lies in the slice."""
        return sum(e) <= sum(self.m) + self.k and e[ring.zindices[self.j]] < self.m[self.j] - 1

    def slice_exponents(self, ring):
        zi = ring.zindices[self.j]
        limit = self.m[self.j] - 1
        total = sum(self.m) + self.k
        for e in ring.exponents_upto(total):
            if e[zi] < limit:
                yield e

    def meet(self, W, order=GREVLEX):
        """Canonical echelon basis of W cap V, as term dicts.

        V is a coordinate subspace, so echelonizing W's basis with every
        column outside V keyed above every column inside V leaves the rows
        whose pivot lies in V as a basis of the intersection.
        """
        ring = W.ring
        key = order.key
        ech = Echelon(ring.field, lambda e: (not self.contains(ring, e), key(e)))
        ech.extend(F.terms for F in W.basis)
        inside = [row for pivot, row in ech.rows.items() if self.contains(ring, pivot)]
        return echelon_basis(ring.field, key, inside)


@dataclass
class LimitInverseSystem:
    """Compatible family {H_m} up to a bound, with its numeric invariants."""

    ring: object
    d: int
    r: int
    s: int
    bound: int
    family: dict  # m in {1..B}^d -> tuple of dual Polynomials

    def stages(self):
        return sorted(self.family)

    def module_at(self, m, order=GREVLEX):
        elems = self.family.get(tuple(m), ())
        bound = sum(m) + self.s - self.d if self.d else self.s
        return DualModule.generate(self.ring, elems, degbound=max(bound, 0), order=order)


class LazyStages(Mapping):
    """Read-only map m -> build(m) over fixed keys; each value is built on first read."""

    def __init__(self, keys, build):
        self._values = dict.fromkeys(keys)
        self._build = build

    def __getitem__(self, m):
        value = self._values[m]
        if value is None:
            value = self._values[m] = self._build(m)
        return value

    def __contains__(self, m):
        return m in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


@dataclass
class DualTower:
    """The family W_m = (I_m)^perp for m in the grid, plus stage metadata."""

    ring: object
    d: int
    bound: int
    s: int
    modules: Mapping  # m -> DualModule, built on first read


def artinian_reduction(I, m, order=GREVLEX, ceiling=DEFAULT_CEILING, hint=None):
    """The ideal I + <z_i^(m_i)>, checked Artinian.

    Raises PipelineError when the reduction is not Artinian, which means the
    z-block does not map to a maximal regular sequence for this input.
    """
    ring = I.ring
    m = tuple(m)
    if len(m) != len(ring.zindices):
        raise PipelineError(
            f"multi-index {m} does not match the z-block {ring.zvars}"
        )
    if any(k < 1 for k in m):
        raise PipelineError(f"multi-index {m} must be >= 1 componentwise")
    powers = [
        ring.monomial(_zpower_exp(ring, slot, k)) for slot, k in enumerate(m)
    ]
    red = I.plus(powers)
    try:
        artinian_form(red, order, ceiling, hint=hint)
    except UnboundedQuotientError as exc:
        raise PipelineError(
            f"reduction of {I!r} at {m} is not Artinian: "
            "the z-block must map to a maximal regular sequence"
        ) from exc
    return red


def check_z_regularity(I, order=GREVLEX):
    """Sequential nonzerodivisor test for the z-block variables modulo I."""
    ring = I.ring
    current = I
    for slot, zi in enumerate(ring.zindices):
        f = ring.variable(zi)
        try:
            ok = is_regular(f, current, order)
        except Exception as exc:
            raise PipelineError(
                f"variable {ring.zvars[slot]!r} is not regular modulo the ideal: {exc}"
            ) from exc
        if not ok:
            raise PipelineError(
                f"variable {ring.zvars[slot]!r} is not regular modulo the ideal "
                "(colon grows); the input is outside the correspondence class"
            )
        current = current.plus([f])


def dual_tower(I, B, order=GREVLEX, ceiling=DEFAULT_CEILING, trust_regular=False):
    """W_m = perp of the Artinian reduction at m, for every m in {1..B}^d.

    Only the first reduction is computed here; each stage is built when it
    is first read, so a caller that reads the diagonal pays for B stages,
    not B^d.
    """
    ring = I.ring
    d = len(ring.zindices)
    if not trust_regular and d > 0:
        check_z_regularity(I, order)
    one = diag(d, 1)
    I1 = artinian_reduction(I, one, order, ceiling)
    s = hilbert_data(I1, order, ceiling).socle_degree

    def stage(m):
        if m == one:
            red = I1
        else:
            red = artinian_reduction(I, m, order, ceiling, hint=sum(m) + s - d + 1)
        J, N = artinian_form(red, order, ceiling)
        return perp_ideal(J, degbound=N - 1, order=order, ceiling=ceiling)

    return DualTower(ring, d, B, s, LazyStages(grid(d, B), stage))


def section_lift(tower, B=None, order=GREVLEX):
    """Canonical compatible family through the tower, built along the diagonal.

    H at the diagonal start is the echelon set of minimal cogenerators; each
    next diagonal stage solves (z_1...z_d) . F = h inside W with the
    echelon-canonical solution; off-diagonal stages are contractions from the
    smallest dominating diagonal stage, which makes compatibility automatic.
    """
    ring = tower.ring
    d = tower.d
    B = tower.bound if B is None else B
    if B > tower.bound:
        raise PipelineError(f"requested bound {B} exceeds the tower bound {tower.bound}")
    fld = ring.field
    s = tower.s
    family = {}
    H1 = minimal_cogenerators(tower.modules[diag(d, 1)], order)
    r = len(H1)
    if r == 0:
        raise PipelineError("zero socle at the first stage; the quotient is trivial")
    family[diag(d, 1)] = tuple(H1)
    if d == 0:
        return LimitInverseSystem(ring, 0, r, s, B, family)
    zprod = tuple(
        1 if i in set(ring.zindices) else 0 for i in range(ring.nvars)
    )
    for k in range(1, B):
        Wn = tower.modules[diag(d, k + 1)]
        rows = [contract_exp(zprod, F).terms for F in Wn.basis]
        lifts = []
        for h in family[diag(d, k)]:
            sol = solve_in_span(fld, order.key, rows, h.terms)
            if sol is None:
                raise PipelineError(
                    f"no lift of a stage-{k} cogenerator into stage {k + 1}; "
                    "the canonical surjection failed, input is outside the class"
                )
            F = ring.dual.zero()
            for c, base in zip(sol, Wn.basis):
                if c != fld.zero:
                    F = F + base * c
            lifts.append(F)
        family[diag(d, k + 1)] = tuple(lifts)
    for m in grid(d, B):
        if m in family:
            continue
        k = max(m)
        e = tuple(
            sum(
                (k - m[slot]) if i == ring.zindices[slot] else 0
                for slot in range(d)
            )
            for i in range(ring.nvars)
        )
        family[m] = tuple(contract_exp(e, F) for F in family[diag(d, k)])
    return LimitInverseSystem(ring, d, r, s, B, family)


# ---------------------------------------------------------------------------
# verification of the limit-system conditions


@dataclass
class LisCheck:
    condition: str
    m: tuple
    ok: bool
    detail: str = ""


@dataclass
class LisReport:
    checks: list = dc_field(default_factory=list)

    def add(self, condition, m, ok, detail=""):
        self.checks.append(LisCheck(condition, tuple(m) if m is not None else None, ok, detail))

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def by_condition(self):
        out = {}
        for c in self.checks:
            out.setdefault(c.condition, []).append(c)
        return out


def verify_lis(H, order=GREVLEX):
    """Check the four limit-inverse-system conditions plus compatibility.

    (a) each stage spans an r-dimensional space; (b) the support starts
    exactly at the all-ones stage, i.e. H_1 is nonzero and z_i^(m_i) kills
    H_m; (c) W_m meets the V-space inside W_(m - e_j); (d) the top degree of
    H_m is |m| + s - d.  Failures carry witnesses.
    """
    ring = H.ring
    d, r, s, B = H.d, H.r, H.s, H.bound
    rep = LisReport()
    if d == 0:
        elems = H.family.get((), ())
        ech = Echelon(ring.field, order.key)
        for F in elems:
            ech.insert(F.terms)
        rep.add("a", (), ech.rank == r, f"dim {ech.rank} vs r = {r}")
        rep.add("b", (), bool(elems) and any(not F.is_zero() for F in elems), "H nonzero")
        degs = [F.degree for F in elems if not F.is_zero()]
        top = max(degs) if degs else float("-inf")
        rep.add("d", (), top == s, f"max deg {top} vs s = {s}")
        rep.add("s-consistency", (), top == s, "max deg H_1 = s")
        return rep

    stages = grid(d, B)
    modules = {m: H.module_at(m, order) for m in stages}
    zero_mod = DualModule(ring, 0, [], order)

    for m in stages:
        elems = H.family.get(m, ())
        ech = Echelon(ring.field, order.key)
        for F in elems:
            ech.insert(F.terms)
        rep.add("a", m, ech.rank == r, f"dim span H_m = {ech.rank}, r = {r}")

    # (b): support condition, made computable by Remark-29a kills
    one = diag(d, 1)
    h1 = H.family.get(one, ())
    rep.add("b", one, any(not F.is_zero() for F in h1), "H_1 nonzero")
    for m in stages:
        for slot in range(d):
            e = _zpower_exp(ring, slot, m[slot])
            bad = [F for F in H.family.get(m, ()) if contract_exp(e, F)]
            if bad:
                rep.add(
                    "b",
                    m,
                    False,
                    f"z_{slot + 1}^{m[slot]} does not kill H_m (stage below support is nonzero)",
                )

    # compatibility entrywise with each adjacent stage
    for m in stages:
        for slot in range(d):
            up = tuple(m[i] + (1 if i == slot else 0) for i in range(d))
            if max(up) > B:
                continue
            e = _zpower_exp(ring, slot, 1)
            expected = H.family.get(m, ())
            got = tuple(contract_exp(e, F) for F in H.family.get(up, ()))
            ok = len(expected) == len(got) and all(a == b for a, b in zip(got, expected))
            rep.add(
                "compat",
                m,
                ok,
                f"z-contraction of H at {up} vs stored H at {m}",
            )

    # (d): top degree by the total dual-degree convention
    for m in stages:
        degs = [F.degree for F in H.family.get(m, ()) if not F.is_zero()]
        top = max(degs) if degs else float("-inf")
        want = sum(m) + s - d
        rep.add("d", m, top == want, f"max deg H_m = {top}, |m| + s - d = {want}")
    h1degs = [F.degree for F in h1 if not F.is_zero()]
    rep.add(
        "s-consistency",
        one,
        (max(h1degs) if h1degs else float("-inf")) == s,
        "max deg H_1 = s",
    )

    # (c): W_m cap V^(j, s-d)_m inside W_(m - e_j)
    for m in stages:
        Wm = modules[m]
        for slot in range(d):
            inter = VSpace(slot, s - d, m).meet(Wm, order)
            prev = tuple(m[i] - (1 if i == slot else 0) for i in range(d))
            if all(x >= 1 for x in prev):
                Wprev = modules[prev]
            else:
                Wprev = zero_mod
            ech = Wprev._echelon()
            ok = all(ech.contains(v) for v in inter)
            rep.add(
                "c",
                m,
                ok,
                f"slot {slot + 1}: intersection dim {len(inter)} inside W at {prev}",
            )
    return rep


# ---------------------------------------------------------------------------
# reconstruction


@dataclass
class ReconstructionResult:
    ideal: Ideal
    stable: bool
    stage: int
    diagnostics: str = ""


def reconstruct(H, order=GREVLEX):
    """Recover the defining ideal from a limit inverse system.

    Each diagonal stage contributes the annihilator of the generated
    submodule.  The survivors of a stage are its reduced-basis elements that
    lie in the full finite intersection, i.e. in every computed stage; junk
    congruent to a high z-power modulo the true ideal falls out of some
    visible stage.  Survivors accumulate over stage prefixes, and the result
    is the first plateau of the accumulated ideals; no plateau within the
    bound returns a partial result flagged unstable (caller raises the bound).
    """
    ring = H.ring
    d = H.d
    if d == 0:
        W = H.module_at(())
        return ReconstructionResult(perp_module(W, order), True, 0, "classical duality, no tower")
    B = H.bound
    anns = {}
    for k in range(1, B + 1):
        Wk = H.module_at(diag(d, k), order)
        anns[k] = perp_module(Wk, order)
    # consistency: the annihilators must form a decreasing chain
    for k in range(1, B):
        for g in anns[k + 1].gens:
            if not anns[k].contains(g, order):
                raise PipelineError(
                    f"annihilator chain is not decreasing between stages {k} and {k + 1}; "
                    "the family is not a limit inverse system"
                )
    # survivors of stage K are its basis elements lying in every later stage;
    # membership in earlier stages is automatic since the chain decreases,
    # and the last stage has no later witness, so it contributes none
    stage_range = range(1, B + 1)
    chain = []
    acc = []
    for K in range(1, B):
        acc.extend(
            g
            for g in anns[K].groebner(order)
            if all(anns[n].contains(g, order) for n in range(K + 1, B + 1))
        )
        chain.append(Ideal(ring, list(acc)))

    def reproduces(candidate):
        # the candidate must regenerate every visible stage exactly
        for k in stage_range:
            powers = [
                ring.monomial(_zpower_exp(ring, slot, k)) for slot in range(d)
            ]
            N = anns[k].trunc
            staged = candidate.plus(powers).truncated(N)
            if not staged.equals(anns[k].truncated(N), order):
                return False
        return True

    for K in range(1, len(chain)):
        if chain[K - 1].equals(chain[K], order) and reproduces(chain[K - 1]):
            return ReconstructionResult(
                Ideal(ring, chain[K - 1].groebner(order)),
                True,
                K,
                f"stabilized at stage {K} of {B}",
            )
    return ReconstructionResult(
        Ideal(ring, chain[-1].groebner(order) if chain else []),
        False,
        B,
        "no reproducing plateau within the bound; raise the bound",
    )


def invariants_of(I, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """(d, r, s): z-block size, type, socle degree of the first reduction."""
    ring = I.ring
    d = len(ring.zindices)
    I1 = artinian_reduction(I, diag(d, 1), order, ceiling)
    hd = hilbert_data(I1, order, ceiling)
    r = len(socle_basis(I1, order, ceiling))
    return d, r, hd.socle_degree
