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

from .duality import (
    DualModule,
    contract_exp,
    minimal_cogenerators,
    perp_ideal,
    perp_module,
    socle_basis,
    verify_closed,
)
from .errors import PipelineError, TruncationLimitError, UnboundedQuotientError
from .groebner import (
    DEFAULT_CEILING,
    Ideal,
    artinian_form,
    hilbert_data,
    is_regular,
)
from .linalg import Echelon, coordinate_meet, nested_meet_dims, solve_in_span
from .ring import GREVLEX, Polynomial, e_unit


def _zpower_exp(ring, slot, power):
    return e_unit(ring.nvars, ring.zindices[slot], power)


def grid(d, B):
    """All multi-indices in {1..B}^d, lexicographic; the single () for d=0."""
    return list(iter_grid(d, B))


def iter_grid(d, B):
    """The multi-indices of grid(d, B), one at a time.

    Unlike itertools.product, which first copies each range into a tuple,
    it holds O(d) state, so a huge B costs nothing until it is iterated.
    """
    if d == 0:
        yield ()
        return
    for k in range(1, B + 1):
        for rest in iter_grid(d - 1, B):
            yield (k,) + rest


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
        """Canonical echelon basis of W cap V, as term dicts."""
        ring = W.ring
        rows = (F.terms for F in W.basis)
        return coordinate_meet(
            ring.field, ring.order_key(order), rows, lambda e: self.contains(ring, e)
        )


@dataclass
class LimitInverseSystem:
    """Compatible family {H_m} up to a bound, with its numeric invariants."""

    ring: object
    d: int
    r: int
    s: int
    bound: int
    family: dict  # m in {1..B}^d -> tuple of dual Polynomials
    _modules: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def stages(self):
        return sorted(self.family)

    def module_at(self, m, order=GREVLEX):
        """The module generated by H_m, with degree bound |m| + s - d.

        A stage whose H_m is the z_j-contraction of a stored upper neighbour
        H_(m+e_j), entry by entry, is that neighbour's module contracted by
        z_j (P.H_m = z_j . P.H_(m+e_j)), with the same canonical basis and
        degree bound as its contraction closure.  Only the top stage and
        stages with no compatible upper neighbour run the closure.

        Built once per stage and order: the family is not mutated after
        construction, so verify_lis and reconstruct share the modules.
        """
        sig = order.signature()
        m = tuple(m)
        below = []  # (stage, slot) pairs to contract down to, nearest last
        W = self._modules.get((m, sig))
        while W is None:
            slot = next(
                (j for j in range(self.d) if m[j] < self.bound and _compatible(self, m, j)), None
            )
            if slot is None:
                bound = sum(m) + self.s - self.d if self.d else self.s
                W = DualModule.generate(
                    self.ring, self.family.get(m, ()), degbound=max(bound, 0), order=order
                )
                self._modules[(m, sig)] = W
                break
            below.append((m, slot))
            m = _step(m, slot, 1)
            W = self._modules.get((m, sig))
        for m, slot in reversed(below):
            W = W.contract_by(_zpower_exp(self.ring, slot, 1))
            self._modules[(m, sig)] = W
        return W


def _step(m, slot, delta):
    return m[:slot] + (m[slot] + delta,) + m[slot + 1:]


def _compatible(H, m, slot):
    """True when H_m is the z_slot-contraction of H_(m + e_slot), entrywise."""
    e = _zpower_exp(H.ring, slot, 1)
    got = tuple(contract_exp(e, F) for F in H.family.get(_step(m, slot, 1), ()))
    return got == tuple(H.family.get(m, ()))


class LazyStages(Mapping):
    """Read-only map m -> build(m) over the grid {1..B}^d; each value is built
    on first read.  Membership is a range test and iteration is lazy, so no
    work grows with the B^d keys until they are read."""

    def __init__(self, d, B, build):
        self._d = d
        self._bound = B
        self._values = {}
        self._build = build

    def __getitem__(self, m):
        if m not in self:
            raise KeyError(m)
        value = self._values.get(m)
        if value is None:
            value = self._values[m] = self._build(m)
        return value

    def __contains__(self, m):
        B = self._bound
        return (
            isinstance(m, tuple)
            and len(m) == self._d
            and all(isinstance(k, int) and 1 <= k <= B for k in m)
        )

    def __iter__(self):
        return iter_grid(self._d, self._bound)

    def __len__(self):
        return self._bound ** self._d


@dataclass
class DualTower:
    """The family W_m = (I_m)^perp for m in the grid, plus stage metadata."""

    ring: object
    d: int
    bound: int
    s: int
    modules: Mapping  # m -> DualModule, built on first read


def artinian_reduction(I, m, order=GREVLEX, ceiling=DEFAULT_CEILING, hint=None, certified=None):
    """The ideal I + <z_i^(m_i)>, checked Artinian.

    Raises PipelineError when the reduction is not Artinian, which means the
    z-block does not map to a maximal regular sequence for this input.
    certified names a stage whose reduction is known to be Artinian; every
    reduction has the same radical, so a failure can then only be a
    truncation limit, and the error names the limit and the stage.
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
        if certified is None or not isinstance(exc, TruncationLimitError):
            raise PipelineError(
                f"reduction of {I!r} at {m} is not Artinian: "
                "the z-block must map to a maximal regular sequence"
            ) from exc
        raise PipelineError(
            f"the reduction at {m} is Artinian, as the one at {tuple(certified)} is, "
            f"but its truncation bound was not certified within {exc.limit}"
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

    Only the first reduction, which also gives s, is computed here; each
    stage is built when it is first read.  The first read of any other
    stage builds the top stage (B,...,B) from its reduction.  Every other
    stage is the top stage met with a coordinate subspace: I + <z^m>
    contains I + <z^top>, which contains a power of the maximal ideal, so
    W_m = W_top & span{X^e : e_(z_j) < m_j}, exactly.  Whatever it reads,
    a caller pays for two reductions and one meet per further stage.
    """
    if B < 1:
        raise PipelineError(f"tower bound {B} must be at least 1")
    ring = I.ring
    d = len(ring.zindices)
    if not trust_regular and d > 0:
        check_z_regularity(I, order)
    one = diag(d, 1)
    top = diag(d, B)
    I1 = artinian_reduction(I, one, order, ceiling)
    s = hilbert_data(I1, order, ceiling).socle_degree

    def stage(m):
        if m == one:
            red = I1
        elif m == top:
            hint = sum(m) + s - d + 1
            red = artinian_reduction(I, m, order, ceiling, hint=hint, certified=one)
        else:
            return _stage_below(modules[top], m)
        J, N = artinian_form(red, order, ceiling)
        return perp_ideal(J, degbound=N - 1, order=order, ceiling=ceiling)

    modules = LazyStages(d, B, stage)
    return DualTower(ring, d, B, s, modules)


def _stage_below(W, m):
    """W met with span{X^e : e_(z_j) < m_j}, checked closed.

    Its degree bound is its top degree, which is the N - 1 of its own
    reduction: an inverse system reaches the socle degree of its quotient.
    """
    ring = W.ring
    zi = ring.zindices
    rows = coordinate_meet(
        ring.field,
        ring.order_key(W.order),
        (F.terms for F in W.basis),
        lambda e: all(e[i] < k for i, k in zip(zi, m)),
    )
    basis = [Polynomial(ring.dual, row, _clean=False) for row in rows]
    degbound = max((F.degree for F in basis), default=0)
    Wm = DualModule(ring, degbound, basis, W.order, _canonical=True)
    verify_closed(Wm)
    return Wm


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
        targets = [h.terms for h in family[diag(d, k)]]
        for sol in solve_in_span(fld, ring.order_key(order), rows, targets):
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


def verify_lis(H, order=GREVLEX):
    """Check the four limit-inverse-system conditions plus compatibility.

    (a) each stage spans an r-dimensional space; (b) the support starts
    exactly at the all-ones stage, i.e. H_1 is nonzero and z_i^(m_i) kills
    H_m; (c) W_m meets the V-space inside W_(m - e_j); (d) the top degree of
    H_m is |m| + s - d.  Failures carry witnesses.

    When every compat, (b) and (d) check passes, W_m lies in degrees
    <= |m| + s - d and W_(m - e_j) = z_j . W_m is killed by z_j^(m_j - 1), so
    W_m cap V is the kernel of z_j^(m_j - 1) on W_m and (c) is the identity
    dim W_m - dim W_(m with m_j = 1) = dim W_(m - e_j) (0 when m_j = 1):
    freeness of W_m over K[z_j]/(z_j^m_j).  Otherwise (c) meets W_m with the
    V-space and tests containment in W_(m - e_j) directly.
    """
    ring = H.ring
    d, r, s, B = H.d, H.r, H.s, H.bound
    rep = LisReport()
    if d == 0:
        elems = H.family.get((), ())
        ech = Echelon(ring.field, ring.order_key(order))
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
    zero_mod = DualModule(ring, 0, [], order)

    for m in stages:
        elems = H.family.get(m, ())
        ech = Echelon(ring.field, ring.order_key(order))
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
            if m[slot] < B:
                up = _step(m, slot, 1)
                rep.add(
                    "compat",
                    m,
                    _compatible(H, m, slot),
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
    by_dims = all(c.ok for c in rep.checks if c.condition in ("b", "compat", "d"))
    for m in stages:
        Wm = H.module_at(m, order)
        for slot in range(d):
            prev = _step(m, slot, -1)
            if by_dims:
                # W_m sits in degrees <= |m|+s-d, so W_m cap V is the kernel of
                # z_j^(m_j-1) on W_m, whose image is W at m_j = 1
                base = H.module_at(_step(m, slot, 1 - m[slot]), order)
                dim = Wm.dim - base.dim
                ok = dim == (H.module_at(prev, order).dim if m[slot] > 1 else 0)
            else:
                inter = VSpace(slot, s - d, m).meet(Wm, order)
                dim = len(inter)
                Wprev = H.module_at(prev, order) if m[slot] > 1 else zero_mod
                ech = Wprev._echelon()
                ok = all(ech.contains(v) for v in inter)
            rep.add(
                "c",
                m,
                ok,
                f"slot {slot + 1}: intersection dim {dim} inside W at {prev}",
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
    is the first plateau of the accumulated ideals that reproduces every
    visible stage (one kernel for the plateau, then a containment and a
    length test per stage; see reproduces) and on which the z-block is a
    regular sequence, as the correspondence requires.  No such plateau
    within the bound returns a partial result flagged unstable (caller
    raises the bound).
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
    chain = []
    acc = []
    for K in range(1, B):
        acc.extend(
            g
            for g in anns[K].groebner(order)
            if all(anns[n].contains(g, order) for n in range(K + 1, B + 1))
        )
        chain.append(Ideal(ring, list(acc)))

    for K in range(1, len(chain)):
        if not chain[K - 1].equals(chain[K], order):
            continue
        plateau = Ideal(ring, chain[K - 1].groebner(order))
        if reproduces(plateau, anns) and _z_regular(plateau, order):
            return ReconstructionResult(plateau, True, K, f"stabilized at stage {K} of {B}")
    return ReconstructionResult(
        Ideal(ring, chain[-1].groebner(order) if chain else []),
        False,
        B,
        "no reproducing plateau within the bound; raise the bound",
    )


def _z_regular(candidate, order):
    """True when the z-block is a regular sequence modulo candidate.

    The correspondence covers only such ideals.  A pass is never a false
    positive: a nonzerodivisor on K[x]/J stays one after localizing and
    completing, which are flat; a false negative only asks for a higher
    bound.
    """
    try:
        check_z_regularity(candidate, order)
    except PipelineError:
        return False
    return True


def reproduces(candidate, anns):
    """True when candidate + <z^k> + m^(N_k) equals anns[k] for every k.

    anns maps each visible diagonal stage k to its annihilator, an ideal
    truncated at N_k, where N_k must not decrease with k.  Ideals that
    contain m^N are equal exactly when one contains the other and their
    quotients have the same length.  Each generator of candidate + <z^k> is
    looked up in the kernel anns[k] carries.  The lengths come from one
    kernel and one echelon: with B the largest stage and N the largest N_k,
    every C_k = candidate + <z^k> + m^(N_k) contains
    J = candidate + <z^B> + m^N, so the perp of C_k is the perp of J met
    with S_k = span{X^e : |e| < N_k, e_(z_j) < k}.  The S_k are nested, so
    one echelon of perp(J), keyed first by the stage each monomial enters,
    gives every dim(perp(J) & S_k) (linalg.nested_meet_dims).  Lengths do
    not depend on the order, so everything runs in grevlex.
    """
    ring = candidate.ring
    zi = ring.zindices
    ks = sorted(anns)
    Ns = [anns[k].trunc for k in ks]
    if any(a > b for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"annihilator truncations {Ns} decrease along the stages {ks}")

    def zpowers(k):
        return [ring.monomial(_zpower_exp(ring, slot, k)) for slot in range(len(zi))]

    for k, A in anns.items():
        if not all(A.contains(g) for g in itertools.chain(candidate.gens, zpowers(k))):
            return False
    N = Ns[-1]
    J = candidate.plus(zpowers(ks[-1])).truncated(N)
    rows = [F.terms for F in perp_ideal(J, degbound=N - 1).basis]

    def entry(e):
        # the first stage whose S_k holds X^e, len(ks) for none
        deg = sum(e)
        zmax = max((e[i] for i in zi), default=-1)
        return next((j for j, k in enumerate(ks) if zmax < k and deg < Ns[j]), len(ks))

    dims = nested_meet_dims(ring.field, ring.order_key(GREVLEX), rows, entry, len(ks))
    return all(dim == anns[k].quotient().length for dim, k in zip(dims, ks))


def invariants_of(I, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """(d, r, s): z-block size, type, socle degree of the first reduction."""
    ring = I.ring
    d = len(ring.zindices)
    I1 = artinian_reduction(I, diag(d, 1), order, ceiling)
    hd = hilbert_data(I1, order, ceiling)
    r = len(socle_basis(I1, order, ceiling))
    return d, r, hd.socle_degree
