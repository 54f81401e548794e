"""Compatible towers of dual modules and recovery of the defining ideal.

The forward direction reduces a Cohen-Macaulay quotient by powers of the
z-block, dualizes each Artinian stage, and lifts a compatible family {H_m}
of socle representatives along the diagonal.  The backward direction
annihilates the generated submodules stage by stage and extracts the
stabilized generator set.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field

from .duality import (
    DualModule,
    contract_exp,
    minimal_cogenerators,
    perp_ideal,
    perp_module,
    socle_basis,
)
from .errors import PipelineError, TruncationLimitError, UnboundedQuotientError
from .groebner import (
    DEFAULT_CEILING,
    Ideal,
    artinian_form,
    is_regular,
)
from .linalg import Echelon, coordinate_meet, nested_meet_dims, solve_in_span
from .ring import GREVLEX, e_unit


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

    def meet(self, W):
        """Canonical echelon basis of W cap V in W's order, as term dicts."""
        ring = W.ring
        rows = (F.terms for F in W.basis)
        return coordinate_meet(
            ring.field, ring.order_key(W.order), rows, lambda e: self.contains(ring, e)
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

    def module_at(self, m):
        """The module P.H_m, with degree bound |m| + s - d.

        The top stage runs the contraction closure of H_top in GREVLEX,
        unless section_lift handed over its tower's top stage.  A stage
        whose H_m is z^(top - m) . H_top, entry by entry, is one contraction
        of the top module, P.H_m = z^(top - m) . P.H_top, with the same
        canonical basis, in the top module's order, and degree bound as its
        own closure; any other stage runs its own closure in GREVLEX.

        Built once per stage: the family is not mutated after construction,
        so verify_lis and reconstruct share the modules.  Nothing read off a
        module depends on the order of its echelon basis.
        """
        m = tuple(m)
        W = self._modules.get(m)
        if W is None:
            top = diag(self.d, self.bound)
            if m != top and _contracts(self, m, top):
                W = self.module_at(top).contract_by(_zshift(self.ring, m, top))
            else:
                bound = sum(m) + self.s - self.d if self.d else self.s
                W = DualModule.generate(self.ring, self.family.get(m, ()), degbound=max(bound, 0))
            self._modules[m] = W
        return W


def _zshift(ring, m, n):
    """The exponent of z^(n - m), for stages m <= n."""
    e = [0] * ring.nvars
    for i, a, b in zip(ring.zindices, m, n):
        e[i] = b - a
    return tuple(e)


def _step(m, slot, delta):
    return m[:slot] + (m[slot] + delta,) + m[slot + 1:]


def _contracts(H, m, n):
    """True when H_m is z^(n - m) . H_n, entry by entry."""
    e = _zshift(H.ring, m, n)
    got = tuple(contract_exp(e, F) for F in H.family.get(n, ()))
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


def artinian_reduction(I, m, order=GREVLEX, ceiling=DEFAULT_CEILING, hint=None, length=None):
    """The ideal I + <z_i^(m_i)>, checked Artinian.

    Raises PipelineError when the reduction is not Artinian, which means the
    z-block does not map to a maximal regular sequence for this input, and
    when it is Artinian but its bound exceeds the ceiling; that error names
    the limit and the stage.  hint and length pass to artinian_form.
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
        artinian_form(red, order, ceiling, hint=hint, length=length)
    except TruncationLimitError as exc:
        raise PipelineError(
            f"the reduction at {m} is Artinian, but its truncation bound lies beyond {exc.limit}"
        ) from exc
    except UnboundedQuotientError as exc:
        raise PipelineError(
            f"reduction of {I!r} at {m} is not Artinian: "
            "the z-block must map to a maximal regular sequence"
        ) from exc
    return red


def check_z_regularity(I):
    """Sequential nonzerodivisor test for the z-block variables modulo I.

    The verdict does not depend on a monomial order, so every membership
    test runs in GREVLEX.
    """
    ring = I.ring
    current = I
    for slot, zi in enumerate(ring.zindices):
        f = ring.variable(zi)
        try:
            ok = is_regular(f, current)
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

    Only the first reduction I_1 is computed here, with its bound N_1 and
    kernel: s = N_1 - 1, as by Nakayama m^k(P/I_1) != 0 exactly for
    k < N_1, and the kernel's length is that of stage one.  Unless
    trust_regular is set, check_z_regularity runs first.  Each stage is
    built when it is first read.

    The first read of any stage builds the top stage (B,...,B) from its own
    reduction and certifies it.  Each of the B^d layers of the z-monomial
    filtration of A/(z^B), A = P^/I, is a quotient of A/(z) = P/I_1, and
    R^length maps onto A/(z^B) for R = K[z]/(z_1^B, ..., z_d^B) (Nakayama).
    So A/(z^B) is free over R exactly when its length is B^d times stage
    one's, as it is when the z-block is regular (the Rees isomorphism
    gr_(z) A = (A/(z))[T_1..T_d]); a top stage short of it is refused.
    R is Gorenstein, so W_top, the dual of A/(z^B), is free over R too, and
    W_m, the part of W_top that every z_j^(m_j) kills, is z^(B - m) . W_top.
    So each diagonal stage W_k = (z_1...z_d) . W_(k+1) is chained down
    from W_top, and an off-diagonal stage is W_m = z^(k - m) . W_k for
    k = max(m): two reductions and one perp_ideal, whatever is read.  Every
    stage is closed by construction (see perp_ideal and
    DualModule.contract_by); none is checked.  An inverse system reaches
    the socle degree N - 1 of its quotient, so each contracted stage takes
    its top degree as its degree bound, that of its own reduction.

    A local top truncation that reaches B^d times the length of stage one
    is exact, so the top kernel is built at N_top = dB + s - d + 1, one
    below the first degree Nakayama can certify; where the length is not
    reached there, the bound comes from lead monomials instead (see
    groebner._local_form).
    """
    if B < 1:
        raise PipelineError(f"tower bound {B} must be at least 1")
    ring = I.ring
    d = len(ring.zindices)
    if not trust_regular:
        check_z_regularity(I)
    one = diag(d, 1)
    top = diag(d, B)
    I1 = artinian_reduction(I, one, order, ceiling)
    J1, N1 = artinian_form(I1, order, ceiling)
    s = N1 - 1
    length = J1.quotient(order).length
    zprod = _zshift(ring, one, diag(d, 2))
    diagonal = []  # W_(B,...,B) down to W_(1,...,1), built on the first read

    def stage(m):
        if not diagonal:
            red = I1 if top == one else artinian_reduction(
                I, top, order, ceiling, hint=sum(top) + s - d + 1, length=B ** d * length,
            )
            J, N = artinian_form(red, order, ceiling)
            W = perp_ideal(J, degbound=N - 1, order=order, ceiling=ceiling)
            if W.dim != B ** d * length:
                raise PipelineError(
                    f"the reduction at {top} has length {W.dim}, short of {B}^{d} times "
                    f"the length {length} at {one}; the z-block is not a regular "
                    "sequence modulo the ideal"
                )
            diagonal.append(W)
            for _ in range(B - 1 if d else 0):
                diagonal.append(_contracted(diagonal[-1], zprod))
        k = max(m, default=B)
        W = diagonal[B - k]
        return W if m == diag(d, k) else _contracted(W, _zshift(ring, m, diag(d, k)))

    return DualTower(ring, d, B, s, LazyStages(d, B, stage))


def _contracted(W, e):
    """W.contract_by(e) with its top degree as its degree bound."""
    Wm = W.contract_by(e)
    Wm.degbound = int(Wm.max_degree())
    return Wm


def section_lift(tower, order=GREVLEX):
    """Canonical compatible family through the tower, built along the diagonal.

    H at the diagonal start is the echelon set of minimal cogenerators; each
    next diagonal stage solves (z_1...z_d) . F = h inside W with the
    echelon-canonical solution; off-diagonal stages are contractions from the
    smallest dominating diagonal stage, which makes compatibility automatic.

    The family's module cache starts with W_top = P . H_top, the tower's
    own top stage, so verify_lis and reconstruct never close H_top again.
    The tower certified A/(z^B) free over R = K[z]/(z_1^B, ..., z_d^B)
    (see dual_tower), so each A/(z^k) is free over K[z]/(z^k): a flat local
    extension of a Gorenstein ring, whose type is then that of its fibre
    A/(z), the type r, for every k.  By induction on k, H_k spans
    W_k / m . W_k, so generates W_k (Nakayama): H_1 does, being minimal
    cogenerators.  zprod . W_(k+1) = W_k, and contraction by zprod
    commutes with m . , so it maps W_(k+1) / m . W_(k+1) onto
    W_k / m . W_k.  Both have dimension r, so the map is an isomorphism,
    and H_(k+1), sent onto H_k, spans W_(k+1) / m . W_(k+1).
    """
    ring = tower.ring
    d = tower.d
    B = tower.bound
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
        e = _zshift(ring, m, diag(d, k))
        family[m] = tuple(contract_exp(e, F) for F in family[diag(d, k)])
    H = LimitInverseSystem(ring, d, r, s, B, family)
    H._modules[diag(d, B)] = tower.modules[diag(d, B)]
    return H


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


def verify_lis(H):
    """Check the four limit-inverse-system conditions plus compatibility.

    (a) each stage spans an r-dimensional space; (b) the support starts
    exactly at the all-ones stage, i.e. H_1 is nonzero and z_i^(m_i) kills
    H_m; (c) W_m meets the V-space inside W_(m - e_j); (d) the top degree of
    H_m is |m| + s - d.  Failures carry witnesses.  No rank, kill, degree,
    dimension or containment depends on a monomial order, so the report
    does not either: H_m is echelonized in GREVLEX, and each module in its
    own order.

    (c) is decided in one of two ways.  When every compat, (b) and (d) check
    passes, H_m = z^(top - m) . H_top, so W_m = z^(top - m) . W_top.  W_m
    lies in degrees <= |m| + s - d, so W_m cap V is the kernel of
    z_j^(m_j - 1) on W_m, which holds W_(m - e_j) = z_j . W_m.  W_top is a
    module over R = K[z]/(z_1^B, ..., z_d^B) with some e free summands, and
    it is free exactly when dim W_top = e * B^d (see _free_rank).  A free
    W_top makes every W_m free of rank e over
    K[z]/(z_1^(m_1), ..., z_d^(m_d)), so W_m cap V has the dimension
    e * prod(m - e_j) of W_(m - e_j): every (c) check passes, and no module
    but W_top is built.  W_top is read off H.module_at, so a
    family that section_lift made reuses the tower's top stage and runs no
    closure at all.  When the gate fails or W_top is not free, each (c)
    check meets W_m with the V-space and tests containment in W_(m - e_j),
    which builds every stage module.
    """
    ring = H.ring
    d, r, s, B = H.d, H.r, H.s, H.bound
    rep = LisReport()
    if d == 0:
        elems = H.family.get((), ())
        ech = Echelon(ring.field, ring.order_key(GREVLEX))
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
    zero_mod = DualModule(ring, 0, [])

    for m in stages:
        elems = H.family.get(m, ())
        ech = Echelon(ring.field, ring.order_key(GREVLEX))
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
                    _contracts(H, m, up),
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
    gate = all(c.ok for c in rep.checks if c.condition in ("b", "compat", "d"))
    rank = _free_rank(H.module_at(diag(d, B)), B) if gate else None
    for m in stages:
        for slot in range(d):
            prev = _step(m, slot, -1)
            if rank is not None:
                dim, ok = rank * math.prod(prev), True
            else:
                inter = VSpace(slot, s - d, m).meet(H.module_at(m))
                dim = len(inter)
                Wprev = H.module_at(prev) if m[slot] > 1 else zero_mod
                ech = Wprev._echelon()
                ok = all(ech.contains(v) for v in inter)
            rep.add(
                "c",
                m,
                ok,
                f"slot {slot + 1}: intersection dim {dim} inside W at {prev}",
            )
    return rep


def _free_rank(W, B):
    """The rank of W over R = K[z]/(z_1^B, ..., z_d^B) when W is free, else None.

    W must be killed by every z_i^B.  sigma = (z_1...z_d)^(B-1) spans the
    socle of the Gorenstein ring R, so dim sigma . W is the number of free
    summands of W: a summand N with sigma . N != 0 holds a copy of R, which
    is injective over itself and so splits off, and sigma kills the rest.
    W is free exactly when dim W = B^d * dim sigma . W, one contraction.
    """
    zi = W.ring.zindices
    sigma = tuple(B - 1 if i in zi else 0 for i in range(W.ring.nvars))
    rank = W.contract_by(sigma).dim
    return rank if W.dim == rank * B ** len(zi) else None


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

    order picks the survivors, which are read off reduced bases in it, and
    the basis of the returned ideal.  Every membership, equality and
    regularity test runs in GREVLEX, on the kernels perp_module hands over.
    """
    ring = H.ring
    d = H.d
    if d == 0:
        W = H.module_at(())
        return ReconstructionResult(perp_module(W), True, 0, "classical duality, no tower")
    B = H.bound
    anns = {k: perp_module(H.module_at(diag(d, k))) for k in range(1, B + 1)}
    # consistency: the annihilators must form a decreasing chain
    for k in range(1, B):
        for g in anns[k + 1].gens:
            if not anns[k].contains(g):
                raise PipelineError(
                    f"annihilator chain is not decreasing between stages {k} and {k + 1}; "
                    "the family is not a limit inverse system"
                )
    # survivors of stage K are its basis elements lying in every later stage.
    # The check above puts anns[n + 1]'s generators in anns[n], and the
    # truncations N_n do not decrease, so anns[B] lies in every anns[n]: one
    # membership test suffices.  The last stage has no later witness, so it
    # contributes none
    chain = []
    acc = []
    for K in range(1, B):
        acc.extend(g for g in anns[K].groebner(order) if anns[B].contains(g))
        chain.append(Ideal(ring, list(acc)))

    for K in range(1, len(chain)):
        if not chain[K - 1].equals(chain[K]):
            continue
        plateau = Ideal(ring, chain[K - 1].groebner())
        if reproduces(plateau, anns) and _z_regular(plateau):
            result = Ideal(ring, chain[K - 1].groebner(order))
            return ReconstructionResult(result, True, K, f"stabilized at stage {K} of {B}")
    return ReconstructionResult(
        Ideal(ring, chain[-1].groebner(order) if chain else []),
        False,
        B,
        "no reproducing plateau within the bound; raise the bound",
    )


def _z_regular(candidate):
    """True when the z-block is a regular sequence modulo candidate.

    The correspondence covers only such ideals.  A pass is never a false
    positive: a nonzerodivisor on K[x]/J stays one after localizing and
    completing, which are flat; a false negative only asks for a higher
    bound.
    """
    try:
        check_z_regularity(candidate)
    except PipelineError:
        return False
    return True


def reproduces(candidate, anns):
    """True when candidate + <z^k> + m^(N_k) equals anns[k] for every k.

    anns maps each visible diagonal stage k to its annihilator, an ideal
    truncated at N_k, where N_k must not decrease with k.  Ideals that
    contain m^N are equal exactly when one contains the other and their
    quotients have the same length.  Each generator of candidate + <z^k> is
    looked up in the kernel anns[k] carries, so anns[k] contains
    C_k = candidate + <z^k> + m^(N_k).  The lengths are then certified by
    the z-filtration bound (see _filtration_bound_holds), and only where it
    is not reached, compared in full: with B the largest stage and N the
    largest N_k, every C_k contains J = candidate + <z^B> + m^N, so the perp
    of C_k is the perp of J met with S_k = span{X^e : |e| < N_k,
    e_(z_j) < k}.  The S_k are nested, so one echelon of perp(J), keyed
    first by the stage each monomial enters, gives every dim(perp(J) & S_k)
    (linalg.nested_meet_dims).  Lengths do not depend on the order, so
    everything runs in grevlex.
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
    if _filtration_bound_holds(candidate, anns):
        return True
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


def _filtration_bound_holds(candidate, anns):
    """True when every anns[k] has length k^d * e, e = length P^/(candidate + <z>).

    Each anns[k] contains C_k = candidate + <z^k> + m^(N_k) (reproduces
    checks this first).  Each of the k^d layers of the z-monomial filtration
    of P^/(candidate + <z^k>) is a quotient of P^/(candidate + <z>), so
    length P/anns[k] <= length P/C_k <= k^d * e, for any candidate; equality
    at the ends forces anns[k] = C_k.  It also puts m^(N_k) in
    candidate + <z^k>, inside candidate + <z>.  So with low the least N_k,
    the one kernel tried is at truncation low + 1, where Nakayama certifies
    every candidate + <z> that can pass; any other fails here.
    """
    ring = candidate.ring
    d = len(ring.zindices)
    low = min(A.trunc for A in anns.values())
    try:
        J, _ = artinian_form(
            candidate.plus(ring.variable(i) for i in ring.zindices),
            GREVLEX,
            ceiling=low,
            hint=low + 1,
        )
    except UnboundedQuotientError:
        return False
    e = J.quotient().length
    return all(A.quotient().length == k ** d * e for k, A in anns.items())


def invariants_of(I, order=GREVLEX, ceiling=DEFAULT_CEILING):
    """(d, r, s): z-block size, type, socle degree of the first reduction."""
    ring = I.ring
    d = len(ring.zindices)
    I1 = artinian_reduction(I, diag(d, 1), order, ceiling)
    _, N1 = artinian_form(I1, order, ceiling)
    r = len(socle_basis(I1, order, ceiling))
    return d, r, N1 - 1
