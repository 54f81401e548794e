"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and self-contained: dense Gaussian
elimination over Fraction, direct enumeration, grid flooding.  None of it
shares code paths with the library machinery it checks.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product


def monomials_upto(nvars, degbound):
    out = []
    for d in range(degbound + 1):
        for comb in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in comb:
                e[i] += 1
            out.append(tuple(e))
    return out


def dense_rref(rows, ncols, p=None):
    """Reduced row echelon form by plain Gauss-Jordan, pivots leftmost.

    Over Q (p is None) entries become Fractions; over F_p they are ints in
    [0, p).  Returns the nonzero rows, top to bottom, and a map from each
    pivot column to its row's position.
    """
    if p is None:
        mat = [list(map(Fraction, row)) for row in rows]
        inv = lambda a: 1 / a
        norm = lambda a: a
    else:
        mat = [[int(v) % p for v in row] for row in rows]
        inv = lambda a: pow(a, p - 2, p)
        norm = lambda a: a % p
    nrows = len(mat)
    pivots = {}
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = inv(mat[r][c])
        mat[r] = [norm(v * pv) for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [norm(a - f * b) for a, b in zip(mat[i], mat[r])]
        pivots[c] = r
        r += 1
    return mat[:r], pivots


def dense_nullspace(rows, ncols, p=None):
    """Nullspace basis of a dense matrix over Q or F_p, by dense_rref."""
    mat, pivots = dense_rref(rows, ncols, p)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for c in free:
        vec = [zero] * ncols
        vec[c] = one
        for pc, pr in pivots.items():
            if mat[pr][c] != 0:
                vec[pc] = -mat[pr][c] if p is None else (-mat[pr][c]) % p
        basis.append(vec)
    return basis


def brute_perp(gens_terms, nvars, degbound):
    """All dual elements of degree <= degbound killed by every generator.

    gens_terms: list of dicts exponent -> Fraction.  A dual element F (a
    coefficient vector over dual monomials) is annihilated by g when for
    every target exponent w the sum of g[n] * F[n + w] vanishes.  Returns a
    list of coefficient dicts.
    """
    cols = monomials_upto(nvars, degbound)
    col_index = {e: i for i, e in enumerate(cols)}
    rows = []
    for g in gens_terms:
        for w in cols:
            row = [Fraction(0)] * len(cols)
            touched = False
            for n, c in g.items():
                m = tuple(a + b for a, b in zip(n, w))
                j = col_index.get(m)
                if j is not None:
                    row[j] += Fraction(c)
                    touched = True
            if touched and any(row):
                rows.append(row)
    basis = dense_nullspace(rows, len(cols))
    return [
        {cols[i]: v for i, v in enumerate(vec) if v != 0}
        for vec in basis
    ]


def semigroup_upto(generators, bound):
    """All numerical-semigroup elements up to the bound, by direct enumeration."""
    members = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for g in generators:
            b = a + g
            if b <= bound and b not in members:
                members.add(b)
                frontier.append(b)
    return sorted(members)


def apery_elements(generators, step, bound):
    """Semigroup elements not in step + semigroup: the length-6 oracle set."""
    S = set(semigroup_upto(generators, bound))
    return sorted(a for a in S if a - step not in S)


def apery_order_profile(generators, step, bound):
    """Refine the oracle by the max number of nonzero summands per element."""
    S = set(semigroup_upto(generators, bound))
    ap = apery_elements(generators, step, bound)
    nonzero = [s for s in S if s != 0]

    def max_summands(a):
        if a == 0:
            return 0
        best = 0
        stack = [(a, 0)]
        while stack:
            rest, k = stack.pop()
            if rest == 0:
                best = max(best, k)
                continue
            for s in nonzero:
                if s <= rest:
                    stack.append((rest - s, k + 1))
        return best

    orders = [max_summands(a) for a in ap]
    profile = []
    k = 0
    while True:
        count = sum(1 for o in orders if o == k)
        if count == 0 and all(o < k for o in orders):
            break
        profile.append(count)
        k += 1
    while profile and profile[-1] == 0:
        profile.pop()
    return tuple(profile)


def flood_monoid(gens, box):
    """Grid of monoid-ideal membership inside the box, by upward flooding."""
    t = len(box)
    inside = set()
    for g in gens:
        if all(gi <= bi for gi, bi in zip(g, box)):
            inside.add(tuple(g))
    frontier = list(inside)
    while frontier:
        n = frontier.pop()
        for i in range(t):
            child = n[:i] + (n[i] + 1,) + n[i + 1 :]
            if child[i] <= box[i] and child not in inside:
                inside.add(child)
                frontier.append(child)
    return inside


def monoid_socle_oracle(gens, t):
    """Socle by the literal definition on a box strictly larger than needed."""
    box = tuple(max(g[i] for g in gens) + 1 for i in range(t))
    inside = flood_monoid(gens, box)
    out = []
    for n in product(*[range(b) for b in box]):
        if n in inside:
            continue
        ok = True
        for i in range(t):
            up = n[:i] + (n[i] + 1,) + n[i + 1 :]
            if up[i] > box[i] or up not in inside:
                ok = False
                break
        if ok:
            out.append(n)
    return sorted(out)


def monomial_in_monomial_ideal(e, gens):
    return any(all(gi <= ei for gi, ei in zip(g, e)) for g in gens)


def lead_bound_scan(lms, nvars, ceiling, inside=None):
    """The truncation bound by scanning degrees: the least N <= ceiling with
    every degree-N monomial inside the ideal.

    lms are the leads of a standard basis; inside(e) decides membership,
    lead divisibility by default.  0 with a unit lead, "unbounded" when
    some variable has no pure power among lms, "ceiling" when no N up to
    ceiling works.  Each degree tries the pure powers first.
    """
    if any(not any(lm) for lm in lms):
        return 0
    if not all(any(lm[i] == sum(lm) for lm in lms) for i in range(nvars)):
        return "unbounded"
    if inside is None:
        inside = lambda e: monomial_in_monomial_ideal(e, lms)
    for N in range(1, ceiling + 1):
        powers = [tuple(N if j == i else 0 for j in range(nvars)) for i in range(nvars)]
        if all(map(inside, powers)) and all(inside(e) for e in monomials_upto(nvars, N) if sum(e) == N):
            return N
    return "ceiling"


def free_rank_by_socle(rows, zindices, B, p=None):
    """The rank of W = span(rows) over K[z]/(z_1^B, ..., z_d^B) when W is
    free, else None, by the dimension of its socle.

    rows are term dicts of dual elements that every z_i^B kills.  The socle,
    W & span{X^a : a_z = 0}, is the kernel of W's projection onto the
    monomials with a z-exponent, so its dimension is dim W minus the rank
    of that projection.  K[z]/(z^B) is Gorenstein, so W embeds in R^e for e
    the socle dimension, and W is free exactly when dim W = e * B^d.
    """
    cols = sorted({e for row in rows for e in row})

    def rank(columns):
        dense = [[row.get(e, 0) for e in columns] for row in rows]
        return len(dense_rref(dense, len(columns), p)[0]) if dense else 0

    dim = rank(cols)
    socle = dim - rank([e for e in cols if any(e[i] for i in zindices)])
    return socle if dim == socle * B ** len(zindices) else None


def hilbert_rank_walk(nf_by_degree, p=None):
    """Hilbert profile of P/J by a rank walk over the normal forms of monomials.

    nf_by_degree[k] lists the normal-form vectors (dicts over the standard
    monomials) of every monomial of degree k, for each k below some N with
    m^N inside J.  values[k] = rank(m^k) - rank(m^(k+1)) in P/J, each rank
    the dense rank of the normal forms of the monomials of degree k or more;
    trailing zeros are dropped.
    """
    cols = sorted({c for vecs in nf_by_degree for vec in vecs for c in vec})
    index = {c: i for i, c in enumerate(cols)}
    ranks = [0] * (len(nf_by_degree) + 1)  # ranks[k] = rank of degrees >= k
    rows = []
    for k in range(len(nf_by_degree) - 1, -1, -1):
        for vec in nf_by_degree[k]:
            row = [0] * len(cols)
            for c, v in vec.items():
                row[index[c]] = v
            rows.append(row)
        ranks[k] = len(dense_rref(rows, len(cols), p)[0]) if rows else 0
    dims = [ranks[k] - ranks[k + 1] for k in range(len(nf_by_degree))]
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)
