"""Numeric and structural rank bounds, all in exact integer arithmetic.

Covers the free 2-rank of symmetry of products of real projective spaces,
the two dimension bounds for sphere quotients (the linear one and the
conjectured exponential one), the rank condition for the randomized form
search with its headline instance report, and two exhaustive desk-scale
audits of the rank inequalities for permutation and general linear actions.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import itemgetter, ne, or_, xor
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import GuardExceeded
from .gf2 import _reduce_bits, _rref_bits, fold_rows

SMALL_SPHERE_CAVEAT = 7  # the standing assumption wants sphere dims > 7
PERM_AUDIT_GUARD = 7
GL_AUDIT_GUARD = 4
HEADLINE_GUARD = 1 << 16  # max n + t: bits of the exact sphere dimension


def free_rank_rp(m: int, n: int) -> int:
    """Free 2-rank of symmetry of a product of n copies of RP^m.

    0 for m = 0, 2 mod 4 (Euler characteristic 1), n for m = 1 mod 4,
    2n for m = 3 mod 4.  Values with m <= SMALL_SPHERE_CAVEAT deserve the
    caveat flag reported by the CLI.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    r = m % 4
    if r in (0, 2):
        return 0
    return n if r == 1 else 2 * n


def browder_min_m(dim_gv: int, t: int) -> int:
    """Least m consistent with dim G/V <= (m+1)t: ceil((dim_gv - t)/t)."""
    if t < 1:
        raise ValueError("need t >= 1")
    if dim_gv <= t:
        return 0
    return -(-(dim_gv - t) // t)


class CarlssonBound(NamedTuple):
    exact: int  # least m with (m+1)^t >= 2^dim_gv, by big-integer search
    paper_weak: int  # 2^(dim_gv // t) - 1, the rounded-down deduction


def carlsson_min_m(dim_gv: int, t: int) -> CarlssonBound:
    """Least m with (m+1)^t >= 2^dim_gv, plus the weaker rounded bound."""
    if t < 1:
        raise ValueError("need t >= 1")
    target = 1 << dim_gv
    # floor(2^(d/t)) by integer Newton steps from 2^ceil(d/t), which lies above it
    x = 1 << (-(-dim_gv // t))
    while True:
        y = ((t - 1) * x + target // x ** (t - 1)) // t
        if y >= x:
            break
        x = y
    return CarlssonBound(x - 1 if x**t == target else x, (1 << (dim_gv // t)) - 1)


def olshanskii_condition(n: int, t: int, k: int) -> bool:
    """The rank condition n < t(k-1)/2, checked as 2n < t(k-1) exactly."""
    if n < 1 or t < 1 or k < 1:
        raise ValueError("inputs must be positive")
    return 2 * n < t * (k - 1)


class HeadlineReport(NamedTuple):
    """Bound arithmetic for a form-search instance (n, t, k).

    T_bound/N_bound describe the extension 1 -> (Z/2)^T -> G -> (Z/2)^N -> 1
    through the rank target t + k - 1; sphere_dim is the induced-sphere
    dimension |G|/2 - 1 = 2^(n+t-1) - 1; the dimension bounds are evaluated
    verbatim at (N_bound, T_bound).
    """

    n: int
    t: int
    k: int
    condition_holds: bool
    T_bound: int
    N_bound: int
    sphere_dim: int
    browder_min_m: int
    carlsson_min_m: CarlssonBound


def headline_report(n: int, t: int, k: int) -> HeadlineReport:
    condition = olshanskii_condition(n, t, k)
    if k > n + 1:
        raise ValueError(f"k must be at most n + 1 = {n + 1}, so that N_bound = n - k + 1 >= 0")
    if n + t > HEADLINE_GUARD:
        raise GuardExceeded(
            "headline_sphere_dim",
            f"n + t = {n + t} exceeds guard {HEADLINE_GUARD} on the bits of 2^(n+t-1) - 1",
        )
    T_bound = t + k - 1
    N_bound = n - k + 1
    return HeadlineReport(
        n=n,
        t=t,
        k=k,
        condition_holds=condition,
        T_bound=T_bound,
        N_bound=N_bound,
        sphere_dim=(1 << (n + t - 1)) - 1,
        browder_min_m=browder_min_m(N_bound, T_bound),
        carlsson_min_m=carlsson_min_m(N_bound, T_bound),
    )


# -- desk-scale audits ---------------------------------------------------------


class PermAuditResult(NamedTuple):
    ok: bool
    worst_rank: int  # largest elementary abelian rank found
    worst_orbits: int  # orbit count of a subgroup achieving it
    subgroups_checked: int


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation i -> a[b[i]], for a b that moves some point (so has at
    least two entries, where itemgetter returns a tuple).  The subgroup walk
    only ever passes an involution as b."""
    return itemgetter(*b)(a)


def _bit_sliced_commuting(
    perms: Sequence[tuple[int, ...]], degree: int, base: Sequence[int]
) -> Callable[[int, list[int]], list[int]]:
    """The commuting relation of elementary_abelian_search on involutions of
    0..degree-1, computed up front as one int row per involution: bit j of
    rows[k] is set iff perms[j] commutes with perms[k].

    plane[i][j] has bit w set iff perms[w] maps i to j.  For an involution v,
    bit w of plane[i][j] ^ plane[v(i)][v(j)] is set iff exactly one of
    w(i) = j and w(v(i)) = v(j) holds, and it is clear for every j iff
    w(v(i)) = v(w(i)).  So w commutes with v on `base` iff its bit is clear
    in the OR over i in base and every point j.  The base is every point, or
    a basis when all the maps are linear.  No product is taken.
    """
    plane = [[0] * degree for _ in range(degree)]
    for k, w in enumerate(perms):
        bit = 1 << k
        for i, j in enumerate(w):
            plane[i][j] |= bit
    full = (1 << len(perms)) - 1
    rows = []
    for v in perms:
        take = itemgetter(*v)  # v moves some point, so take returns a tuple
        differ = 0
        for i in base:
            differ = reduce(or_, map(xor, plane[i], take(plane[v[i]])), differ)
        rows.append(full ^ differ)
    return lambda k, later: [j for j in later if rows[k] >> j & 1]


def _perm_involutions(n: int) -> list[tuple[int, ...]]:
    """The involutions of 0..n-1 in lexicographic order, as tuples of images.
    Each is a product of disjoint transpositions: for each pair i < j in
    turn, (i j) is added to every permutation listed so far that fixes both,
    so each product is built once, from its transpositions in order."""
    perms = [tuple(range(n))]
    for i, j in combinations(range(n), 2):
        perms += [p[:i] + (j,) + p[i + 1 : j] + (i,) + p[j + 1 :]
                  for p in perms if p[i] == i and p[j] == j]
    return sorted(perms[1:])


def perm_rank_audit(n: int) -> PermAuditResult:
    """Verify rank <= n - orbits for every elementary abelian 2-subgroup of S_n.

    Exhaustive: the walk offers each subgroup once, along its canonical
    path, and reads which involutions commute from bit-sliced rows built up
    front.  The worst case reported is the first subgroup (in search order)
    of maximal rank.  Orbits are counted by Burnside's lemma, n less the mean
    number of points an element moves: the walk's state is the total moved
    over H, and each child adds the points moved by its coset.
    """
    from .repaction import elementary_abelian_search

    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > PERM_AUDIT_GUARD:
        raise GuardExceeded("perm_rank_audit", f"n={n} exceeds guard {PERM_AUDIT_GUARD}")
    invs = _perm_involutions(n)
    points = range(n)
    moved = {p: sum(map(ne, p, points)) for p in invs}

    def extend(total: int, gens: tuple, coset: list) -> int:
        total += sum(map(moved.__getitem__, coset))
        orbits = n - (total >> len(gens))  # |H| = 2^len(gens)
        if len(gens) > n - orbits:
            raise AssertionError(f"rank {len(gens)} exceeds {n} - {orbits} orbits")
        return total

    commuting = _bit_sliced_commuting(invs, n, points)
    walk = elementary_abelian_search(_compose, tuple(points), invs, 0, extend, commuting)
    return PermAuditResult(True, walk.rank, n - (walk.state >> walk.rank), walk.subgroups)


class GlAuditResult(NamedTuple):
    max_rank_found: int
    bound: int  # floor(n^2 / 4)
    subgroups_checked: int


def _involutions(n: int, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Stream the n x n matrices m with m m = I whose first rows are `rows`,
    in lexicographic order of their rows.  Each next row runs through
    1..2^n - 1, skipping the span of the rows before it (an involution is
    invertible); a prefix stops at the first row i of m m that it already
    decides (m[i] reads only chosen rows) and that is not row i of I."""
    if len(rows) == n:
        yield rows
        return
    basis = _rref_bits(rows)
    chosen = 1 << (len(rows) + 1)
    for r in range(1, 1 << n):
        m = rows + (r,)
        if _reduce_bits(r, basis) and all(
            fold_rows(m, row) == 1 << i for i, row in enumerate(m) if row < chosen
        ):
            yield from _involutions(n, m)


def gl_rank_audit(n: int) -> GlAuditResult:
    """Max elementary abelian rank inside GL(n, 2) versus floor(n^2/4).

    Streams the involutions, walks every elementary abelian subgroup they
    generate once, along its canonical path, and asserts the quadratic
    bound on the largest rank the walk keeps.  The walk holds each involution m as its permutation x -> x m of
    the 2^n row vectors, so a product is a tuple composition.  Composing
    permutations multiplies the matrices in the opposite order, which gives
    the same subgroups and the same commuting pairs.  The maps are linear,
    so the bit-sliced commuting rows compare them on the unit vectors alone.
    """
    from .repaction import elementary_abelian_search

    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > GL_AUDIT_GUARD:
        raise GuardExceeded("gl_rank_audit", f"n={n} exceeds guard {GL_AUDIT_GUARD}")
    identity = tuple(1 << i for i in range(n))
    vectors = range(1 << n)
    invs = [tuple([fold_rows(m, x) for x in vectors]) for m in _involutions(n, ()) if m != identity]

    commuting = _bit_sliced_commuting(invs, len(vectors), identity)  # the unit vectors
    walk = elementary_abelian_search(_compose, tuple(vectors), invs, True,
                                     lambda state, gens, coset: True, commuting)
    bound = (n * n) // 4
    if walk.rank > bound:
        raise AssertionError(f"rank {walk.rank} exceeds the bound {bound}")
    return GlAuditResult(walk.rank, bound, walk.subgroups)
