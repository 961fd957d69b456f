"""Finite groups as multiplication oracles and their induced sign actions.

A GroupOracle is a group on ids 0..order-1 (0 = identity) given by a Cayley
table or a form group.  MonomialRep realizes the representation induced from a
+-1 character of a subgroup on the left cosets, g . e_r = chi(c) e_r' where
g * rep_r = rep_r' * c.  The fixed-point structure of the action on a product
of unit spheres is then a purely combinatorial matter, read off integer
traces with no floating point: an element fixes a sphere point iff the
average of the traces over the cyclic group it generates is positive.

Traces come from Frobenius' formula, with no matrix built: for a central C
the trace of h is [G:C] * chi(h) on C and 0 off it, and otherwise it is the
sum of chi(c) over the cosets r with h * rep_r = rep_r * c.  The isotropy
walk stops as soon as it reaches a bound on rank_2(G) (rank_2(G) itself for
a form group, floor(log2(#involutions + 1)) for a table), or that bound less
one when some central involution acts as -1 on a factor; no larger rank
exists, so the answer is the full walk's.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from .errors import GuardExceeded, SchemaError

if TYPE_CHECKING:
    from .phigroup import PhiGroup

ASSOCIATIVITY_GUARD = 512  # a form group's product is checked up to this order
TABLE_GUARD = 2048  # a Cayley table, always checked, up to this order
ORDER_GUARD = 1 << 16
ISOTROPY_GUARD = 4096


class GroupOracle:
    """Finite group on integer ids with id 0 the identity.

    `mul` is the stored product callback and `generators` generate the
    group, so an element that commutes with each of them is central.  `phi`
    is the PhiGroup of a form group and None for a Cayley table.  The
    constructor only stores these; `from_table` and `from_phi_group` check
    their own data and choose the generators.
    """

    def __init__(
        self,
        order: int,
        mul: Callable[[int, int], int],
        generators: Sequence[int],
        phi: Optional[PhiGroup] = None,
    ):
        self.order = order
        self.mul = mul
        self.generators = generators
        self.phi = phi

    # -- construction ----------------------------------------------------

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]]) -> GroupOracle:
        """The oracle of a Cayley table, validated at every order it accepts
        (up to TABLE_GUARD), with the greedy generators of the validation."""
        order = len(table)
        if order > TABLE_GUARD:
            raise GuardExceeded("table_order", f"table order {order} exceeds {TABLE_GUARD}")
        failing = []
        if order == 0:
            failing.append("mul: table must not be empty")
        elif any(not isinstance(row, (list, tuple)) or len(row) != order for row in table):
            failing.append("mul: table must be square")
        elif any(type(e) is not int or not 0 <= e < order for row in table for e in row):
            failing.append("mul: entries must be integer ids in 0..order-1")
        if failing:
            raise SchemaError(failing)
        rows = [tuple(row) for row in table]
        return cls(order, lambda i, j: rows[i][j], _validate(rows))

    @classmethod
    def from_phi_group(cls, G: PhiGroup) -> GroupOracle:
        """The oracle of G, validated up to ASSOCIATIVITY_GUARD on `G.rows()`
        and taken on trust above it; its generators are the n + t basis ids.

        A family too large for an oracle (order above ORDER_GUARD) is refused
        as guard `group_order`, since the family itself is valid input.
        """
        if G.order > ORDER_GUARD:
            raise GuardExceeded("group_order", f"group order 2^{G.n + G.t} exceeds {ORDER_GUARD}")
        if G.order <= ASSOCIATIVITY_GUARD:
            _validate(G.rows())
        return cls(G.order, G.mul, [1 << i for i in range(G.n + G.t)], G)

    # -- arithmetic ---------------------------------------------------------

    def involutions(self) -> list[int]:
        return [g for g in range(1, self.order) if self.mul(g, g) == 0]

    def is_central(self, z: int) -> bool:
        """True iff z commutes with every element, read on the generators."""
        mul = self.mul
        return all(mul(z, g) == mul(g, z) for g in self.generators)

    def check_ids(self, ids: Sequence[int]) -> None:
        """Refuse the first id outside 0..order-1."""
        for g in ids:
            if not 0 <= g < self.order:
                raise ValueError(f"element id {g} out of range")

    def closure(self, gens: Sequence[int]) -> list[int]:
        """Sorted element ids of the subgroup generated by gens."""
        self.check_ids(gens)
        return sorted(_closure(self.mul, gens))


def _closure(mul: Callable[[int, int], int], gens: Sequence[int]) -> set[int]:
    """Ids reached from 0 by right multiplications with gens: in a group, the
    subgroup they generate."""
    elems = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return elems


def _validate(rows: list[tuple[int, ...]]) -> list[int]:
    """Group axioms on the Cayley table `rows`, tuple rows: identity, Latin
    square, two-sided inverses and Light's associativity test.  A stock table
    is checked on its own rows and a form group's on `PhiGroup.rows()`.  The
    table is dropped afterwards, so a validated oracle holds no order^2 memory
    of its own.  Returns the generating set of the test.
    """
    ids = tuple(range(len(rows)))
    if rows[0] != ids or any(row[0] != g for g, row in enumerate(rows)):
        raise ValueError("id 0 is not a two-sided identity")
    # every row has len(rows) entries, so holding every id makes it a permutation
    id_set = set(ids)
    for g, (row, col) in enumerate(zip(rows, zip(*rows))):
        if set(row) != id_set or set(col) != id_set:
            raise ValueError(f"row/column of element {g} is not a permutation")
    for g in ids:
        if rows[rows[g].index(0)][g] != 0:
            raise ValueError(f"element {g} has no two-sided inverse")
    # Light's associativity test on a generating set: for a generator s,
    # a(sb) = (as)b for every b says row a composed with row s is row as.
    gens = _generating_set(rows)
    for s in gens:
        compose = itemgetter(*rows[s])  # at order 1 there is no generator
        for row_a in rows:
            if compose(row_a) != rows[row_a[s]]:
                raise ValueError("multiplication is not associative")
    return gens


def _generating_set(rows: Sequence[Sequence[int]]) -> list[int]:
    """Greedy generators: each id not yet in the closure of the earlier ones.
    The s passing Light's test are closed under products, so these decide
    associativity also for a table that is not a group."""
    gens: list[int] = []
    reached = {0}
    for g in range(1, len(rows)):
        if g not in reached:
            gens.append(g)
            reached = _closure(lambda i, j: rows[i][j], gens)
    return gens


def is_two_central(G: GroupOracle) -> bool:
    """True iff every involution commutes with every element."""
    return all(G.is_central(g) for g in G.involutions())


# -- stock Cayley tables ------------------------------------------------------


def cyclic_table(m: int) -> list[list[int]]:
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def elementary_abelian_table(r: int) -> list[list[int]]:
    n = 1 << r
    return [[i ^ j for j in range(n)] for i in range(n)]


_QUAT_UNITS = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


def quaternion_table() -> list[list[int]]:
    """Q8 with ids 0..7 encoding (+-1, +-i, +-j, +-k) as 2*unit + signbit."""

    def mul(x: int, y: int) -> int:
        u1, s1 = x >> 1, x & 1
        u2, s2 = y >> 1, y & 1
        u, s = _QUAT_UNITS[u1][u2]
        sign = (s1 + s2 + (1 if s == -1 else 0)) & 1
        return (u << 1) | sign

    return [[mul(i, j) for j in range(8)] for i in range(8)]


# -- induced monomial representations -----------------------------------------


class MonomialRep:
    """Representation induced from a +-1 character of a subgroup.

    Basis vectors are indexed by the left cosets of C, enumerated with the
    smallest unused element id as representative: g . e_r = chi(c) e_r'
    where g * rep_r = rep_r' * c.  `central` records whether C is central,
    that is, whether each generator of C commutes with each generator of G.
    The coset table is built on first use, so a rep over a central C, whose
    traces never read it, does not build it at all.
    """

    def __init__(self, group: GroupOracle, c_gens: Sequence[int], character_on_gens: Sequence[int]):
        if len(c_gens) != len(character_on_gens):
            raise ValueError("one character value per generator required")
        if any(v not in (1, -1) for v in character_on_gens):
            raise ValueError("character values must be +1 or -1")
        char_on_gens: dict[int, int] = {}
        for g, v in zip(c_gens, character_on_gens):
            if char_on_gens.setdefault(g, v) != v:
                raise ValueError("inconsistent character on the subgroup")
        group.check_ids(c_gens)
        # one walk over C = <c_gens> finds C and extends chi; it checks every
        # (element, generator) edge once, and consistency on every edge extends
        # to all products by induction on word length
        chi = {0: 1}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, cg in char_on_gens.items():
                y = group.mul(x, g)
                val = chi[x] * cg
                if y not in chi:
                    chi[y] = val
                    frontier.append(y)
                elif chi[y] != val:
                    raise ValueError("inconsistent character on the subgroup")
        self.group = group
        self.subgroup = tuple(sorted(chi))
        self.character = chi
        self.dim = group.order // len(self.subgroup)
        self.central = all(group.is_central(g) for g in char_on_gens)
        # memo of traces; for a central C it starts as the whole support, C
        self._traces: dict[int, int] = (
            {c: self.dim * v for c, v in chi.items()} if self.central else {}
        )

    @property
    def cosets(self) -> tuple[int, ...]:
        """The coset representatives rep_r, in the order of the basis."""
        return self._coset_table[0]

    @cached_property
    def _coset_table(self) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
        """The representatives and, per element g * c, its place (r, c)."""
        G = self.group
        loc: dict[int, tuple[int, int]] = {}
        reps = []
        for g in range(G.order):
            if g in loc:
                continue
            idx = len(reps)
            reps.append(g)
            for c in self.subgroup:
                loc[G.mul(g, c)] = (idx, c)
        return tuple(reps), loc

    def trace(self, g: int) -> int:
        """Frobenius' formula: the sum of chi(c) over the cosets r with
        g * rep_r = rep_r * c.  For a central C that is dim * chi(g) on C,
        already in the memo, and 0 off it."""
        if g not in self._traces:
            total = 0
            if not self.central:
                mul, chi = self.group.mul, self.character
                cosets, loc = self._coset_table
                for idx, rep in enumerate(cosets):
                    j, c = loc[mul(g, rep)]
                    if j == idx:
                        total += chi[c]
            self._traces[g] = total
        return self._traces[g]

    def __repr__(self) -> str:
        return f"MonomialRep(dim={self.dim}, |C|={len(self.subgroup)})"


def build_induced(
    G: GroupOracle, c_gens: Sequence[int], character_on_gens: Sequence[int]
) -> MonomialRep:
    return MonomialRep(G, c_gens, character_on_gens)


def fixed_subspace_dim(rep: MonomialRep, h_gens: Sequence[int]) -> int:
    """Dimension of the subspace fixed by <h_gens>: (1/|H|) sum of traces."""
    elements = rep.group.closure(h_gens)
    total = sum(rep.trace(h) for h in elements)
    if total < 0 or total % len(elements):
        raise AssertionError("character sum is not a nonnegative multiple of |H|")
    return total // len(elements)


class FreenessResult(NamedTuple):
    free: bool
    witness: Optional[int]  # smallest non-identity id fixing a product point


def is_free_on_product(G: GroupOracle, reps: Sequence[MonomialRep]) -> FreenessResult:
    """Freeness of the diagonal action on the product of unit spheres.

    g fixes a product point iff it has a +1 eigenvalue on every factor
    (fixed points on distinct factors are independent), that is, iff <g>
    fixes a nonzero vector of each, read off the traces over <g>.
    """
    if any(rep.group is not G for rep in reps):
        raise ValueError("all representations must live over the given group")
    for g in range(1, G.order):
        if all(fixed_subspace_dim(rep, [g]) > 0 for rep in reps):
            return FreenessResult(False, g)
    return FreenessResult(True, None)


class WalkResult(NamedTuple):
    rank: int  # the largest rank of a kept subgroup
    gens: tuple  # generators of the first kept subgroup of that rank
    state: Any  # its state
    subgroups: int  # the trivial subgroup and each one offered to extend


def elementary_abelian_search(
    mul: Callable, identity: Any, involutions: Sequence, root: Any, extend: Callable,
    commuting: Callable[[int, list[int]], list[int]], ceiling: Optional[int] = None,
) -> WalkResult:
    """Depth-first walk over the elementary abelian subgroups the involutions generate.

    The children of H are H u Hv for the candidates v not in H, in order; a
    child keeps the later candidates that commute with v.  Each subgroup is
    offered once, along its canonical path: its generators are the first
    listed involution in it, then the first outside their span, and so on.
    So no visited set is kept, and elements need only be hashable; the list
    holds each involution once.  extend(state, gens, coset) returns the
    child's state, or None to prune the child and everything below it; None
    must stand for a condition that every larger subgroup shares, since a
    subgroup whose canonical path passes a pruned one is never offered.  The
    trivial subgroup {identity} has state root and is always kept.

    The result is the first kept subgroup of largest rank, with its state,
    and the count of subgroups reached: the trivial one and each offered to
    extend.  The walk stops as soon as a kept subgroup reaches rank
    `ceiling`.

    The caller supplies the commuting relation: commuting(k, later) returns,
    in order, the positions j in `later` (ascending, all above k) whose
    involution commutes with involutions[k].  It is asked once per kept
    child, and `mul` is only used to build cosets.
    """
    index = {v: k for k, v in enumerate(involutions)}
    found = [0, (), root, 1]  # the fields of the result, as the walk goes
    if ceiling != 0:  # a ceiling of 0 is reached by the trivial subgroup
        _walk(mul, extend, commuting, index, involutions, ceiling, found, root, (),
              frozenset((identity,)), list(range(len(involutions))))
    return WalkResult(*found)


def _walk(
    mul: Callable, extend: Callable, commuting: Callable, index: dict, invs: Sequence,
    ceiling: Optional[int], found: list, state: Any, gens: tuple, elements: frozenset,
    cand: list[int],
) -> bool:
    """The subtree of elementary_abelian_search below one canonically reached
    subgroup; True once the ceiling is reached.  `cand` holds indices into
    `invs`, ascending, and index[x] is the position of x in `invs`.  The
    child with v = invs[k] is on its canonical path iff no element of its
    coset is listed before k, so the coset stops at the first that is."""
    for pos, k in enumerate(cand):
        v = invs[k]
        if v in elements:
            continue
        coset = []
        for e in elements:
            x = mul(e, v)
            if index.get(x, k) < k:
                break
            coset.append(x)
        if len(coset) < len(elements):
            continue
        found[3] += 1
        child_gens = gens + (v,)
        child_state = extend(state, child_gens, coset)
        if child_state is None:
            continue
        if len(child_gens) > found[0]:
            found[:3] = len(child_gens), child_gens, child_state
            if found[0] == ceiling:
                return True
        if _walk(mul, extend, commuting, index, invs, ceiling, found, child_state, child_gens,
                 elements.union(coset), commuting(k, cand[pos + 1 :])):
            return True
    return False


def _pairwise_commuting(
    mul: Callable, involutions: Sequence
) -> Callable[[int, list[int]], list[int]]:
    """The commuting relation of elementary_abelian_search decided lazily:
    a pair is compared with two products the first time a kept child asks,
    and remembered for the rest of the walk, so each pair is compared at
    most once, and only where a kept child needs it.  commutes[k][j] is 0
    while invs[k] and invs[j] have not been compared, 1 if they commute and
    2 if not."""
    invs = list(involutions)
    commutes: list[Optional[bytearray]] = [None] * len(invs)

    def commuting(k: int, later: list[int]) -> list[int]:
        row = commutes[k]
        if row is None:
            row = commutes[k] = bytearray(len(invs))
        v = invs[k]
        kept = []
        for j in later:
            status = row[j]
            if not status:
                w = invs[j]
                status = row[j] = 1 if mul(v, w) == mul(w, v) else 2
            if status == 1:
                kept.append(j)
        return kept

    return commuting


class IsotropyResult(NamedTuple):
    rank: int
    witness_gens: tuple[int, ...]


def _isotropy_ceiling(
    G: GroupOracle, reps: Sequence[MonomialRep], involutions: Sequence[int]
) -> int:
    """An upper bound on the isotropy rank, from a bound on rank_2(G).

    For a form group the bound is rank_2(G) itself, from `group_rank`.  For
    a table it is floor(log2(#involutions + 1)): an elementary abelian
    subgroup of rank r holds 2^r - 1 involutions.  A central involution z
    with trace -dim on some factor acts there as -1, so it lies in no H that
    fixes a point of that factor, and H<z> is still elementary abelian: then
    the ceiling is the bound less one.  Such a z lies in C.
    """
    if G.phi is None:
        bound = (len(involutions) + 1).bit_length() - 1
    else:
        from .phigroup import group_rank  # at call time: importing repaction stays light

        bound = group_rank(G.phi)
    mul = G.mul
    acts_as_minus_one = any(
        rep.trace(z) == -rep.dim and mul(z, z) == 0 and G.is_central(z)
        for rep in reps
        for z in rep.subgroup
    )
    return bound - acts_as_minus_one


def max_isotropy_rank(G: GroupOracle, reps: Sequence[MonomialRep]) -> IsotropyResult:
    """Largest rank of an elementary abelian subgroup fixing a product point.

    H fixes a point iff every factor has positive H-fixed dimension.  The
    search walks the commuting-involution graph, extending subgroups only
    while the fixed-point condition holds (it is hereditary downward).  It
    stops at the first subgroup that reaches `_isotropy_ceiling`; no larger
    rank exists, and the walk keeps the first subgroup of largest rank, so
    the witness is the full walk's.
    """
    if G.order > ISOTROPY_GUARD:
        raise GuardExceeded("max_isotropy_rank", f"order {G.order} exceeds {ISOTROPY_GUARD}")
    if any(rep.group is not G for rep in reps):
        raise ValueError("all representations must live over the given group")

    # trace sums per factor carry down the search: sum over H equals
    # |H| * fixed dim, so H fixes a product point iff every sum is positive
    involutions = G.involutions()
    invs = [g for g in involutions if all(rep.trace(0) + rep.trace(g) > 0 for rep in reps)]

    def extend(sums: list[int], gens: tuple[int, ...], coset: list[int]) -> Optional[list[int]]:
        new_sums = [s + sum(rep.trace(x) for x in coset) for s, rep in zip(sums, reps)]
        return None if any(s <= 0 for s in new_sums) else new_sums

    walk = elementary_abelian_search(G.mul, 0, invs, [rep.trace(0) for rep in reps], extend,
                                     _pairwise_commuting(G.mul, invs),
                                     _isotropy_ceiling(G, reps, involutions))
    return IsotropyResult(walk.rank, walk.gens)
