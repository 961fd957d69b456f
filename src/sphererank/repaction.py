"""Finite groups as multiplication oracles and their induced sign actions.

A GroupOracle is a group on ids 0..order-1 (0 = identity) given by a Cayley
table or a callback.  MonomialRep realizes the representation induced from a
+-1 character of a subgroup as signed permutations of the left cosets; the
fixed-point structure of the action on a product of unit spheres is then a
purely combinatorial matter: an element fixes a sphere point iff some cycle
of its signed permutation has sign product +1, and no floating point is ever
involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .errors import GuardExceeded, SchemaError
from .phigroup import PhiGroup

ASSOCIATIVITY_GUARD = 512  # full structural validation below this order
ORDER_GUARD = 1 << 16
ISOTROPY_GUARD = 4096


class GroupOracle:
    """Finite group on integer ids with id 0 the identity.

    `mul` is the stored product callback.  `rows`, when given, is its Cayley
    table, which validation then reads instead of building one from `mul`.
    """

    def __init__(
        self,
        order: int,
        mul: Callable[[int, int], int],
        provenance: str,
        rows: Optional[list[list[int]]] = None,
    ):
        if not 1 <= order <= ORDER_GUARD:
            raise ValueError(f"order must be in 1..{ORDER_GUARD}")
        self.order = order
        self.mul = mul
        self.provenance = provenance
        self.phi = None  # set for phi_group provenance
        self._inv: dict[int, int] = {0: 0}
        if order <= ASSOCIATIVITY_GUARD:
            self._validate(rows or [[mul(g, h) for h in range(order)] for g in range(order)])

    # -- construction ----------------------------------------------------

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]]) -> GroupOracle:
        order = len(table)
        failing = []
        if any(not isinstance(row, (list, tuple)) or len(row) != order for row in table):
            failing.append("mul: table must be square")
        elif any(type(e) is not int or not 0 <= e < order for row in table for e in row):
            failing.append("mul: entries must be integer ids in 0..order-1")
        if failing:
            raise SchemaError(failing)
        rows = [list(row) for row in table]
        return cls(order, lambda i, j: rows[i][j], "cayley_table", rows)

    @classmethod
    def from_phi_group(cls, G: PhiGroup) -> GroupOracle:
        oracle = cls(G.order, G.mul, "phi_group")
        oracle.phi = G
        return oracle

    # -- validation --------------------------------------------------------

    def _validate(self, rows: list[list[int]]) -> None:
        """Group axioms on the Cayley table `rows`: identity, Latin square,
        two-sided inverses (filling the inverse map) and Light's associativity
        test.  A stock table is checked on its own rows; any other oracle's
        table is built once with order^2 products and dropped afterwards, so a
        validated oracle holds no order^2 memory of its own.
        """
        ids = list(range(self.order))
        if rows[0] != ids or any(row[0] != g for g, row in enumerate(rows)):
            raise ValueError("id 0 is not a two-sided identity")
        for g in ids:
            if sorted(rows[g]) != ids or sorted([row[g] for row in rows]) != ids:
                raise ValueError(f"row/column of element {g} is not a permutation")
        for g in ids:
            h = rows[g].index(0)
            if rows[h][g] != 0:
                raise ValueError(f"element {g} has no two-sided inverse")
            self._inv[g] = h
        # Light's associativity test on a generating set: for a generator s,
        # a(sb) = (as)b for every b says row a composed with row s is row as.
        for s in _generating_set(rows):
            for row_a in rows:
                if list(map(row_a.__getitem__, rows[s])) != rows[row_a[s]]:
                    raise ValueError("multiplication is not associative")

    # -- arithmetic ---------------------------------------------------------

    def inv(self, i: int) -> int:
        if i not in self._inv:
            acc = i
            while True:
                nxt = self.mul(acc, i)
                if nxt == 0:
                    break
                acc = nxt
            self._inv[i] = acc
        return self._inv[i]

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != 0:
            acc = self.mul(acc, i)
            k += 1
        return k

    def involutions(self) -> list[int]:
        return [g for g in range(1, self.order) if self.mul(g, g) == 0]

    def check_ids(self, ids: Sequence[int]) -> None:
        """Refuse the first id outside 0..order-1."""
        for g in ids:
            if not 0 <= g < self.order:
                raise ValueError(f"element id {g} out of range")

    def closure(self, gens: Sequence[int]) -> list[int]:
        """Sorted element ids of the subgroup generated by gens."""
        self.check_ids(gens)
        elems = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return sorted(elems)


def _generating_set(rows: list[list[int]]) -> list[int]:
    """Greedy generators: each id not yet in the closure of the earlier ones."""
    gens: list[int] = []
    closure = {0}
    for g in range(1, len(rows)):
        if g in closure:
            continue
        gens.append(g)
        frontier = [g]
        while frontier:
            x = frontier.pop()
            if x in closure:
                continue
            closure.add(x)
            frontier.extend(rows[x][h] for h in list(closure))
            frontier.extend(rows[h][x] for h in list(closure))
    return gens


def is_two_central(G: GroupOracle) -> bool:
    """True iff every involution commutes with every element."""
    for g in G.involutions():
        for h in range(G.order):
            if G.mul(g, h) != G.mul(h, g):
                return False
    return True


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


@dataclass(frozen=True)
class SignedPermutation:
    dim: int
    image: tuple[int, ...]
    signs: tuple[int, ...]  # entries +-1

    def __post_init__(self):
        if sorted(self.image) != list(range(self.dim)):
            raise ValueError("image is not a bijection")


class MonomialRep:
    """Representation induced from a +-1 character of a subgroup.

    Basis vectors are indexed by the left cosets of C, enumerated with the
    smallest unused element id as representative: g . e_r = chi(c) e_r'
    where g * rep_r = rep_r' * c.
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
        self.cosets, self._loc = self._enumerate_cosets()
        self.dim = group.order // len(self.subgroup)
        self._traces: dict[int, int] = {}

    def _enumerate_cosets(self) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
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

    def action(self, g: int) -> SignedPermutation:
        image = []
        signs = []
        for rep in self.cosets:
            idx, c = self._loc[self.group.mul(g, rep)]
            image.append(idx)
            signs.append(self.character[c])
        return SignedPermutation(self.dim, tuple(image), tuple(signs))

    def trace(self, g: int) -> int:
        if g not in self._traces:
            sp = self.action(g)
            self._traces[g] = sum(
                s for i, (im, s) in enumerate(zip(sp.image, sp.signs)) if im == i
            )
        return self._traces[g]

    def __repr__(self) -> str:
        return f"MonomialRep(dim={self.dim}, |C|={len(self.subgroup)})"


def build_induced(
    G: GroupOracle, c_gens: Sequence[int], character_on_gens: Sequence[int]
) -> MonomialRep:
    return MonomialRep(G, c_gens, character_on_gens)


def has_plus_one_eigenvalue(rep: MonomialRep, g: int) -> bool:
    """True iff the signed permutation of g has a cycle with sign product +1."""
    sp = rep.action(g)
    seen = [False] * sp.dim
    for start in range(sp.dim):
        if seen[start]:
            continue
        prod = 1
        i = start
        while not seen[i]:
            seen[i] = True
            prod *= sp.signs[i]
            i = sp.image[i]
        if prod == 1:
            return True
    return False


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
    (fixed points on distinct factors are independent).
    """
    if any(rep.group is not G for rep in reps):
        raise ValueError("all representations must live over the given group")
    for g in range(1, G.order):
        if all(has_plus_one_eigenvalue(rep, g) for rep in reps):
            return FreenessResult(False, g)
    return FreenessResult(True, None)


def elementary_abelian_search(
    mul: Callable, identity: Any, involutions: Sequence, root: Any, extend: Callable
) -> None:
    """Depth-first walk over the elementary abelian subgroups the involutions generate.

    The children of H are H u Hv for the candidates v not in H, in order; a
    child keeps the later candidates that commute with v.  Each subgroup is
    reached once, deduplicated by its element set.  extend(state, gens,
    elements, coset) returns the child's state, or None to prune the child
    and everything below it.  The trivial subgroup {identity} has state root.
    Elements must be totally ordered (ints, or tuples of ints such as
    permutations and matrix rows): a subgroup is remembered by its sorted
    element tuple, which is smaller than a frozenset.
    """
    _walk(mul, extend, set(), root, (), frozenset((identity,)), list(involutions))


def _walk(
    mul: Callable, extend: Callable, visited: set, state: Any, gens: tuple,
    elements: frozenset, cand: list,
) -> None:
    """The subtree of elementary_abelian_search below one subgroup.  A module
    function, not a recursive closure, so that the visited set is freed when
    the search returns rather than at the next cyclic garbage collection."""
    for k, v in enumerate(cand):
        if v in elements:
            continue
        coset = [mul(e, v) for e in elements]
        child = elements.union(coset)
        key = tuple(sorted(child))
        if key in visited:
            continue
        visited.add(key)
        child_gens = gens + (v,)
        child_state = extend(state, child_gens, child, coset)
        if child_state is not None:
            new_cand = [w for w in cand[k + 1 :] if mul(v, w) == mul(w, v)]
            _walk(mul, extend, visited, child_state, child_gens, child, new_cand)


class IsotropyResult(NamedTuple):
    rank: int
    witness_gens: tuple[int, ...]


def max_isotropy_rank(G: GroupOracle, reps: Sequence[MonomialRep]) -> IsotropyResult:
    """Largest rank of an elementary abelian subgroup fixing a product point.

    H fixes a point iff every factor has positive H-fixed dimension.  The
    search walks the commuting-involution graph, extending subgroups only
    while the fixed-point condition holds (it is hereditary downward).
    """
    if G.order > ISOTROPY_GUARD:
        raise GuardExceeded("max_isotropy_rank", f"order {G.order} exceeds {ISOTROPY_GUARD}")
    if any(rep.group is not G for rep in reps):
        raise ValueError("all representations must live over the given group")

    # trace sums per factor carry down the search: sum over H equals
    # |H| * fixed dim, so H fixes a product point iff every sum is positive
    invs = [
        g
        for g in G.involutions()
        if all(rep.trace(0) + rep.trace(g) > 0 for rep in reps)
    ]
    best = IsotropyResult(0, ())

    def extend(sums: list[int], gens: tuple[int, ...], elements, coset: list[int]):
        nonlocal best
        new_sums = [s + sum(rep.trace(x) for x in coset) for s, rep in zip(sums, reps)]
        if any(s <= 0 for s in new_sums):
            return None
        if len(gens) > best.rank:
            best = IsotropyResult(len(gens), gens)
        return new_sums

    elementary_abelian_search(G.mul, 0, invs, [rep.trace(0) for rep in reps], extend)
    return best
