"""Independent brute-force oracles used to pin expected test values.

Everything here deliberately avoids the package's bit-packed code paths:
matrices are lists of lists, polynomials are dicts of exponent tuples,
eigenvalue questions go through exact rational arithmetic.  The family
builders, `family` and `zero_family`, and the ring substitution
`apply_linear` are the exception: they are not oracles but fixtures.  The
builders go through the package's one checked door for form families,
`FormFamily.from_json_dict`; the substitution writes polynomials with
`GradedPoly`, so it makes the non-monomial regular sequences the polynomial
tests feed the package.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from weakref import WeakKeyDictionary

from sphererank.forms import FormFamily
from sphererank.gf2 import BitMatrix, BitVector
from sphererank.polyalg import GradedPoly


# -- naive GF(2) linear algebra -------------------------------------------------


def naive_rank(rows: list[list[int]]) -> int:
    """Row reduction on explicit 0/1 lists."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def naive_rref(rows: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan on explicit 0/1 lists, taking the lowest-index pivot column
    first: the nonzero rows of the reduced row echelon form, pivots ascending."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rows[:rank]


def naive_matvec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) % 2 for row in rows]


def all_vectors(n: int):
    return product((0, 1), repeat=n)


def span_bits(rows: list[int]) -> set[int]:
    """Every XOR of a subset of the int-packed rows: their span, listed."""
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def is_rref(n: int, rows: Sequence[int]) -> bool:
    """The int rows are a reduced row echelon basis in F2^n: each row nonzero
    with no bit at or above n, pivots (lowest set bits) strictly increasing,
    and each pivot column clear in every other row."""
    if not all(0 < r and r >> n == 0 for r in rows):
        return False
    pivots = [next(j for j in range(n) if r >> j & 1) for r in rows]
    return all(a < b for a, b in zip(pivots, pivots[1:])) and all(
        (other >> p & 1) == (i == k) for i, p in enumerate(pivots) for k, other in enumerate(rows)
    )


def is_canonical(s) -> bool:
    """A reported Subspace: n-coordinate vectors forming a reduced row echelon basis."""
    return all(v.n == s.ambient_dim for v in s.basis) and is_rref(
        s.ambient_dim, [v.bits for v in s.basis]
    )


def naive_kernel_vectors(rows: list[list[int]], n: int) -> set[tuple[int, ...]]:
    return {
        tuple(v) for v in all_vectors(n) if all(x == 0 for x in naive_matvec(rows, list(v)))
    }


def naive_form_value(gram: list[list[int]], x: list[int], y: list[int]) -> int:
    total = 0
    for i in range(len(x)):
        for j in range(len(y)):
            total += x[i] * gram[i][j] * y[j]
    return total % 2


def form_value_bits(gram: Sequence[int], x: int, y: int) -> int:
    """x^T . gram . y over F2 for int-packed rows and vectors: the parity of
    the row products gram[i] . y over the coordinates i where x is 1."""
    return sum((gram[i] & y).bit_count() for i in range(len(gram)) if x >> i & 1) % 2


def bitstream_family(n: int, t: int, next_word) -> list[list[int]]:
    """The documented Gram rows of a random form family, entry by entry.

    For each form, entries (i, j) and (j, i) of row i = 1..n-1, column
    j = 0..i-1 are set by the next fair bit; `next_word()` yields 64-bit
    words, consumed lowest bit first.  Bit j of row i is entry (i, j).
    """
    word, left = 0, 0
    grams = []
    for _ in range(t):
        rows = [0] * n
        for i in range(1, n):
            for j in range(i):
                if left == 0:
                    word, left = next_word(), 64
                bit, word, left = word & 1, word >> 1, left - 1
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        grams.append(rows)
    return grams


def family(*forms: list[str]) -> FormFamily:
    """The family of the given Gram matrices, each a list of '0'/'1' row
    strings, built through the JSON door that checks every family read."""
    return FormFamily.from_json_dict({"n": len(forms[0]), "t": len(forms), "forms": list(forms)})


def zero_family(n: int, t: int) -> FormFamily:
    """t zero forms on F2^n, which present the elementary abelian group of
    order 2^(n+t)."""
    return family(*[["0" * n] * n] * t)


def enumerate_subspaces(n: int, d: int):
    """Every d-dimensional subspace of F2^n once, as its RREF basis: a tuple of
    int rows (bit j = coordinate j) with increasing pivots (lowest set bits).

    A choice of d pivot columns plus every assignment of the entries right of
    each pivot that lie in non-pivot columns.
    """
    for pivots in combinations(range(n), d):
        pivot_mask = sum(1 << p for p in pivots)
        free_slots = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n)
                      if not pivot_mask >> j & 1]
        for assignment in range(1 << len(free_slots)):
            rows = [1 << p for p in pivots]
            for k, (i, j) in enumerate(free_slots):
                if assignment >> k & 1:
                    rows[i] |= 1 << j
            yield tuple(rows)


def gaussian_binomial_recurrence(n: int, d: int) -> int:
    """[n choose d]_2 via the Pascal-type recurrence, independent of products."""
    if d < 0 or d > n:
        return 0
    if d == 0 or d == n:
        return 1
    return gaussian_binomial_recurrence(n - 1, d - 1) + (1 << d) * gaussian_binomial_recurrence(
        n - 1, d
    )


# -- quadratic forms -------------------------------------------------------------


def naive_quadratic_value(gram: list[list[int]], x: list[int]) -> int:
    """q(x) = sum over i > j of x_i gram[i][j] x_j: the lower-triangle refinement."""
    return sum(x[i] * gram[i][j] * x[j] for i in range(len(x)) for j in range(i)) % 2


def naive_qzero_vectors(grams: list[list[list[int]]], n: int) -> list[int]:
    """Nonzero v (bit i = coordinate i) with q_s(v) = 0 for every form, ascending."""
    out = []
    for v in range(1, 1 << n):
        x = [(v >> i) & 1 for i in range(n)]
        if all(naive_quadratic_value(g, x) == 0 for g in grams):
            out.append(v)
    return out


def witt_index_single(gram: list[list[int]]) -> int:
    """Largest totally singular subspace of the quadratic form q with polar form gram.

    With radical R of dimension r and n - r = 2m: if q is nonzero on R (q is
    linear there), the answer is m + r - 1; otherwise it is m + r when the
    Arf invariant of q is 0 and m + r - 1 when it is 1.  The Arf invariant is
    the minority value of q: q has 2^r (2^(2m-1) + 2^(m-1)) zeros for Arf 0 and
    2^r (2^(2m-1) - 2^(m-1)) for Arf 1.
    """
    n = len(gram)
    r = n - naive_rank(gram)
    m = (n - r) // 2
    radical = naive_kernel_vectors(gram, n)
    if any(naive_quadratic_value(gram, list(z)) for z in radical):
        return m + r - 1
    zeros = sum(1 for x in all_vectors(n) if naive_quadratic_value(gram, list(x)) == 0)
    return m + r if 2 * zeros > 1 << n else m + r - 1


# -- quadratic forms over GF(2^k) -----------------------------------------------

# GF(2^k) = GF(2)[x] / (modulus), an element the bit mask of its coefficients
GF2K_MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}


def gf2k_mul_table(k: int) -> list[list[int]]:
    """Multiplication table of GF(2^k), by schoolbook polynomial products
    reduced from the top degree down."""
    modulus = GF2K_MODULI[k]
    table = []
    for a in range(1 << k):
        row = []
        for b in range(1 << k):
            prod = 0
            for i in range(k):
                if b >> i & 1:
                    prod ^= a << i
            for d in range(2 * k - 2, k - 1, -1):
                if prod >> d & 1:
                    prod ^= modulus << (d - k)
            row.append(prod)
        table.append(row)
    return table


def witt_index_gf2k(grams: list[list[list[int]]], coeffs: Sequence[int], k: int) -> int:
    """Witt index over K = GF(2^k) of Q = sum_s coeffs[s] q_s on K^n, where
    q_s(x) = sum_{i > j} grams[s][i][j] x_i x_j, read off all |K|^n vectors.

    The radical of the polar form B is found by enumeration: the x with
    B(x, e_j) = 0 for every j.  With radical dim r and n - r = 2m the answer is
    m + r - 1 when Q is nonzero on the radical; otherwise it is m + r when Q
    has more than |K|^(n-1) zeros (hyperbolic) and m + r - 1 when it has fewer.
    """
    n = len(grams[0])
    if k * n > 16:
        raise ValueError("the oracle enumerates at most 2^16 vectors")
    mul = gf2k_mul_table(k)
    size = 1 << k
    coef = [[0] * n for _ in range(n)]  # coef[i][j] = coef[j][i]: the x_i x_j coefficient
    for c, gram in zip(coeffs, grams):
        for i in range(n):
            for j in range(i):
                if gram[i][j]:
                    coef[i][j] ^= c
                    coef[j][i] ^= c
    terms = [(i, j, coef[i][j]) for i in range(n) for j in range(i) if coef[i][j]]

    def value(x) -> int:
        acc = 0
        for i, j, c in terms:
            acc ^= mul[c][mul[x[i]][x[j]]]
        return acc

    def in_radical(x) -> bool:
        for j in range(n):
            acc = 0
            for i in range(n):
                acc ^= mul[coef[i][j]][x[i]]
            if acc:
                return False
        return True

    zeros = 0
    radical = []
    for x in product(range(size), repeat=n):
        zeros += value(x) == 0
        if in_radical(x):
            radical.append(x)
    r = (len(radical).bit_length() - 1) // k
    m = (n - r) // 2
    if any(value(z) for z in radical):
        return m + r - 1
    return m + r if zeros * size > size ** n else m + r - 1


# -- quadratic systems ----------------------------------------------------------


def naive_poly_values(polys, point: int) -> tuple[int, ...]:
    """Value of each polynomial over F2 at a point (bit i = x_i).

    A polynomial is a list of monomials, each a list of variable indices;
    the empty monomial is the constant 1 and repeats multiply a variable by
    itself.
    """
    return tuple(sum(all(point >> i & 1 for i in mono) for mono in p) % 2 for p in polys)


def brute_smallest_common_zero(v: int, polys) -> int | None:
    """Smallest nonzero point of F2^v where every polynomial vanishes, or None."""
    for point in range(1, 1 << v):
        if not any(naive_poly_values(polys, point)):
            return point
    return None


# -- small-group machinery ------------------------------------------------------


def dihedral_table(n: int) -> list[list[int]]:
    """Dihedral group of order 2n: id a*n + i encodes s^a r^i, s r s = r^-1."""

    def mul(x: int, y: int) -> int:
        a, i = divmod(x, n)
        b, j = divmod(y, n)
        return ((a + b) % 2) * n + ((i if b == 0 else -i) + j) % n

    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def direct_product_table(ta: list[list[int]], tb: list[list[int]]) -> list[list[int]]:
    """Cayley table of A x B with id x = a * |B| + b."""
    m = len(tb)
    return [
        [ta[x // m][y // m] * m + tb[x % m][y % m] for y in range(len(ta) * m)]
        for x in range(len(ta) * m)
    ]


def naive_mat_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of square F2 matrices as tuples of int rows (bit j = column j):
    row i of ab is the sum of the rows b[k] over the entries a[i][k] = 1."""
    out = []
    for row in a:
        acc = 0
        for k in range(len(b)):
            if row >> k & 1:
                acc ^= b[k]
        out.append(acc)
    return tuple(out)


def gl2_matrices(n: int) -> list[tuple[int, ...]]:
    """Every invertible n x n matrix over F2 as a tuple of int rows, in
    lexicographic order of the rows."""
    return [
        m for m in product(range(1 << n), repeat=n)
        if naive_rank([[row >> j & 1 for j in range(n)] for row in m]) == n
    ]


def gl2_table(n: int) -> list[list[int]]:
    """Cayley table of GL(n, 2), the identity first and then the other
    matrices in lexicographic order."""
    identity = tuple(1 << i for i in range(n))
    mats = [identity] + [m for m in gl2_matrices(n) if m != identity]
    index = {m: i for i, m in enumerate(mats)}
    return [[index[naive_mat_mul(a, b)] for b in mats] for a in mats]


def is_group_table(table: list[list[int]]) -> bool:
    """Group axioms with id 0 the identity, checked on every element, pair and triple."""
    n = len(table)
    ids = range(n)
    if any(len(row) != n or not all(0 <= e < n for e in row) for row in table):
        return False
    if any(table[0][g] != g or table[g][0] != g for g in ids):
        return False
    if not all(any(table[g][h] == 0 == table[h][g] for h in ids) for g in ids):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in ids for b in ids for c in ids
    )


def reduced_latin_squares(n: int) -> list[list[list[int]]]:
    """Every n x n Latin square on 0..n-1 whose first row and column are 0..n-1."""
    out = []
    rows = [list(range(n))]

    def fill_row(row: list[int]) -> None:
        j = len(row)
        if j == n:
            rows.append(row)
            if len(rows) == n:
                out.append([r[:] for r in rows])
            else:
                fill_row([len(rows)])
            rows.pop()
            return
        for e in range(n):
            if e not in row and all(r[j] != e for r in rows):
                fill_row(row + [e])

    if n == 1:
        return [rows]
    fill_row([1])
    return out


def tables_isomorphic(ta: list[list[int]], tb: list[list[int]]) -> bool:
    """Backtracking isomorphism search for small Cayley tables."""
    n = len(ta)
    if len(tb) != n:
        return False

    def order(table, g):
        k, acc = 1, g
        while acc != 0:
            acc = table[acc][g]
            k += 1
        return k

    orders_a = [order(ta, g) for g in range(n)]
    orders_b = [order(tb, g) for g in range(n)]
    if sorted(orders_a) != sorted(orders_b):
        return False

    phi = {0: 0}

    def extend(g: int) -> bool:
        if g == n:
            return all(
                phi[ta[x][y]] == tb[phi[x]][phi[y]] for x in range(n) for y in range(n)
            )
        used = set(phi.values())
        for h in range(n):
            if h in used or orders_b[h] != orders_a[g]:
                continue
            phi[g] = h
            ok = all(
                phi.get(ta[x][g], tb[phi[x]][h]) == tb[phi[x]][h]
                and phi.get(ta[g][x], tb[h][phi[x]]) == tb[h][phi[x]]
                for x in phi
                if x != g
            )
            if ok and extend(g + 1):
                return True
            del phi[g]
        return False

    return extend(1)


def iter_elem_abelian_subgroups(mul, order: int):
    """Yield every elementary abelian subgroup exactly once, as a list of ids.

    Each subgroup K has one generator chain in which every generator is the
    least element of K outside the span of the ones before it.  That chain
    ascends, and each generator is the least element of its coset of the
    span before it, so growing only such chains needs no visited set.  A
    candidate w that is not least in wH is not least in wH' for any H' > H,
    so it leaves the candidates for the whole subtree; a kept candidate of
    H u vH stays least iff no element of vH is in below[w], the ids x with
    w x < w.  Products are read from a table built once.
    """
    table = [[mul(g, h) for h in range(order)] for g in range(order)]
    invs = [g for g in range(1, order) if table[g][g] == 0]
    bits = [1 << x for x in range(order)]
    below = {w: sum([bits[x] for x, wx in enumerate(table[w]) if wx < w]) for w in invs}
    commuting = {v: {w for w in invs if table[v][w] == table[w][v]} for v in invs}
    stack = [([0], invs)]  # (elements, candidates); children pushed last-first
    while stack:
        elements, cand = stack.pop()
        yield elements
        children = []
        for idx, v in enumerate(cand):
            row = table[v]
            coset = [row[e] for e in elements]
            coset_bits = sum([bits[x] for x in coset])
            partners = commuting[v]
            later = [w for w in cand[idx + 1 :] if w in partners and not below[w] & coset_bits]
            children.append((elements + coset, later))
        stack.extend(reversed(children))


def all_elem_abelian_subgroups(mul, order: int) -> set[frozenset]:
    return set(map(frozenset, iter_elem_abelian_subgroups(mul, order)))


def brute_max_elem_abelian_rank(mul, order: int) -> int:
    return max(len(s).bit_length() - 1 for s in iter_elem_abelian_subgroups(mul, order))


def perm_orbits(perms, n: int) -> int:
    """Orbits on 0..n-1 of the group the permutations `perms` generate (each a
    tuple of images), by union-find over the edges i - perm[i]."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return sum(1 for i in range(n) if find(i) == i)


def brute_center(mul, order: int) -> set[int]:
    return {
        g for g in range(order) if all(mul(g, h) == mul(h, g) for h in range(order))
    }


def reference_elementary_abelian_search(mul, identity, involutions, root, extend) -> None:
    """The elementary abelian subgroup walk with a commuting filter at every
    kept child and a visited set of sorted element tuples, kept as the
    reference for the package's walk: without pruning, that walk must make
    the same `extend` calls in the same order; under pruning that holds for
    every larger subgroup, it keeps the same subgroups in the same order and
    skips only calls that this walk prunes."""
    _reference_walk(mul, extend, set(), root, (), frozenset((identity,)), list(involutions))


def _reference_walk(mul, extend, visited, state, gens, elements, cand) -> None:
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
            _reference_walk(mul, extend, visited, child_state, child_gens, child, new_cand)


# -- signed permutations and exact rational eigen-checks ---------------------------


@dataclass(frozen=True)
class SignedPermutation:
    dim: int
    image: tuple[int, ...]
    signs: tuple[int, ...]  # entries +-1

    def __post_init__(self):
        if sorted(self.image) != list(range(self.dim)):
            raise ValueError("image is not a bijection")


_COSET_LOOKUPS: WeakKeyDictionary = WeakKeyDictionary()


def signed_action(rep, g: int) -> SignedPermutation:
    """g on the cosets of an induced rep: g . e_r = chi(c) e_r' where
    g * rep_r = rep_r' * c, with the coset of each element looked up in a
    table built from the coset representatives and the subgroup alone."""
    mul = rep.group.mul
    loc = _COSET_LOOKUPS.get(rep)
    if loc is None:
        loc = {mul(r, c): (j, c) for j, r in enumerate(rep.cosets) for c in rep.subgroup}
        _COSET_LOOKUPS[rep] = loc
    located = [loc[mul(g, r)] for r in rep.cosets]
    return SignedPermutation(
        rep.dim, tuple(j for j, _ in located), tuple(rep.character[c] for _, c in located)
    )


def signed_perm_matrix(sp) -> list[list[Fraction]]:
    m = [[Fraction(0)] * sp.dim for _ in range(sp.dim)]
    for j in range(sp.dim):
        m[sp.image[j]][j] = Fraction(sp.signs[j])
    return m


def frac_rank(mat: list[list[Fraction]]) -> int:
    mat = [row[:] for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rational_has_plus_one_eigenvalue(sp) -> bool:
    """(M - I) has nontrivial nullspace, over exact rationals."""
    m = signed_perm_matrix(sp)
    for i in range(sp.dim):
        m[i][i] -= 1
    return frac_rank(m) < sp.dim


def rational_fixed_dim(sps) -> Fraction:
    """Trace of the averaged projector (1/|H|) sum of the matrices."""
    dim = sps[0].dim
    total = Fraction(0)
    for sp in sps:
        m = signed_perm_matrix(sp)
        total += sum(m[i][i] for i in range(dim))
    return total / len(sps)


# -- naive graded polynomial algebra ---------------------------------------------


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def naive_hilbert(nvars: int, gens: list[set[tuple]], degrees: list[int], d: int) -> int:
    """Degree-d quotient dimension via dict-based elimination, lex-max pivots."""

    def monomials(deg: int):
        if nvars == 1:
            yield (deg,)
            return
        for first in range(deg + 1):
            for rest in naive_monomials_cache(nvars - 1, deg - first):
                yield (first,) + rest

    def naive_monomials_cache(nv: int, deg: int):
        if nv == 1:
            return [(deg,)]
        out = []
        for first in range(deg + 1):
            for rest in naive_monomials_cache(nv - 1, deg - first):
                out.append((first,) + rest)
        return out

    span: dict[tuple, set] = {}  # leading monomial -> polynomial (set of monomials)

    def reduce_and_insert(poly: set) -> None:
        while poly:
            lead = max(poly)
            if lead not in span:
                span[lead] = poly
                return
            poly = poly ^ span[lead]

    for g, dg in zip(gens, degrees):
        if dg > d:
            continue
        for m in monomials(d - dg):
            shifted = {tuple(a + b for a, b in zip(m, gm)) for gm in g}
            reduce_and_insert(set(shifted))
    return len(list(monomials(d))) - len(span)


def apply_linear(poly: GradedPoly, m: BitMatrix) -> GradedPoly:
    """Ring substitution x_i -> sum_j m[i][j] x_j applied to a polynomial."""
    if m.rows != poly.nvars or m.cols != poly.nvars:
        raise ValueError("matrix size mismatch")
    images = [GradedPoly.linear(poly.nvars, BitVector(m.cols, row)) for row in m.row_data]
    out = GradedPoly.zero(poly.nvars, poly.degree)
    for mono in poly.monomials:
        term = GradedPoly.one(poly.nvars)
        for i, e in enumerate(mono):
            if e:
                term = term * images[i].power(e)
        out = out + term
    return out
