"""Independent answers the workload checkers compare the program against.

Nothing here calls into sphererank: forms are lists of 0/1 rows, group
elements are (a, b) pairs multiplied with a hand-written cocycle, polynomials
are dicts of exponent tuples, and subgroups are explicit element sets.
"""

from __future__ import annotations

import json
from itertools import permutations
from math import comb


# -- GF(2) forms as explicit lists ---------------------------------------------


def bits_to_list(bits: int, n: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(n)]


def list_to_bits(coords: list[int]) -> int:
    return sum(c << i for i, c in enumerate(coords))


def naive_rank(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
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


def naive_kernel_basis(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of {x : rows . x = 0} by reduced echelon form on lists."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for r, p in enumerate(pivots):
            v[p] = rows[r][free]
        basis.append(v)
    return basis


def form_value(gram: list[list[int]], x: list[int], y: list[int]) -> int:
    n = len(x)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n)) % 2


def q_value(gram: list[list[int]], x: list[int]) -> int:
    """Quadratic refinement x^T L x with L the strictly lower half of gram."""
    n = len(x)
    return sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(i)) % 2


def check_isotropic_witness(
    grams: list[list[list[int]]], witness: list[int], dim: int, n: int
) -> list[str]:
    """Witness spans a dim-dimensional space where every form and q vanish."""
    vecs = [bits_to_list(w, n) for w in witness]
    errors = []
    if len(vecs) != dim:
        errors.append(f"witness has {len(vecs)} vectors, reported dim {dim}")
    if vecs and naive_rank(vecs) != len(vecs):
        errors.append("witness vectors are dependent")
    for s, g in enumerate(grams):
        for i, u in enumerate(vecs):
            if q_value(g, u):
                errors.append(f"q_{s} is nonzero on witness vector {i}")
            for v in vecs[i + 1:]:
                if form_value(g, u, v):
                    errors.append(f"form {s} does not vanish on the witness")
    return errors


def witt_index_single(gram: list[list[int]]) -> int:
    """Largest totally singular subspace of one form, from radical and zero count.

    With r the radical dimension and m = (n - r)/2, the index is r + m when q
    has exactly 2^r (2^(2m-1) + 2^(m-1)) zeros and r + m - 1 otherwise.
    """
    n = len(gram)
    r = n - naive_rank(gram)
    m = (n - r) // 2
    zeros = sum(1 for bits in range(1 << n) if q_value(gram, bits_to_list(bits, n)) == 0)
    return r + m if 2 * zeros == (1 << r) * ((1 << (2 * m)) + (1 << m)) else r + m - 1


def _gram_rows(gram: list[list[int]]) -> list[int]:
    return [list_to_bits(row) for row in gram]


def _lower_rows(gram: list[list[int]]) -> list[int]:
    return [list_to_bits(row[:i]) for i, row in enumerate(gram)]


def _fold(rows: list[int], x: int) -> int:
    acc = 0
    i = 0
    while x:
        if x & 1:
            acc ^= rows[i]
        x >>= 1
        i += 1
    return acc


def brute_isotropic_dim(grams: list[list[list[int]]], n: int) -> int:
    """Largest subspace on which every form and q vanish, by visiting every one."""
    grows = [_gram_rows(g) for g in grams]
    lrows = [_lower_rows(g) for g in grams]
    singular = [
        v for v in range(1, 1 << n)
        if all(bin(_fold(lo, v) & v).count("1") % 2 == 0 for lo in lrows)
    ]
    perp = {v: [_fold(rows, v) for rows in grows] for v in singular}
    best = 0
    seen = set()
    stack = [(frozenset({0}), ())]
    while stack:
        space, basis = stack.pop()
        best = max(best, len(basis))
        for v in singular:
            if v in space or any(bin(m & b).count("1") % 2 for b in basis for m in perp[v]):
                continue
            new = space | {x ^ v for x in space}
            if new not in seen:
                seen.add(new)
                stack.append((new, basis + (v,)))
    return best


def center_invariants(grams: list[list[list[int]]], n: int, t: int) -> tuple[int, int, int]:
    """(radical dim, center rank, order-4 central dim) of the form group."""
    stacked = [row for g in grams for row in g]
    radical = naive_kernel_basis(stacked, n)
    qmat = [[q_value(g, v) for g in grams] for v in radical]
    qrank = naive_rank(qmat) if qmat else 0
    return len(radical), t + len(radical) - qrank, qrank


# -- the form group on ids a | b << n --------------------------------------------


class FormGroup:
    """Normal-form group law (a, b)(a', b') = (a + a', b + b' + beta(a, a'))."""

    def __init__(self, grams: list[list[list[int]]], n: int):
        self.n = n
        self.t = len(grams)
        self.order = 1 << (n + self.t)
        self._lower = [_lower_rows(g) for g in grams]
        self._amask = (1 << n) - 1

    def beta(self, a: int, a2: int) -> int:
        out = 0
        for s, rows in enumerate(self._lower):
            out |= (bin(_fold(rows, a) & a2).count("1") % 2) << s
        return out

    def mul(self, i: int, j: int) -> int:
        a1, a2 = i & self._amask, j & self._amask
        b = (i >> self.n) ^ (j >> self.n) ^ self.beta(a1, a2)
        return (a1 ^ a2) | (b << self.n)

    def b_id(self, s: int) -> int:
        return 1 << (self.n + s)

    def generators(self) -> list[int]:
        return [1 << i for i in range(self.n + self.t)]


def closure(mul, gens: list[int]) -> set[int]:
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


def is_elementary_abelian(mul, elems: set[int]) -> bool:
    return all(mul(e, e) == 0 for e in elems) and all(
        mul(e, f) == mul(f, e) for e in elems for f in elems
    )


def two_central_brute(mul, order: int, gens: list[int]) -> bool:
    """Every involution commutes with every generator, hence with everything."""
    for g in range(1, order):
        if mul(g, g) == 0 and any(mul(g, h) != mul(h, g) for h in gens):
            return False
    return True


def character_on(table: list[list[int]], c_gens: list[int], values: list[int]) -> dict[int, int]:
    """The +-1 character of C = <c_gens> with the given values on the generators."""
    chi = {0: 1}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g, v in zip(c_gens, values):
            y = table[x][g]
            if y not in chi:
                chi[y] = chi[x] * v
                frontier.append(y)
    return chi


def induced_character(table: list[list[int]], c_elems: dict[int, int]) -> list[int]:
    """Frobenius' formula: chi_ind(g) = (1/|C|) sum over x with x^-1 g x in C."""
    order = len(table)
    inv = [next(h for h in range(order) if table[g][h] == 0) for g in range(order)]
    out = []
    for g in range(order):
        total = 0
        for x in range(order):
            conj = table[table[inv[x]][g]][x]
            total += c_elems.get(conj, 0)
        out.append(total // len(c_elems))
    return out


def fixed_dim(char: list[int], elems) -> int:
    elems = list(elems)
    return sum(char[h] for h in elems) // len(elems)


def free_brute(table: list[list[int]], chars: list[list[int]]) -> bool:
    """No nonidentity element fixes a point on every sphere factor."""
    mul = lambda i, j: table[i][j]  # noqa: E731
    for g in range(1, len(table)):
        cyc = closure(mul, [g])
        if all(fixed_dim(ch, cyc) > 0 for ch in chars):
            return False
    return True


def max_isotropy_brute(table: list[list[int]], chars: list[list[int]]) -> int:
    """Largest elementary abelian subgroup with positive fixed dim on every factor."""
    mul = lambda i, j: table[i][j]  # noqa: E731
    invs = [g for g in range(1, len(table)) if mul(g, g) == 0]
    best = 0
    seen = set()
    stack = [frozenset({0})]
    while stack:
        h = stack.pop()
        best = max(best, len(h).bit_length() - 1)
        for v in invs:
            if v in h or any(mul(v, e) != mul(e, v) for e in h):
                continue
            new = h | {mul(e, v) for e in h}
            if new not in seen and all(fixed_dim(ch, new) > 0 for ch in chars):
                seen.add(new)
                stack.append(new)
    return best


def dihedral_table(m: int) -> list[list[int]]:
    """Dihedral group of order 2m: id a*m + i is s^a r^i with s r s = r^-1."""

    def mul(x: int, y: int) -> int:
        a, i = divmod(x, m)
        b, j = divmod(y, m)
        return ((a + b) % 2) * m + ((i if b == 0 else -i) + j) % m

    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


# -- polynomials over F2 as dicts of exponent tuples ------------------------------


def poly_mul(p: set, q: set) -> set:
    out: set = set()
    for m1 in p:
        for m2 in q:
            out ^= {tuple(a + b for a, b in zip(m1, m2))}
    return out


def poly_pow(p: set, e: int, nvars: int) -> set:
    out = {(0,) * nvars}
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def linear_poly(coeffs: int, nvars: int) -> set:
    return {tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars) if coeffs >> i & 1}


def substitute(p: set, matrix_rows: list[int], nvars: int) -> set:
    """Apply x_i -> sum_j m[i][j] x_j to every monomial of p."""
    images = [linear_poly(r, nvars) for r in matrix_rows]
    out: set = set()
    for mono in p:
        term = {(0,) * nvars}
        for i, e in enumerate(mono):
            term = poly_mul(term, poly_pow(images[i], e, nvars))
        out ^= term
    return out


def stock_euler_class(dim: int, r: int) -> set:
    """Euler class of Ind_C^G chi restricted to E = <b, e_2, .., e_r>, where
    C = <b> is central, chi(b) = -1 and dim = [G:C]: by Frobenius, rep|E is
    every character c of E with c(b) = -1, each 2 dim / |E| times."""
    mult = 2 * dim // (1 << r)
    out = {(0,) * r}
    for c in range(1, 1 << r, 2):
        out = poly_mul(out, poly_pow(linear_poly(c, r), mult, r))
    return out


def in_span(target: set, span: list[set]) -> bool:
    monos = sorted(set().union(target, *span))
    rows = [[1 if m in p else 0 for m in monos] for p in span]
    return naive_rank(rows + [[1 if m in target else 0 for m in monos]]) == naive_rank(rows)


def hilbert_series(degrees: list[int], nvars: int, dmax: int) -> list[int]:
    """Coefficients of prod(1 - x^d_i) / (1 - x)^nvars up to degree dmax."""
    num = [1]
    for d in degrees:
        nxt = [0] * (len(num) + d)
        for i, c in enumerate(num):
            nxt[i] += c
            nxt[i + d] -= c
        num = nxt
    return [
        sum(c * comb(k - j + nvars - 1, nvars - 1) for j, c in enumerate(num) if j <= k)
        for k in range(dmax + 1)
    ]


def monomials_of_degree(nvars: int, d: int) -> list[tuple]:
    if nvars == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d + 1) for rest in monomials_of_degree(nvars - 1, d - k)]


def naive_hilbert(gens: list[set], degrees: list[int], nvars: int, d: int) -> int:
    """dim of the degree-d part of the quotient, by elimination on monomial sets."""
    span: dict[tuple, set] = {}  # leading monomial -> reduced polynomial
    for g, dg in zip(gens, degrees):
        if dg > d:
            continue
        for m in monomials_of_degree(nvars, d - dg):
            poly = {tuple(a + b for a, b in zip(m, gm)) for gm in g}
            while poly:
                lead = max(poly)
                if lead not in span:
                    span[lead] = poly
                    break
                poly = poly ^ span[lead]
    return len(monomials_of_degree(nvars, d)) - len(span)


def eval_system(polys: list[list[list[int]]], point: int) -> list[int]:
    """Value of each degree <= 2 polynomial (monomials as index lists) at a point."""
    return [
        sum(all(point >> i & 1 for i in mono) for mono in p) % 2 for p in polys
    ]


# -- bounds --------------------------------------------------------------------


def count_elem_abelian_2_subgroups_sn(n: int) -> int:
    """Elementary abelian 2-subgroups of S_n, the trivial one included."""
    ident = tuple(range(n))
    compose = lambda a, b: tuple(a[b[i]] for i in range(n))  # noqa: E731
    invs = [p for p in permutations(range(n)) if p != ident and compose(p, p) == ident]
    seen = {frozenset({ident})}
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for v in invs:
                if v in h or any(compose(v, e) != compose(e, v) for e in h):
                    continue
                new = h | {compose(e, v) for e in h}
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(seen)


def carlsson_ok(m: int, N: int, T: int) -> bool:
    """m is the least value with (m+1)^T >= 2^N."""
    return (m + 1) ** T >= 2 ** N > m ** T


def is_canonical_json(text: str) -> bool:
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" == text
